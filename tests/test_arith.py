"""The in-house integer and polynomial arithmetic against sympy."""

import random
from collections import Counter
from math import gcd

import pytest
import sympy
from conftest import orbit_partition
from sympy import GF, ZZ, Poly, Symbol, factor_list
from sympy.polys.galoistools import gf_irreducible_p

from modtors import arith

# the least strong pseudoprimes to the first 5, 6, ..., 13 prime bases
PSI = [
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
]


def test_isprime_small():
    assert [arith.isprime(n) for n in range(20001)] == [
        sympy.isprime(n) for n in range(20001)
    ]


@pytest.mark.parametrize("bits", [64, 100])
def test_isprime_random(bits):
    rng = random.Random(bits)
    ns = [rng.getrandbits(bits) | 1 for _ in range(2000)]
    ns += [sympy.nextprime(n) for n in ns[:100]]
    ns += [sympy.nextprime(n) * sympy.nextprime(n + 10**6) for n in ns[:50]]
    assert [arith.isprime(n) for n in ns] == [sympy.isprime(n) for n in ns]


def test_isprime_strong_pseudoprimes():
    # PSI_13 passes every Miller-Rabin base, so only the Lucas test rejects it
    assert arith.PSI_13 == PSI[-1]
    for n in PSI:
        assert not arith.isprime(n) and not sympy.isprime(n)
    mersenne = [2**e - 1 for e in (61, 89, 107, 127, 128)]
    carmichael = [561, 41041, 825265, 321197185, 5394826801, 232250619601]
    for n in mersenne + carmichael:
        assert arith.isprime(n) == sympy.isprime(n)


def test_nextprime():
    for n in [-5, 0, 1, 2, 3, 24, 2**31 - 2, 2**61, arith.PSI_13]:
        assert arith.nextprime(n) == sympy.nextprime(n)


def test_factorint():
    rng = random.Random(7)
    ns = [1, 2, 1024, 1023 * 1031, 1031**2, 1031**3 * 1033]
    ns += [rng.randrange(1, 10**12) for _ in range(300)]
    ns += [sympy.randprime(2**20, 2**21) * sympy.randprime(2**20, 2**21) for _ in range(20)]
    ns += [sympy.randprime(2**30, 2**31) ** 2 * rng.randrange(1, 1000) for _ in range(20)]
    ns.append(2571585630584699158076307446368599765550104576)  # m at Gamma1(45)
    for n in ns:
        got = arith.factorint(n)
        assert got == sympy.factorint(n)
        assert list(got) == sorted(got)
    with pytest.raises(ValueError):
        arith.factorint(0)


def test_totient_and_mobius():
    for n in range(1, 3000):
        assert arith.totient(n) == sympy.totient(n)
        assert arith.mobius(n) == sympy.mobius(n)


def test_primitive_root_is_least():
    for p in sympy.primerange(3, 20000):
        pe = p
        while pe < 20000:
            assert arith.primitive_root(pe) == sympy.primitive_root(pe), pe
            pe *= p
    for n in (1, 2, 8, 15, 18):
        with pytest.raises(ValueError):
            arith.primitive_root(n)


def _monic_polys(p, k):
    """Every monic polynomial of degree k over F_p, constant term first."""
    for code in range(p**k):
        tail = []
        for _ in range(k):
            code, c = divmod(code, p)
            tail.append(c)
        yield tail + [1]


def test_irreducibility_matches_galoistools():
    for p in sympy.primerange(2, 2188):
        k = 1
        while p**k <= 2187:
            for f in _monic_polys(p, k):
                assert arith.is_irreducible_mod_p(f, p) == gf_irreducible_p(f[::-1], p, ZZ), (p, f)
            k += 1


@pytest.mark.parametrize("p", [3, 5, 7, 101])
def test_factor_mod_p_and_lcm(p):
    rng = random.Random(p)
    F = GF(p)
    x = Symbol("x")
    for _ in range(60):
        f = [rng.randrange(p) for _ in range(rng.randrange(1, 9))] + [1]
        sym = Poly(f[::-1], x, domain=F)
        sqf = sym.sqf_part()
        sqf_low = [int(c) % p for c in sqf.all_coeffs()[::-1]]
        got = sorted(arith.factor_mod_p(sqf_low, p))
        want = sorted([int(c) % p for c in g.all_coeffs()[::-1]] for g, _ in sqf.factor_list()[1])
        assert got == want
        g = [rng.randrange(p) for _ in range(rng.randrange(0, 6))] + [1]
        lcm = sym.lcm(Poly(g[::-1], x, domain=F))
        assert arith.lcm_mod_p(f, g, p) == [int(c) % p for c in lcm.monic().all_coeffs()[::-1]]


def _sympy_factors(f):
    x = Symbol("x")
    return [([int(c) for c in g.all_coeffs()[::-1]], m, str(g.as_expr()))
            for g, m in factor_list(Poly(f[::-1], x))[1]]


def _random_monic_product(rng):
    f = [1]
    for _ in range(rng.randrange(1, 5)):
        g = [rng.randrange(-4, 5) for _ in range(rng.randrange(1, 4))] + [1]
        for _ in range(rng.choice([1, 1, 1, 2, 3])):
            f = arith.poly_mul(f, g)
    return f


@pytest.mark.parametrize("seed", range(4))
def test_factor_monic_matches_factor_list(seed):
    rng = random.Random(seed)
    cases = [[1], [0, 1], [0, 0, 1], [1, 0, -10, 0, 1], [-1] + [0] * 11 + [1]]
    cases += [_random_monic_product(rng) for _ in range(150)]
    for f in cases:
        got = arith.factor_monic(f)
        assert [(g, m, arith.poly_str(g)) for g, m in got] == _sympy_factors(f), f


def test_poly_str_matches_as_expr():
    x = Symbol("x")
    rng = random.Random(3)
    for _ in range(300):
        f = [rng.randrange(-3, 4) for _ in range(rng.randrange(0, 7))] + [rng.randrange(1, 4)]
        assert arith.poly_str(f) == str(Poly(f[::-1], x).as_expr())
    assert arith.poly_str([]) == "0"


def _h_subgroup_walk(n, gens):
    """The former walk of GroupSpec.h_subgroup: H generated by gens mod n."""
    out = {1 % n}
    frontier = [1 % n]
    gens = [g % n for g in gens]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x * g % n
            if y not in out:
                out.add(y)
                frontier.append(y)
    return sorted(out)


def _x1_orbit_sizes_walk(N, d, generators):
    """The former walk of the cusp orbits of X1(N): orbit sizes of the
    folded d-component points under the unit exponents."""
    from modtors.cusps import _fold, x1_component_points

    m = N // d
    seen = set()
    sizes = []
    for p0 in x1_component_points(N, d):
        if p0 in seen:
            continue
        orbit = {p0}
        frontier = [p0]
        while frontier:
            i, b = frontier.pop()
            for s in generators:
                nxt = _fold(((s * i) % m if m > 1 else i, b), m, d)
                if nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
        seen |= orbit
        sizes.append(len(orbit))
    return sizes


@pytest.mark.parametrize("seed", range(6))
def test_orbits_match_the_former_walks(seed):
    from modtors.cusps import cusp_orbits, divisors, units
    from modtors.modsym import GroupSpec

    rng = random.Random(900 + seed)
    # subgroups of (Z/n)^*
    for n in range(2 + 20 * seed, 22 + 20 * seed):
        gens = rng.sample([a for a in range(1, n) if gcd(a, n) == 1], k=min(2, n - 1))
        assert GroupSpec.gammaH(n, gens).h_subgroup() == _h_subgroup_walk(n, gens)
        orbit, = arith.orbits([1], [lambda x, g=g: x * g % n for g in gens])
        assert orbit[0] == 1 and sorted(orbit) == _h_subgroup_walk(n, gens)
    # cusp orbits of X1(N) over Q and over F_p
    for N in range(5 + 7 * seed, 12 + 7 * seed):
        p = next(q for q in (3, 5, 7, 11, 13) if (2 * N) % q)
        for frob in (None, p):
            want = Counter()
            for d in divisors(N):
                gens = units(N // d) if frob is None else [frob]
                want.update((d, size) for size in _x1_orbit_sizes_walk(N, d, gens))
            got = Counter({(o.component, o.degree): o.count for o in cusp_orbits(N, "X1", frob)})
            assert got == want
    # orbit labels under random permutations, orbits numbered by least point
    n = rng.randint(1, 30)
    perms = []
    for _ in range(rng.randint(0, 3)):
        perm = list(range(n))
        rng.shuffle(perm)
        perms.append(perm)
    label = [None] * n
    for k, orbit in enumerate(arith.orbits(range(n), [s.__getitem__ for s in perms])):
        for x in orbit:
            label[x] = k
    assert label == orbit_partition(perms, n)
