import random
from itertools import product
from math import prod

import pytest

from conftest import abgroup_gcd, embeds_in

from modtors.abgroup import FinAbGroup
from modtors.intlinalg import elementary_divisors, hnf


def test_canonical_form():
    assert FinAbGroup([6, 4]).invariants == (2, 12)
    assert FinAbGroup([2, 3]).invariants == (6,)
    assert FinAbGroup([]).invariants == ()
    assert FinAbGroup([1, 1]).order() == 1
    assert FinAbGroup([12, 2, 3]).invariants == (6, 12)
    assert FinAbGroup([4]).order() == 4


def test_gcd_paper_examples():
    # J1(21) mod 5 and mod 11
    g = abgroup_gcd([FinAbGroup([2184]), FinAbGroup([14, 6916])])
    assert g == FinAbGroup([364])
    # J1(28) mod 3 and mod 5
    g = abgroup_gcd([FinAbGroup([4, 4, 24, 936]), FinAbGroup([2, 2, 8, 8, 312, 936])])
    assert g == FinAbGroup([4, 4, 24, 936])
    # J1(2,18) mod 5 and mod 7
    g = abgroup_gcd([FinAbGroup([6, 84, 252]), FinAbGroup([3, 6, 6, 126, 126])])
    assert g == FinAbGroup([6, 42, 126])


def test_gcd_idempotent_commutative():
    gs = [FinAbGroup([4, 12]), FinAbGroup([2, 2, 8]), FinAbGroup([6, 6])]
    for g in gs:
        assert abgroup_gcd([g, g]) == g
    assert abgroup_gcd(gs) == abgroup_gcd(list(reversed(gs)))
    a, b, c = gs
    assert abgroup_gcd([abgroup_gcd([a, b]), c]) == abgroup_gcd([a, b, c])


def all_subgroup_structures(group):
    """Brute-force: structures of all subgroups of a small abelian group.

    Enumerates the group as a product of cyclic factors and closes random
    generator sets; feasible for order <= 200.
    """
    invs = group.invariants
    elems = list(product(*[range(n) for n in invs]))
    subs = set()

    def order_of(x):
        from math import lcm

        o = 1
        for xi, n in zip(x, invs):
            if xi:
                o = lcm(o, n // __import__("math").gcd(xi, n))
        return o

    def close(gens):
        seen = {tuple([0] * len(invs))}
        frontier = [tuple([0] * len(invs))]
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = tuple((c + gi) % n for c, gi, n in zip(cur, g, invs))
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return frozenset(seen)

    # subgroups generated by up to 2 elements suffice for rank-2 groups;
    # use 3 to be safe on rank-3 test groups
    for g1 in elems:
        subs.add(close([g1]))
    for g1 in elems:
        for g2 in elems:
            subs.add(close([g1, g2]))
    out = set()
    for s in subs:
        # structure of subgroup: orders of elements determine invariants for
        # these small groups via counting x with m*x = 0
        n = len(s)
        counts = {}
        for m in range(1, n + 1):
            if n % m == 0:
                counts[m] = sum(
                    1
                    for x in s
                    if all((m * xi) % ni == 0 for xi, ni in zip(x, invs))
                )
        out.add((n, tuple(sorted(counts.items()))))
    return out


def embeds_brute(a, b):
    """Does a embed in b?  Compare a's (order, torsion-counts) signature
    against all subgroup signatures of b."""
    n = a.order()
    sig_counts = {}
    for m in range(1, n + 1):
        if n % m == 0:
            sig_counts[m] = prod(
                __import__("math").gcd(m, ni) for ni in a.invariants
            )
    return (n, tuple(sorted(sig_counts.items()))) in all_subgroup_structures(b)


@pytest.mark.parametrize("seed", range(8))
def test_gcd_against_brute_force_embedding(seed):
    rng = random.Random(seed)
    def rand_group():
        k = rng.randint(1, 2)
        while True:
            inv = [rng.randint(2, 12) for _ in range(k)]
            g = FinAbGroup(inv)
            if 1 < g.order() <= 150:
                return g

    a, b = rand_group(), rand_group()
    g = abgroup_gcd([a, b])
    if g.order() <= 200:
        assert embeds_brute(g, a)
        assert embeds_brute(g, b)
    else:
        assert embeds_in(g, a) and embeds_in(g, b)
    # maximality: no strictly larger "multiple" of g embeds in both.
    for p in (2, 3, 5, 7):
        bigger = FinAbGroup(list(g.invariants) + [p])
        if bigger.order() <= 200:
            assert not (embeds_brute(bigger, a) and embeds_brute(bigger, b))


def test_embeds_in_criterion():
    assert embeds_in(FinAbGroup([2, 2]), FinAbGroup([2, 4]))
    assert not embeds_in(FinAbGroup([4]), FinAbGroup([2, 2]))
    assert embeds_in(FinAbGroup([6]), FinAbGroup([2, 6]))
    assert embeds_in(FinAbGroup([]), FinAbGroup([2]))


def brute_force_quotient_structure(m, n):
    """Structure of Z^n / rowspan(m) by explicit coset bookkeeping.

    Only valid when the quotient is finite; returns sorted invariant
    signature as torsion counts, comparable against FinAbGroup.
    """
    import numpy as np
    from itertools import product as iproduct

    # find the quotient by working modulo a big modulus: the exponent
    # divides any nonzero n x n minor determinant combination; use SNF-free
    # elimination over Z via sympy for an independent route
    from sympy import Matrix

    sm = Matrix(m)
    # sympy's smith_normal_form would be circular-ish; instead enumerate:
    # the quotient group = Z^n / L. Compute a modulus M killing it: the
    # product of diagonal entries from sympy's hermite form.
    h = Matrix.hstack(sm.T).T  # copy
    hnf = h.rref()  # rational rank only
    # modulus: determinant of Gram-ish full-rank square submatrix
    from itertools import combinations

    rows = [list(map(int, sm.row(i))) for i in range(sm.rows)]
    best = 0
    for comb in combinations(range(len(rows)), n):
        sub = Matrix([rows[i] for i in comb])
        d = abs(int(sub.det()))
        if d:
            best = d if best == 0 else __import__("math").gcd(best, d)
    assert best != 0, "infinite quotient in oracle"
    M = best
    if M**n > 30000:
        pytest.skip("oracle too large for brute force")
    # cosets of rowspan(m) + M*Z^n inside (Z/M)^n
    sub = set()
    frontier = [tuple([0] * n)]
    sub.add(frontier[0])
    gens = [tuple(x % M for x in r) for r in rows]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple((a + b) % M for a, b in zip(cur, g))
            if nxt not in sub:
                sub.add(nxt)
                frontier.append(nxt)
    order = M**n // len(sub)

    # torsion counts of the quotient: #{x : k*x in sub} / |sub|
    counts = {}
    for k in range(1, order + 1):
        if order % k:
            continue
        cnt = 0
        for x in iproduct(range(M), repeat=n):
            if tuple((k * xi) % M for xi in x) in sub:
                cnt += 1
        counts[k] = cnt // len(sub)
    return order, counts


@pytest.mark.parametrize(
    "mat,expected",
    [
        ([[2, 0], [0, 4]], [2, 4]),
        ([[1, 0], [0, 1]], []),
        ([[364]], [364]),
    ],
)
def test_cokernel_trivial_examples(mat, expected):
    # Z^n / rowspan(mat) for mat of full rank n, from its invariant factors
    assert FinAbGroup(elementary_divisors(mat)) == FinAbGroup(expected)


@pytest.mark.parametrize("seed", range(8))
def test_cokernel_against_brute_force(seed):
    rng = random.Random(700 + seed)
    n = rng.randint(1, 3)
    while True:
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n + rng.randint(0, 1))]
        if len(hnf(m)) == n:
            break
    g = FinAbGroup(elementary_divisors(m))
    order, counts = brute_force_quotient_structure(m, n)
    assert g.order() == order
    for k, cnt in counts.items():
        expect = prod(__import__("math").gcd(k, ni) for ni in g.invariants)
        assert cnt == expect
