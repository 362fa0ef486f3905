"""Cuspidal subschemes of X1(N) and X0(N), over Q and over F_p.

The cusps of X1(N) (N >= 5, away from 2N) form the scheme
union over d | N of (mu_{N/d} x Z/d)' / [-1], prime meaning componentwise
maximal order; for X0(N) the d-component is (mu_{gcd(d, N/d)})'.  Everything
here is bookkeeping on that data: Galois orbits, residue degrees, widths,
reductions mod p.
"""

from collections import Counter
from dataclasses import dataclass
from math import gcd

from .arith import isprime, orbits, totient


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def units(n):
    if n == 1:
        return [0]  # the identity of the trivial group
    return [a for a in range(n) if gcd(a, n) == 1]


def mult_order(a, n):
    """Multiplicative order of a modulo n (n = 1 gives 1)."""
    if n == 1:
        return 1
    if gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit mod {n}")
    o, x = 1, a % n
    while x != 1:
        x = x * a % n
        o += 1
    return o


@dataclass(frozen=True)
class CuspOrbit:
    """A bundle of closed cusp points sharing all discrete data.

    component: the divisor d | N indexing the Lemma-2.5 component;
    count: number of closed points in the bundle;
    degree: common residue degree over the base (Q or F_p);
    width: cusp width of the component.
    """

    component: int
    count: int
    degree: int
    width: int


def x1_width(N, d):
    """Width of the X1(N) cusps in the d-component (denominators N/d)."""
    c = N // d
    return N // gcd(c * c, N)


def x0_width(N, d):
    """Width of the X0(N) cusp with denominator class d."""
    return N // gcd(d * d, N)


def _fold(point, m, d):
    """Canonical representative of {(i, b), (-i, -b)} in mu_m x Z/d."""
    i, b = point
    alt = ((-i) % m if m > 1 else i, (-b) % d if d > 1 else b)
    return min(point, alt)


def x1_component_points(N, d):
    """Folded geometric points of the d-component of X1(N) cusps."""
    m = N // d
    pts = set()
    for i in units(m):
        for b in units(d):
            pts.add(_fold((i, b), m, d))
    return sorted(pts)


def cusp_orbits(N, kind, p=None):
    """Closed cusp points of X1(N) or X0(N) (kind "X1" or "X0") over Q
    (p None) or over F_p (p prime, not dividing 2N), bundled as CuspOrbit
    records.

    Over Q the Galois group acts on the mu-coordinates through all units,
    over F_p through the Frobenius x -> x^p; X1 points are [-1]-folded and
    need N >= 5 (hypothesis of the cuspidal-subscheme description).
    """
    if p is not None:
        if not isprime(p):
            raise ValueError(f"{p} is not prime")
        if (2 * N) % p == 0:
            raise ValueError(f"p = {p} must not divide 2N (N = {N})")
    if kind not in ("X1", "X0"):
        raise ValueError(f"unknown kind {kind!r}")
    if kind == "X1" and N < 5:
        raise ValueError("X1 cusp scheme description requires N >= 5")
    out = []
    for d in divisors(N):
        if kind == "X1":
            # the unit exponents act on the mu-coordinate only
            m = N // d
            moves = [lambda pt, s=s: _fold((s * pt[0] % m, pt[1]), m, d)
                     for s in (units(m) if p is None else [p])]
            sizes = Counter(map(len, orbits(x1_component_points(N, d), moves)))
            out.extend(
                CuspOrbit(d, count, size, x1_width(N, d))
                for size, count in sorted(sizes.items())
            )
        else:
            g = gcd(d, N // d)
            degree = totient(g) if p is None else mult_order(p % g, g)
            out.append(CuspOrbit(d, totient(g) // degree, degree, x0_width(N, d)))
    return out


def rational_cusp_count(N, kind, p=None):
    """Number of degree-1 cusp places over Q (p None) or over F_p."""
    return sum(o.count for o in cusp_orbits(N, kind, p) if o.degree == 1)


def degree1_count_over_extension(N, kind, p, k):
    """Number of F_{p^k}-rational cusp points of X_kind(N).

    A place of degree e over F_p contributes e points rational over F_{p^e},
    hence over F_{p^k} whenever e | k.
    """
    return sum(
        o.count * o.degree
        for o in cusp_orbits(N, kind, p)
        if k % o.degree == 0
    )
