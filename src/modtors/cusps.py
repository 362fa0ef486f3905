"""Cuspidal subschemes of X1(N) and X0(N), over Q and over F_p.

The cusps of X1(N) (N >= 5, away from 2N) form the scheme
union over d | N of (mu_{N/d} x Z/d)' / [-1], prime meaning componentwise
maximal order; for X0(N) the d-component is (mu_{gcd(d, N/d)})'.  Everything
here is bookkeeping on that data: Galois orbits, residue degrees, widths,
reductions mod p.
"""

from dataclasses import dataclass
from math import gcd

from sympy import isprime, totient


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
    coords: a representative (mu-index, Z/d residue) pair;
    count: number of closed points in the bundle;
    degree: common residue degree over the base;
    width: cusp width of the component;
    base: "Q" or the prime p of reduction;
    fold_identified: whether [-1] glued two distinct geometric points.
    """

    component: int
    coords: tuple
    count: int
    degree: int
    width: int
    base: object
    fold_identified: bool

    def geometric_points(self):
        return self.count * self.degree

    def to_json(self):
        return {
            "component": self.component,
            "coords": list(self.coords),
            "count": self.count,
            "degree": self.degree,
            "width": self.width,
            "base": self.base,
            "fold_identified": self.fold_identified,
        }


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


def x1_cusp_points(N):
    """All folded geometric cusp points of X1(N): list of (d, i, b)."""
    return [(d, i, b) for d in divisors(N) for (i, b) in x1_component_points(N, d)]


def _x1_orbits_under(N, d, generators):
    """Galois orbits of folded d-component points under given unit exponents.

    generators act on the mu-coordinate only; returns list of orbits (each a
    sorted list of folded points).
    """
    m = N // d
    pts = x1_component_points(N, d)
    seen = {}
    orbits = []
    for p0 in pts:
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
        for q in orbit:
            seen[q] = True
        orbits.append(sorted(orbit))
    return orbits


def cusp_orbits_X1(N):
    """Galois orbits of cusps of X1(N) over Q, bundled as CuspOrbit records.

    Requires N >= 5 (hypothesis of the cuspidal-subscheme description).
    """
    if N < 5:
        raise ValueError("X1 cusp scheme description requires N >= 5")
    out = []
    for d in divisors(N):
        m = N // d
        orbits = _x1_orbits_under(N, d, units(m))
        by_size = {}
        for orb in orbits:
            by_size.setdefault(len(orb), []).append(orb)
        for size, orbs in sorted(by_size.items()):
            rep = orbs[0][0]
            out.append(
                CuspOrbit(
                    component=d,
                    coords=rep,
                    count=len(orbs),
                    degree=size,
                    width=x1_width(N, d),
                    base="Q",
                    fold_identified=(m > 2 or d > 2),
                )
            )
    return out


def cusp_orbits_X0(N):
    """Galois orbits of cusps of X0(N) over Q."""
    out = []
    for d in divisors(N):
        g = gcd(d, N // d)
        deg = int(totient(g)) if g > 1 else 1
        out.append(
            CuspOrbit(
                component=d,
                coords=(1 if g > 1 else 0, 0),
                count=1,
                degree=deg,
                width=x0_width(N, d),
                base="Q",
                fold_identified=False,
            )
        )
    return out


def cusp_orbits_mod_p(N, kind, p):
    """Cusp places of X1/X0 of level N over F_p, p coprime to 2N.

    kind is "X1" or "X0".  Residue degrees come from the Frobenius
    x -> x^p on the mu-coordinates, with [-1]-folding for X1.
    """
    if not isprime(p):
        raise ValueError(f"{p} is not prime")
    if (2 * N) % p == 0:
        raise ValueError(f"p = {p} must not divide 2N (N = {N})")
    out = []
    if kind == "X1":
        if N < 5:
            raise ValueError("X1 cusp scheme description requires N >= 5")
        for d in divisors(N):
            orbits = _x1_orbits_under(N, d, [p % (N // d) if N // d > 1 else 1])
            by_size = {}
            for orb in orbits:
                by_size.setdefault(len(orb), []).append(orb)
            for size, orbs in sorted(by_size.items()):
                out.append(
                    CuspOrbit(
                        component=d,
                        coords=orbs[0][0],
                        count=len(orbs),
                        degree=size,
                        width=x1_width(N, d),
                        base=p,
                        fold_identified=True,
                    )
                )
    elif kind == "X0":
        for d in divisors(N):
            g = gcd(d, N // d)
            deg = mult_order(p % g, g) if g > 1 else 1
            cnt = (int(totient(g)) if g > 1 else 1) // deg
            out.append(
                CuspOrbit(
                    component=d,
                    coords=(1 if g > 1 else 0, 0),
                    count=cnt,
                    degree=deg,
                    width=x0_width(N, d),
                    base=p,
                    fold_identified=False,
                )
            )
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return out


def galois_act(s, N, points):
    """Permutation induced by sigma_s on folded X1(N) cusp points.

    points is a list of (d, i, b) triples as from x1_cusp_points; s must be
    a unit mod N.  Acts by exponent s on the mu-coordinate, fixes the Z/d
    coordinate, and commutes with the folding.
    """
    if gcd(s, N) != 1:
        raise ValueError(f"{s} is not a unit mod {N}")
    index = {pt: k for k, pt in enumerate(points)}
    perm = []
    for d, i, b in points:
        m = N // d
        img = _fold(((s * i) % m if m > 1 else i, b), m, d)
        perm.append(index[(d, img[0], img[1])])
    return perm


def cusp_count_X1(N):
    """Number of geometric cusps of X1(N) by the standard formula (N >= 5)."""
    if N < 5:
        raise ValueError("formula stated for N >= 5")
    return sum(int(totient(d)) * int(totient(N // d)) for d in divisors(N)) // 2


def cusp_count_X0(N):
    return sum(int(totient(gcd(d, N // d))) for d in divisors(N))


def rational_cusp_count(N, kind, p=None):
    """Number of degree-1 cusp places over Q (p None) or over F_p."""
    orbits = (
        (cusp_orbits_X1(N) if kind == "X1" else cusp_orbits_X0(N))
        if p is None
        else cusp_orbits_mod_p(N, kind, p)
    )
    return sum(o.count for o in orbits if o.degree == 1)


def degree1_count_over_extension(N, kind, p, k):
    """Number of F_{p^k}-rational cusp points of X_kind(N).

    A place of degree e over F_p contributes e points rational over F_{p^e},
    hence over F_{p^k} whenever e | k.
    """
    return sum(
        o.count * o.degree
        for o in cusp_orbits_mod_p(N, kind, p)
        if k % o.degree == 0
    )
