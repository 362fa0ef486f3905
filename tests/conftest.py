from math import gcd, isqrt

import numpy as np
from sympy import divisors, totient

from modtors.abgroup import FinAbGroup
from modtors.arith import factorint


def curve11_ap(p):
    """a_p of the level-11 elliptic curve y^2 + y = x^3 - x^2 - 10x - 20
    by direct point counting over F_p."""
    count = 1  # infinity
    for x in range(p):
        for y in range(p):
            if (y * y + y - (x**3 - x * x - 10 * x - 20)) % p == 0:
                count += 1
    return p + 1 - count


def cusp_count_X1(N):
    """Number of geometric cusps of X1(N) by the standard formula (N >= 5)."""
    if N < 5:
        raise ValueError("formula stated for N >= 5")
    return sum(int(totient(d)) * int(totient(N // d)) for d in divisors(N)) // 2


def cusp_count_X0(N):
    """Number of cusps of X0(N): sum over d | N of phi(gcd(d, N/d))."""
    return sum(int(totient(gcd(d, N // d))) for d in divisors(N))


def boundary_matrix(space):
    """The boundary map of a space as its dense dim x c incidence matrix,
    built from the edge list: row e is (head) - (tail) of edge e, zero for a
    loop.  The oracle of `ModSymSpace.boundary_image`."""
    out = np.zeros((space.dim, space.ncusps), dtype=np.int64)
    for e, (head, tail) in enumerate(space.edges.tolist()):
        out[e, head] += 1
        out[e, tail] -= 1
    return out


def orbit_partition(perms, n):
    """The orbit label of each of 0..n-1 under the permutations perms, by
    a breadth-first walk per orbit, orbits numbered by their least point:
    the former walk of `jacobian`, kept as an oracle of `arith.orbits`."""
    label = [None] * n
    nxt = 0
    for start in range(n):
        if label[start] is not None:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for p in perms:
                y = p[x]
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        for x in orbit:
            label[x] = nxt
        nxt += 1
    return label


# The former folds of Lattice.preimage behind the Hecke bound M_H and the
# cuspidal class lattices, kept as the oracles of intlinalg.kernel_mod.


def kernel_lattice_fold(space, primes):
    """M_H as (1/m) Z^(2g) pulled back to Z^(2g) under each A_q and under
    star - 1, m the gcd of the det A_q."""
    from modtors import jacobian
    from modtors.intlinalg import det_bareiss, identity
    from modtors.lattice import Lattice
    from modtors.modsym import restrict_to_lattice

    ops = [jacobian.frobenius_kill_operator(space, q) for q in primes]
    star = restrict_to_lattice(space.star_matrix(), space.cuspidal)
    for i, row in enumerate(star):
        row[i] -= 1
    std = Lattice(len(space.cuspidal), identity(len(space.cuspidal)))
    lat = Lattice(std.ambient, std.basis, gcd(*map(det_bareiss, ops)))
    for a in ops + [star]:
        lat = lat.preimage(a, std)
    return lat


def class_lattice_folds(space):
    """(principal divisors, divisors with Galois-invariant class) in the
    divisor coordinates of `cuspidal_class_group`."""
    from modtors import jacobian
    from modtors.intlinalg import identity
    from modtors.lattice import Lattice

    proj = jacobian._projector(space)
    c, g2 = len(proj.phi) + 1, len(proj.phi[0])
    target = Lattice(g2, [[proj.den if i == j else 0 for j in range(g2)] for i in range(g2)])
    l_prin = Lattice(c - 1, identity(c - 1)).preimage(proj.phi, target)
    lam_div = Lattice(c - 1, identity(c - 1))
    for s in jacobian.unit_group_gens(space.level):
        perm = jacobian.galois_cusp_permutation(space, s)
        lam_div = lam_div.preimage(_perm_minus_one_matrix(perm, c), l_prin)
    return l_prin, lam_div


def _perm_minus_one_matrix(perm, c):
    """(P_sigma - 1) on Div^0 in the d_i = e_i - e_{c-1} coordinates."""
    out = [[0] * (c - 1) for _ in range(c - 1)]
    last = perm[c - 1]
    for i in range(c - 1):
        j = perm[i]
        if j < c - 1:
            out[i][j] += 1
        if last < c - 1:
            out[i][last] -= 1
        out[i][i] -= 1
    return out


# Long-Weierstrass arithmetic over F_q, vectorized over code arrays: the
# generic chord-and-tangent law, once the route of the `ecff` Tate scans,
# kept as the oracle of their Tate-curve ladder and closed-form discriminant.


def discriminant(f, coeffs):
    """Discriminant of y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6.

    coeffs = (a1, a2, a3, a4, a6) are codes or arrays of codes; the result
    broadcasts over them.
    """
    a1, a2, a3, a4, a6 = coeffs
    b2 = f.add(f.mul(a1, a1), f.smul(4, a2))
    b4 = f.add(f.smul(2, a4), f.mul(a1, a3))
    b6 = f.add(f.mul(a3, a3), f.smul(4, a6))
    b8 = f.add(
        f.sub(
            f.add(f.mul(f.mul(a1, a1), a6), f.smul(4, f.mul(a2, a6))),
            f.mul(a1, f.mul(a3, a4)),
        ),
        f.sub(f.mul(a2, f.mul(a3, a3)), f.mul(a4, a4)),
    )
    d = f.neg(f.mul(f.mul(b2, b2), b8))
    d = f.sub(d, f.smul(8, f.mul(b4, f.mul(b4, b4))))
    d = f.sub(d, f.smul(27, f.mul(b6, b6)))
    d = f.add(d, f.smul(9, f.mul(b2, f.mul(b4, b6))))
    return d


def _add_points(f, coeffs, x1, y1, i1, x2, y2, i2):
    """P1 + P2, lane by lane, on the curve with coefficient codes coeffs.

    Points are code arrays x, y with boolean infinity flags i; a point at
    infinity has x = y = 0.  a6 does not enter the addition law.
    """
    a1, a2, a3, a4, _ = coeffs
    neg_y2 = f.sub(f.neg(y2), f.add(f.mul(a1, x2), a3))
    xeq = x1 == x2
    is_inv = xeq & (y1 == neg_y2) & ~i1 & ~i2
    dbl = xeq & ~is_inv & ~i1 & ~i2
    # doubling slope: (3x^2 + 2 a2 x + a4 - a1 y) / (2y + a1 x + a3)
    num_dbl = f.sub(
        f.add(f.smul(3, f.mul(x1, x1)), f.add(f.smul(2, f.mul(a2, x1)), a4)),
        f.mul(a1, y1),
    )
    den_dbl = f.add(f.smul(2, y1), f.add(f.mul(a1, x1), a3))
    num = np.where(dbl, num_dbl, f.sub(y2, y1))
    den = np.where(dbl, den_dbl, f.sub(x2, x1))
    # den is zero only on lanes whose sum is replaced below; inv(0) = 0
    lam = f.mul(num, f.inv(den))
    x3 = f.sub(f.add(f.mul(lam, lam), f.mul(a1, lam)), f.add(a2, f.add(x1, x2)))
    y3 = f.sub(f.mul(lam, f.sub(x1, x3)), f.add(y1, f.add(f.mul(a1, x3), a3)))
    out_inf = (i1 & i2) | is_inv
    ox = np.where(i1, x2, np.where(i2, x1, x3))
    oy = np.where(i1, y2, np.where(i2, y1, y3))
    return np.where(out_inf, 0, ox), np.where(out_inf, 0, oy), out_inf


def _multiple(f, coeffs, x, y, inf, m):
    """m * P for m >= 1, lane by lane, by double-and-add."""
    acc = None
    base = (x, y, inf)
    while True:
        if m & 1:
            acc = base if acc is None else _add_points(f, coeffs, *acc, *base)
        m >>= 1
        if not m:
            return acc
        base = _add_points(f, coeffs, *base, *base)


# Single-curve group structures over F_q by enumeration, once
# `ecff.group_structure`: the oracle of the Tate scans and of criterion 13.


def scalar(f, value):
    """Code in the field f of an integer (taken mod p) or of a coefficient
    sequence c_0, c_1, ... of length at most k (constant term first)."""
    if isinstance(value, (int, np.integer)):
        return int(value) % f.p
    value = [int(v) % f.p for v in value]
    if len(value) > f.k:
        raise ValueError(f"more than {f.k} coefficients")
    return sum(c * f.p**i for i, c in enumerate(value))


def curve_points(f, coeffs):
    """All affine points (x, y) over the field f of the long Weierstrass
    curve with coeffs (a1, a2, a3, a4, a6), each an integer or coefficient
    tuple, as code arrays."""
    a1, a2, a3, a4, a6 = (scalar(f, c) for c in coeffs)
    xs = np.repeat(np.arange(f.q, dtype=np.int16), f.q)
    ys = np.tile(np.arange(f.q, dtype=np.int16), f.q)
    lhs = f.add(f.mul(ys, ys), f.add(f.mul(a1, f.mul(xs, ys)), f.mul(a3, ys)))
    rhs = f.add(
        f.mul(xs, f.mul(xs, xs)),
        f.add(f.mul(a2, f.mul(xs, xs)), f.add(f.mul(a4, xs), a6)),
    )
    on = lhs == rhs
    return xs[on], ys[on]


def group_structure(q, coeffs):
    """Group invariants of E(F_q), E the long Weierstrass curve with coeffs
    (a1, a2, a3, a4, a6): its points are enumerated and the l-power torsion
    counted by double-and-add for each prime l dividing the order."""
    from modtors.ecff import finite_field

    f = finite_field(q)
    coded = tuple(scalar(f, c) for c in coeffs)
    if discriminant(f, coded) == 0:
        raise ValueError("singular curve")
    xs, ys = curve_points(f, coeffs)
    n = len(xs) + 1
    if not (q + 1 - isqrt(4 * q) <= n <= q + 1 + isqrt(4 * q)):
        raise ArithmeticError("point count outside Hasse interval")
    at_infinity = np.zeros(len(xs), dtype=bool)
    a_part, b_part = 1, 1
    for ell, v_n in factorint(n).items():
        # E[l^j] has l^(min(j, alpha) + min(j, beta)) points with
        # alpha <= beta the l-valuations of the invariants; alpha is the
        # largest j with a full l^(2j) of l^j-torsion
        alpha = 0
        for j in range(1, v_n // 2 + 1):
            killed = _multiple(f, coded, xs, ys, at_infinity, ell**j)[2]
            if int(killed.sum()) + 1 == ell ** (2 * j):
                alpha = j
            else:
                break
        a_part *= ell**alpha
        b_part *= ell ** (v_n - alpha)
    if (q - 1) % a_part:
        raise ArithmeticError("first invariant must divide q - 1")
    return FinAbGroup([x for x in (a_part, b_part) if x > 1])


# Subgroup embedding of finite abelian groups and the largest group embedding
# in all of several, once `FinAbGroup.embeds_in` and `abgroup.abgroup_gcd`.


def prime_exponents(group):
    """dict p -> descending exponent tuple of the p-part cyclic factors."""
    out = {}
    for n in group.invariants:
        for p, e in factorint(n).items():
            out.setdefault(p, []).append(e)
    return {p: tuple(sorted(v, reverse=True)) for p, v in out.items()}


def embeds_in(a, b):
    """Whether the group a embeds in the group b.

    For abelian p-groups with exponent tuples a1 >= a2 >= ... and
    b1 >= b2 >= ..., an embedding exists iff ai <= bi for all i; this is
    checked prime by prime.
    """
    theirs = prime_exponents(b)
    for p, exps in prime_exponents(a).items():
        o = theirs.get(p, ())
        if len(exps) > len(o) or any(x > y for x, y in zip(exps, o)):
            return False
    return True


def abgroup_gcd(groups):
    """Largest abelian group embedding in every input group.

    Computed per prime: the j-th largest p-exponent of the result is the
    minimum over inputs of their j-th largest p-exponent (subgroup-embedding
    criterion for abelian p-groups).
    """
    counts = [prime_exponents(g) for g in groups]
    if not counts:
        raise ValueError("empty input")
    factors = []
    for p in set(counts[0]).intersection(*counts[1:]):
        tuples = [c[p] for c in counts]
        for j in range(min(map(len, tuples))):
            factors.append(p ** min(t[j] for t in tuples))
    return FinAbGroup(factors)
