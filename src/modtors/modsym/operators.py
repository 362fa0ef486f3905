"""Operators on modular symbol spaces: Hecke, diamond, star, Atkin-Lehner.

All matrices act on row vectors (v -> v @ M) in the integral coordinates of
the space, and are integer matrices there: every operator below preserves
the symbol lattice.  Hecke operators use the Merel family X_n acting on
Manin symbols by right multiplication.
"""

from functools import lru_cache
from math import gcd

from ..intlinalg import mat_mul, vec_mat
from .groups import sl2_lift


# Most Merel families kept in memory: `hecke_operator` asks for small n
# only (the winding sweep of the rank layer does not use them).
MEREL_CACHE_SIZE = 64


@lru_cache(maxsize=MEREL_CACHE_SIZE)
def merel_family(n):
    """Merel's matrices of determinant n ((a, b, c, d) tuples).

    Right multiplication of Manin symbols by this family computes T_n in
    weight 2 for any level; cached since every space asks for the same
    small n.
    """
    out = []
    for a in range(1, n + 1):
        for d in range((n + a - 1) // a, n + 2 - a):
            bc = a * d - n
            if bc == 0:
                for b in range(a):
                    out.append((a, b, 0, d))
                for c in range(1, d):
                    out.append((a, 0, c, d))
            else:
                for b in range((bc - 1) // (d - 1) + 1, a):
                    if bc % b == 0:
                        out.append((a, b, bc // b, d))
    return tuple(out)


class OperatorMatrix:
    """An operator tagged with its space and label; matrix acts on rows."""

    __slots__ = ("space", "label", "matrix")

    def __init__(self, space, label, matrix):
        self.space = space
        self.label = label
        self.matrix = matrix

    def __repr__(self):
        return f"OperatorMatrix({self.label} on {self.space.spec.label()})"

    def __mul__(self, other):
        return OperatorMatrix(
            self.space,
            f"{self.label}*{other.label}",
            mat_mul(self.matrix, other.matrix),
        )

    def __eq__(self, other):
        return isinstance(other, OperatorMatrix) and self.matrix == other.matrix


def _matrix_from_symbol_images(space, images):
    """Matrix (row convention) from images of the working free symbols.

    images[j] = image vector of free symbol j in integral coordinates; the
    integral-basis image is B @ images / den, which must be integral.
    """
    bden = space._pres_den
    rows = []
    for brow in space._pres_basis:
        acc = vec_mat(brow, images)
        assert all(v % bden == 0 for v in acc), "operator leaves the lattice"
        rows.append([v // bden for v in acc])
    return rows


def hecke_images_of_pair(space, c, d, n):
    """Sum of symbol projections of (c, d) . M over Merel's X_n."""
    nlev = space.level
    gd = space.group
    counts = {}
    for a, b, cc, dd in merel_family(n):
        c1 = (c * a + d * cc) % nlev
        d1 = (c * b + d * dd) % nlev
        if gcd(gcd(c1, d1), nlev) != 1:
            continue
        idx = gd.pair_orbit[(c1, d1)]
        counts[idx] = counts.get(idx, 0) + 1
    out = [0] * space.dim
    for idx, cnt in counts.items():
        v = space.proj[idx]
        for k, y in enumerate(v):
            if y:
                out[k] += cnt * y
    return out


def hecke_operator(space, n):
    """The Hecke operator T_n as an integer matrix on the space."""

    def build():
        gd = space.group
        images = [
            hecke_images_of_pair(space, *gd.symbols[j], n) for j in space.free_symbols
        ]
        return OperatorMatrix(space, f"T_{n}", _matrix_from_symbol_images(space, images))

    return space.memo(("T", n), build)


def diamond_operator(space, u):
    """Diamond operator <u>: scaling of symbol pairs by the unit u."""
    nlev = space.level
    if gcd(u, nlev) != 1:
        raise ValueError(f"<{u}>: not a unit mod {nlev}")
    u %= nlev

    def build():
        gd = space.group
        images = []
        for j in space.free_symbols:
            c, d = gd.symbols[j]
            images.append(list(space.symbol_vector(u * c, u * d)))
        return OperatorMatrix(space, f"<{u}>", _matrix_from_symbol_images(space, images))

    return space.memo(("D", u), build)


def star_matrix(space):
    """Complex conjugation on symbols: (c, d) -> (-c, d)."""
    gd = space.group
    images = []
    for j in space.free_symbols:
        c, d = gd.symbols[j]
        images.append(list(space.symbol_vector(-c, d)))
    return _matrix_from_symbol_images(space, images)


def star_involution(space):
    return OperatorMatrix(space, "star", space.star_matrix())


def atkin_lehner_matrix_2x2(N, Q):
    """An integral matrix [Qx, y; Nz, Qw] of determinant Q for W_Q."""
    if N % Q != 0:
        raise ValueError(f"W_{Q}: Q must divide N = {N}")
    R = N // Q
    if gcd(Q, R) != 1:
        raise ValueError(f"W_{Q}: Q = {Q} is not an exact divisor of {N}")
    from ..intlinalg import xgcd

    g, s, t = xgcd(Q, R)
    assert g == 1
    # Q*1*(s) - (N/Q)*(-t)*1 = sQ + tR = 1
    return (Q, -t, N, Q * s)


def atkin_lehner(space, Q):
    """Atkin-Lehner involution W_Q on a Gamma0(N) space (Q || N)."""
    if space.spec.kind != "gamma0":
        raise ValueError("Atkin-Lehner implemented on Gamma0 spaces")
    w = atkin_lehner_matrix_2x2(space.level, Q)
    return space.memo(("W", Q), lambda: OperatorMatrix(space, f"W_{Q}", gl2q_action(space, w)))


def gl2q_action(space, g2):
    """Action of an integer matrix g (det > 0) by pushforward of paths."""
    p, q, r, s = g2
    gd = space.group
    images = []
    for j in space.free_symbols:
        c, d = gd.symbols[j]
        a, b, c0, d0 = sl2_lift(c, d, space.level)
        # gamma 0 = b/d0, gamma oo = a/c0; push forward through g
        z0 = (p * b + q * d0, r * b + s * d0)
        z1 = (p * a + q * c0, r * a + s * c0)
        images.append(space.path_vector(z0, z1))
    return _matrix_from_symbol_images(space, images)


def atkin_lehner_cusp_action(space, Q):
    """Permutation of cusp classes induced by W_Q."""
    p, q, r, s = atkin_lehner_matrix_2x2(space.level, Q)
    gd = space.group
    perm = []
    for idx in range(gd.ncusps):
        c, d = gd.cusp_classes[idx]
        a, b, c0, d0 = sl2_lift(c, d, space.level)
        # the class key stores the bottom row; the cusp itself is a/c0
        num, den = p * a + q * c0, r * a + s * c0
        perm.append(gd.cusp_index_of_fraction(num, den))
    return perm


def restrict_to_lattice(op_matrix, lattice):
    """Matrix of an operator restricted to an invariant saturated lattice.

    Returns the integer matrix R with R @ basis = basis @ op (rows are
    coordinates of the images of the lattice basis).
    """
    rows = []
    for v in lattice.basis:
        coords = lattice.solve(vec_mat(v, op_matrix), lattice.den)
        if coords is None:
            raise ValueError("lattice is not invariant under the operator")
        rows.append(coords)
    return rows
