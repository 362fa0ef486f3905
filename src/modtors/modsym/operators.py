"""Operators on modular symbol spaces: Hecke, diamond, star, Atkin-Lehner.

Every operator is an int64 array acting on row vectors (v -> v @ M) in
the coordinates of the space, whose basis is the free Manin symbols: row
j is the image of free symbol j, an integer vector, since every operator
below preserves the symbol lattice.  T_n, <u> and W_Q (and star, see
`ModSymSpace.star_matrix`) are memoised on their space as read-only
arrays: writing into one raises ValueError.
Hecke operators use the Merel family X_n acting on Manin symbols by right
multiplication.  T_n, <u> and star map the free symbols to Manin symbols
and gather their rows of the space's projection, all free symbols at once.
"""

from functools import lru_cache
from math import gcd

import numpy as np

from ..intlinalg import check_int64_sum, coordinates, exact_product, max_abs, xgcd
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


def _free_pairs(space):
    """The pairs (c, d) of the free symbols, as two int64 arrays."""
    pairs = np.array(space.group.symbols, dtype=np.int64).reshape(-1, 2)
    return pairs[space.free_symbols].T


def hecke_operator(space, n):
    """The Hecke operator T_n as an integer matrix on the space.

    Row j is the sum over M = (a, b; c', d') in Merel's X_n of the
    projections of the symbols (c a + d c' : c b + d d'), (c : d) free
    symbol j; pairs that are not units mod N contribute zero.
    """

    def build():
        family = merel_family(n)
        proj = space.proj
        check_int64_sum(max_abs(proj), len(family), f"T_{n}")
        c, d = _free_pairs(space)
        out = np.zeros((space.dim, space.dim), dtype=np.int64)
        for a, b, c1, d1 in family:
            idx = space.symbol_indices(c * a + d * c1, c * b + d * d1)
            unit = idx >= 0
            out[unit] += proj[idx[unit]]
        return out

    return space.memo(("T", n), build)


def diamond_operator(space, u):
    """Diamond operator <u>: scaling of symbol pairs by the unit u."""
    nlev = space.level
    if gcd(u, nlev) != 1:
        raise ValueError(f"<{u}>: not a unit mod {nlev}")
    u %= nlev
    return space.memo(("D", u), lambda: _scaled_symbols(space, u, u))


def star_matrix(space):
    """Complex conjugation on symbols: (c, d) -> (-c, d)."""
    return _scaled_symbols(space, -1, 1)


def _scaled_symbols(space, a, b):
    """Rows of the symbol map (c : d) -> (a c : b d) on the free symbols."""
    c, d = _free_pairs(space)
    return space.proj[space.symbol_indices(a * c, b * d)]


def atkin_lehner_matrix_2x2(N, Q):
    """An integral matrix [Qx, y; Nz, Qw] of determinant Q for W_Q."""
    if N % Q != 0:
        raise ValueError(f"W_{Q}: Q must divide N = {N}")
    R = N // Q
    if gcd(Q, R) != 1:
        raise ValueError(f"W_{Q}: Q = {Q} is not an exact divisor of {N}")
    _, s, t = xgcd(Q, R)  # gcd(Q, R) = 1, checked above
    # Q*1*(s) - (N/Q)*(-t)*1 = sQ + tR = 1
    return (Q, -t, N, Q * s)


def atkin_lehner(space, Q):
    """Atkin-Lehner involution W_Q on a Gamma0(N) space (Q || N)."""
    if space.spec.kind != "gamma0":
        raise ValueError("Atkin-Lehner implemented on Gamma0 spaces")
    w = atkin_lehner_matrix_2x2(space.level, Q)
    return space.memo(("W", Q), lambda: gl2q_action(space, w))


def gl2q_action(space, g2):
    """Action of an integer matrix g (det > 0) by pushforward of paths, as
    an int64 array."""
    p, q, r, s = g2
    gd = space.group
    rows = []
    for j in space.free_symbols:
        c, d = gd.symbols[j]
        a, b, c0, d0 = sl2_lift(c, d, space.level)
        # gamma 0 = b/d0, gamma oo = a/c0; push forward through g
        z0 = (p * b + q * d0, r * b + s * d0)
        z1 = (p * a + q * c0, r * a + s * c0)
        rows.append(space.path_vector(z0, z1))
    return np.array(rows, dtype=np.int64).reshape(len(rows), space.dim)


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


def restrict_to_lattice(op_matrix, basis):
    """Matrix of an operator restricted to an invariant lattice, given by
    its basis in row Hermite form (an integer array or row lists).

    Returns the integer array R (int64 where it fits) with R @ basis =
    basis @ op: the `coordinates` of the images of the basis rows.
    ValueError unless op keeps the lattice.
    """
    images = exact_product(basis, op_matrix) if len(basis) else []
    rows = coordinates(images, basis)
    if rows is None:
        raise ValueError("lattice is not invariant under the operator")
    return rows
