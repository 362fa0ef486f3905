"""Built modular symbol spaces: integral coordinates, boundary, lattices.

A ModSymSpace carries the solved presentation on an integral basis (the
symbol lattice is exactly Z^dim), the boundary map to the cusp divisor
space, the cuspidal sublattice S = ker(boundary), the integral homology
(S itself, already saturated), and the star-plus sublattice.  All operator
matrices produced from it are integer matrices acting on row vectors.
"""

from functools import cached_property

import numpy as np

from ..intlinalg import kernel_basis, transpose, vec_mat
from ..lattice import Lattice
from .groups import GroupData, sl2_lift
from .presentation import Presentation

MAX_SYMBOLS = 60000  # resource guard: refuse absurdly large presentations


class ModSymSpace:
    """Weight-2 modular symbols for a congruence subgroup, on a Z-basis."""

    def __init__(self, spec, max_symbols=MAX_SYMBOLS):
        if isinstance(spec, str):
            raise TypeError("pass a GroupSpec")
        from .groups import num_unit_pairs

        est = num_unit_pairs(spec.level) // max(1, len(spec.hplus()) // 1)
        if est > max_symbols:
            raise ResourceWarning(
                f"{spec.label()}: ~{est} Manin symbols exceeds bound {max_symbols}"
            )
        self.spec = spec
        self.group = GroupData(spec)
        pres = Presentation(self.group)
        self.dim = pres.dim
        self.proj = pres.proj  # symbol index -> integer coordinate vector
        self.free_symbols = pres.free
        self._pres_basis = pres.lattice_basis
        self._pres_den = pres.lattice_den

        gd = self.group
        self.ncusps = gd.ncusps
        self.cusp_classes = gd.cusp_classes

        # boundary of the working free symbols, then of the integral basis
        bnd_free = [self._symbol_boundary(i) for i in pres.free]
        den = pres.lattice_den
        boundary = []
        for row in pres.lattice_basis:
            acc = vec_mat(row, bnd_free)
            assert all(v % den == 0 for v in acc), "non-integral boundary"
            boundary.append([v // den for v in acc])
        self.boundary = boundary  # dim x ncusps, integer

        s_rows = kernel_basis(transpose(boundary))  # {v : v @ boundary = 0}
        self.cuspidal = Lattice.from_rows(s_rows, ambient=self.dim) if s_rows else Lattice(self.dim, [])
        self.genus_from_dim = (self.dim - (gd.ncusps - 1)) // 2 if self.dim else 0
        # integral homology H1(X, Z) = cuspidal part of the symbol lattice
        self.homology = self.cuspidal

        self._memo = {}  # derived objects, see memo()

    # -- basic data ---------------------------------------------------------

    @property
    def level(self):
        return self.spec.level

    def genus(self):
        return self.group.genus()

    def symbol_vector(self, c, d):
        """Projection of the Manin symbol (c : d) onto the basis."""
        n = self.level
        return self.proj[self.group.pair_orbit[(c % n, d % n)]]

    @cached_property
    def proj_support(self):
        """The nonzero entries (k, y) of each symbol projection."""
        return [[(k, y) for k, y in enumerate(row) if y] for row in self.proj]

    @cached_property
    def _pair_table(self):
        """Symbol index of the unit pair (c, d) mod N at position c N + d
        (-1 at pairs that are not units)."""
        n = self.level
        table = np.full(n * n, -1, dtype=np.int64)
        for (c, d), idx in self.group.pair_orbit.items():
            table[c * n + d] = idx
        return table

    def symbol_indices(self, c, d):
        """Symbol indices of the unit pairs (c[i], d[i]) mod N (integer
        arrays of any sign)."""
        n = self.level
        return self._pair_table[np.asarray(c) % n * n + np.asarray(d) % n]

    def winding_element(self):
        """The class of the path {0, oo}: the Manin symbol of the identity."""
        return list(self.symbol_vector(0, 1))

    def _symbol_boundary(self, sym_idx):
        """Boundary (gamma oo) - (gamma 0) of a Manin symbol, as divisor."""
        gd = self.group
        c, d = gd.symbols[sym_idx]
        a, b, c0, d0 = sl2_lift(c, d, self.level)
        out = [0] * gd.ncusps
        out[gd.cusp_index_of_fraction(a, c0)] += 1
        out[gd.cusp_index_of_fraction(b, d0)] -= 1
        return out

    # -- paths --------------------------------------------------------------

    def path_vector(self, alpha, beta):
        """Modular symbol {alpha, beta} as a coordinate vector.

        alpha, beta are cusps given as (numerator, denominator) pairs with
        denominator 0 meaning infinity.
        """
        out = [0] * self.dim
        for x, s in ((beta, 1), (alpha, -1)):
            for v, coef in self._path_from_infinity(x):
                if s == 1:
                    for j, y in enumerate(v):
                        out[j] += coef * y
                else:
                    for j, y in enumerate(v):
                        out[j] -= coef * y
        return out

    def _path_from_infinity(self, cusp):
        """{oo, cusp} as a list of (symbol projection vector, coefficient)."""
        num, den = cusp
        if den == 0:
            return []
        if den < 0:
            num, den = -num, -den
        symbols = self.path_symbols([num % den], den).tolist()
        return [(self.proj[i], 1) for i in symbols]

    def path_symbols(self, residues, den):
        """Symbol indices on the paths {oo, b/den}, for each b in residues
        (0 <= b < den), concatenated; every symbol has coefficient 1.

        The path from oo to b/den runs through the convergents p_k/q_k of
        its continued fraction; its Manin symbols are (-1 : 0) and
        ((-1)^(k+1) q_k : q_(k-1)) for k >= 1.  They depend on the cusp
        only through its denominator and its numerator mod den, so the
        paths of all residues are walked together, one Euclid step per
        round.
        """
        top = np.full(len(residues), den, dtype=np.int64)
        rest = np.asarray(residues, dtype=np.int64)
        q_prev = np.zeros(len(rest), dtype=np.int64)
        q_cur = np.ones(len(rest), dtype=np.int64)
        out = [self.symbol_indices(-q_cur, q_prev)]
        sign = 1
        while True:
            live = rest != 0
            if not live.any():
                return np.concatenate(out)
            top, rest, q_prev, q_cur = top[live], rest[live], q_prev[live], q_cur[live]
            quot, rem = np.divmod(top, rest)
            q_prev, q_cur = q_cur, quot * q_cur + q_prev
            out.append(self.symbol_indices(sign * q_cur, q_prev))
            sign = -sign
            top, rest = rest, rem

    # -- derived objects ----------------------------------------------------

    def memo(self, key, build):
        """The derived object under key, built by build() on first use.

        Operators, class groups and kernel lattices of the level live here,
        so they are computed once per space and freed with it.  The key
        must name every input the object depends on; callers must not
        mutate what they get back.
        """
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def star_matrix(self):
        from .operators import star_matrix

        return self.memo("star", lambda: star_matrix(self))

    def plus_cuspidal(self):
        """Saturated lattice S+ = cuspidal vectors fixed by the star map."""

        def build():
            star = self.star_matrix()
            stacked = [
                row_b + [x - (1 if i == j else 0) for j, x in enumerate(row_s)]
                for i, (row_b, row_s) in enumerate(zip(self.boundary, star))
            ]
            rows = kernel_basis(transpose(stacked))
            return Lattice.from_rows(rows, ambient=self.dim) if rows else Lattice(self.dim, [])

        return self.memo("plus", build)

    def __repr__(self):
        return f"ModSymSpace({self.spec.label()}, dim {self.dim})"


_SPACE_CACHE = {}


def build_space(spec, cache=True, max_symbols=MAX_SYMBOLS):
    """Build the space for spec, going through the in-process cache (keyed
    by kind, level and H generators)."""
    key = (spec.kind, spec.level, spec.h_gens)
    if cache and key in _SPACE_CACHE:
        return _SPACE_CACHE[key]
    space = ModSymSpace(spec, max_symbols=max_symbols)
    # dimension identity: dim = 2 g + #cusps - 1
    g = space.genus()
    assert space.dim == 2 * g + space.ncusps - 1, (
        spec.label(),
        space.dim,
        g,
        space.ncusps,
    )
    assert space.cuspidal.rank == 2 * g
    if cache:
        _SPACE_CACHE[key] = space
    return space


def clear_space_cache():
    """Drop the cached spaces; their operators, class groups and kernel
    lattices go with them."""
    _SPACE_CACHE.clear()
