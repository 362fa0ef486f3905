"""Built modular symbol spaces: coordinates, boundary, lattices.

A ModSymSpace carries the solved presentation: its free Manin symbols,
the chords of a spanning forest of the relation graph, are a Z-basis of
the symbol lattice (see presentation.py), so the symbol projection is one
integer array `proj`, row i the coordinates of symbol i, and the lattice
is exactly Z^dim.
Every operator built from symbols is a gather of rows of `proj`.  On that
basis the space holds the boundary map to the cusp divisor space, as the
edge list below, and the cuspidal sublattice S = ker(boundary), which is
the integral homology H1(X, Z).  All operator
matrices produced from it are integer matrices acting on row vectors:
their rows are the images of the free symbols.  A lattice is its basis in
row Hermite form, one integer array: S is `cuspidal`, 2g x dim, and S+ is
`plus_cuspidal()`, g x 2g in S's coordinates.

The boundary of a Manin symbol is (head cusp) - (tail cusp), or 0 when the
two cusps agree, so the boundary map is the incidence matrix of a directed
graph on the cusps with one edge per free symbol, `edges`, and
`boundary_image` reads products with it off the edges.  S is that graph's
cycle lattice: `fundamental_cycles` reads a Z-basis of it, already in row
Hermite form, off a spanning forest, with no integer elimination; the
presentation's `forest_cycles` grows that forest for both graphs.  S+ is
the saturated kernel of Sigma - I on S's own 2g coordinates, Sigma the
star map restricted to S, and an operator reaches S+ through S
(`restrict_to_cuspidal`, then `restrict_to_lattice`).
"""

import numpy as np

from ..intlinalg import INT64_MAX, coordinates, exact_product, int_array, kernel_basis, max_abs
from .groups import GroupData, sl2_lift
from .operators import star_matrix
from .presentation import forest_cycles, solve_presentation

MAX_SYMBOLS = 60000  # resource guard: refuse absurdly large presentations


class ModSymSpace:
    """Weight-2 modular symbols for a congruence subgroup, on a Z-basis."""

    def __init__(self, spec):
        if isinstance(spec, str):
            raise TypeError("pass a GroupSpec")
        from .groups import num_unit_pairs

        est = num_unit_pairs(spec.level) // max(1, len(spec.hplus()))
        if est > MAX_SYMBOLS:
            raise ResourceWarning(
                f"{spec.label()}: ~{est} Manin symbols exceeds bound {MAX_SYMBOLS}"
            )
        self.spec = spec
        self.group = gd = GroupData(spec)
        self.free_symbols, self.proj = solve_presentation(gd)  # nsym x dim int64
        self.dim = len(self.free_symbols)
        # symbol index of the unit pair (c, d) mod N at position c N + d,
        # -1 at pairs that are not units
        n = spec.level
        self._pair_table = np.full(n * n, -1, dtype=np.int64)
        self._pair_table[[c * n + d for c, d in gd.pair_orbit]] = list(gd.pair_orbit.values())

        self.ncusps = gd.ncusps
        self.cusp_classes = gd.cusp_classes

        # the boundary of free symbol i is edges[i] = (head, tail): the
        # divisor (head) - (tail), zero for a loop head == tail; dim x 2,
        # int64 and read-only, the only stored form of the boundary map
        edges = [self._symbol_edge(i) for i in self.free_symbols]
        self.edges = np.array(edges, dtype=np.int64).reshape(self.dim, 2)
        self.edges.setflags(write=False)
        # S = {v : v @ boundary = 0}: the cycle basis B, its Hermite form,
        # 2g x dim, int64 and read-only
        cycles = fundamental_cycles(edges, self.ncusps)
        self.cuspidal = np.array(cycles, dtype=np.int64).reshape(len(cycles), self.dim)
        self.cuspidal.setflags(write=False)

        self._memo = {}  # derived objects, see memo()

    # -- basic data ---------------------------------------------------------

    @property
    def level(self):
        return self.spec.level

    def genus(self):
        return self.group.genus()

    def symbol_indices(self, c, d):
        """Symbol indices of the pairs (c[i], d[i]) mod N (integer arrays of
        any sign, or scalars), -1 where a pair is not a unit."""
        n = self.level
        return self._pair_table[np.asarray(c) % n * n + np.asarray(d) % n]

    def _symbol_edge(self, sym_idx):
        """Cusp indices (head, tail) of (gamma oo, gamma 0) for a Manin
        symbol gamma."""
        gd = self.group
        c, d = gd.symbols[sym_idx]
        a, b, c0, d0 = sl2_lift(c, d, self.level)
        return gd.cusp_index_of_fraction(a, c0), gd.cusp_index_of_fraction(b, d0)

    def boundary_image(self, rows):
        """rows @ boundary, for one vector or a 2-d batch of rows, read off
        the edge list: each x_e goes to its head cusp and leaves its tail.
        Every partial sum at a cusp has at most two terms +-x_e per edge (a
        loop gives both), so it is at most 2 dim max |x|: the result is an
        int64 array while that fits, else an object array of Python ints."""
        rows = int_array(rows)
        if rows.dtype != object and 2 * self.dim * max_abs(rows) > INT64_MAX:
            rows = rows.astype(object)
        out = np.zeros((self.ncusps, *rows.shape[:-1]), dtype=rows.dtype)
        np.add.at(out, self.edges[:, 0], rows.T)
        np.subtract.at(out, self.edges[:, 1], rows.T)
        return out.T

    # -- paths --------------------------------------------------------------

    def path_vector(self, alpha, beta):
        """Modular symbol {alpha, beta} as a coordinate vector (int64).

        alpha, beta are cusps given as (numerator, denominator) pairs with
        denominator 0 meaning infinity.  {alpha, beta} = {oo, beta} -
        {oo, alpha}, each the sum of the rows of `proj` on its path: a
        path has O(log den) symbols and the rows have entries in
        {-1, 0, 1}, so the int64 sums are exact.
        """
        ends = []
        for num, den in (beta, alpha):
            if den < 0:
                num, den = -num, -den
            idx = self.path_symbols([num % den], [den])[0] if den else []
            ends.append(self.proj[idx].sum(axis=0))
        return ends[0] - ends[1]

    def path_symbols(self, residues, dens):
        """Symbol indices on the paths {oo, b/den}, one path per lane
        (b, den) = (residues[i], dens[i]) with 0 <= b < den; every symbol
        has coefficient 1.  Returns (symbols, lanes): the symbol indices of
        all paths, concatenated, and the lane of each.

        The path from oo to b/den runs through the convergents p_k/q_k of
        its continued fraction; its Manin symbols are (-1 : 0) and
        ((-1)^(k+1) q_k : q_(k-1)) for k >= 1.  They depend on the cusp
        only through its denominator and its numerator mod den, so all
        lanes are walked together, one Euclid step per round.
        """
        top = np.asarray(dens, dtype=np.int64)
        rest = np.asarray(residues, dtype=np.int64)
        lane = np.arange(len(rest))
        q_prev = np.zeros(len(rest), dtype=np.int64)
        q_cur = np.ones(len(rest), dtype=np.int64)
        symbols, lanes = [self.symbol_indices(-q_cur, q_prev)], [lane]
        sign = 1
        while True:
            live = rest != 0
            if not live.any():
                return np.concatenate(symbols), np.concatenate(lanes)
            top, rest, q_prev, q_cur, lane = (
                top[live], rest[live], q_prev[live], q_cur[live], lane[live])
            quot, rem = np.divmod(top, rest)
            q_prev, q_cur = q_cur, quot * q_cur + q_prev
            symbols.append(self.symbol_indices(sign * q_cur, q_prev))
            lanes.append(lane)
            sign = -sign
            top, rest = rest, rem

    # -- derived objects ----------------------------------------------------

    def memo(self, key, build):
        """The derived object under key, built by build() on first use.

        Operators, class groups and kernel lattices of the level live here,
        so they are computed once per space and freed with it: no memoised
        object refers back to the space, so dropping the space frees it
        by reference counting alone.  The key must name every input the
        object depends on; callers must not mutate what they get back, and
        an array is stored read-only, so writing into it raises ValueError.
        """
        if key not in self._memo:
            obj = build()
            if isinstance(obj, np.ndarray):
                obj.setflags(write=False)
            self._memo[key] = obj
        return self._memo[key]

    def star_matrix(self):
        return self.memo("star", lambda: star_matrix(self))

    def cuspidal_coordinates(self, rows):
        """Coordinates over B of rows in S, an integer array (int64 where
        it fits): `coordinates` over the cycle basis, whose unit pivots at
        the chords (see `fundamental_cycles`) make it a gather and one
        exact product.  ValueError if a row is not in S."""
        x = coordinates(rows, self.cuspidal)
        if x is None:
            raise ValueError("a row is not in the cuspidal lattice S")
        return x

    def restrict_to_cuspidal(self, op):
        """R with R B = B op, as `exact_product` gives it; ValueError unless
        op keeps S."""
        return self.cuspidal_coordinates(exact_product(self.cuspidal, op))

    def plus_cuspidal(self):
        """The saturated lattice S+ of cuspidal vectors fixed by the star
        map, in S's coordinates: a g x 2g integer array P in row Hermite
        form, so that S+ = {x P B : x integer}.

        With Sigma the 2g x 2g matrix of star on S's basis B, P is the
        `kernel_basis` of (Sigma - I)^T, {x : x (Sigma - I) = 0}, which is
        saturated and already Hermite; B is a Z-basis of the saturated S,
        so S+ is saturated too.
        """

        def build():
            sigma_t = self.restrict_to_cuspidal(self.star_matrix()).T.tolist()
            for i, row in enumerate(sigma_t):
                row[i] -= 1
            fixed = kernel_basis(sigma_t)  # {x : x @ (sigma - I) = 0}
            return int_array(fixed).reshape(len(fixed), len(self.cuspidal))

        return self.memo("plus", build)

    def __repr__(self):
        return f"ModSymSpace({self.spec.label()}, dim {self.dim})"


def fundamental_cycles(edges, nvertices):
    """Z-basis of the cycle lattice {x : x @ incidence = 0} of the directed
    graph with edges[i] = (head, tail), as rows in row Hermite form.

    The spanning forest grows from the last edge to the first (see
    `forest_cycles`), so the cycle of chord e uses only edges after e.  A
    chord lies in no other cycle, so each row has pivot 1 at its chord and
    every other row is 0 there: the rows, by ascending chord, are their own
    Hermite form.  They span every integer cycle x, since x minus the sum
    of x_e times the cycle of chord e is a cycle on the forest, hence 0.
    """
    rows = []
    for _, cycle in forest_cycles(edges, range(len(edges) - 1, -1, -1), nvertices):
        row = [0] * len(edges)
        for e, sign in cycle:
            row[e] = sign
        rows.append(row)
    return rows[::-1]


# Always empty: the benchmark's fresh-process guard (bench/child.py) reads
# it.  A space is owned by its caller, and its memo dies with it.
_SPACE_CACHE = {}


def build_space(spec):
    """Build the space for spec and check its dimension identities."""
    space = ModSymSpace(spec)
    # dimension identity: dim = 2 g + #cusps - 1
    g = space.genus()
    if space.dim != 2 * g + space.ncusps - 1:
        raise ArithmeticError(f"{spec.label()}: dim {space.dim} != 2 g + c - 1 "
                              f"with g = {g}, c = {space.ncusps}")
    if len(space.cuspidal) != 2 * g:
        raise ArithmeticError(f"{spec.label()}: cuspidal rank {len(space.cuspidal)} != 2 g = {2 * g}")
    return space
