"""Built modular symbol spaces: coordinates, boundary, lattices.

A ModSymSpace carries the solved presentation: its free Manin symbols are
a Z-basis of the symbol lattice (every elimination pivot is +-1, see
presentation.py), so symbol projections are integer vectors and the
lattice is exactly Z^dim.  On that basis it holds the boundary map to the
cusp divisor space, whose rows are the boundaries of the free symbols, the
cuspidal sublattice S = ker(boundary), which is the integral homology
H1(X, Z), and the star-plus sublattice.  All operator matrices produced
from it are integer matrices acting on row vectors: their rows are the
images of the free symbols.

The boundary of a Manin symbol is (head cusp) - (tail cusp), or 0 when the
two cusps agree, so the boundary map is the incidence matrix of a directed
graph on the cusps with one edge per free symbol.  S is that graph's cycle
lattice: `fundamental_cycles` reads a Z-basis of it, already in row
Hermite form, off a spanning forest, with no integer elimination.  S+ is
the saturated kernel of Sigma - I on S's own 2g coordinates, Sigma the
star map restricted to S.
"""

from functools import cached_property

import numpy as np

from ..intlinalg import kernel_basis, transpose, vec_mat
from ..lattice import Lattice
from .groups import GroupData, sl2_lift
from .operators import restrict_to_lattice, star_matrix
from .presentation import solve_presentation

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
        self.group = GroupData(spec)
        self.free_symbols, self.proj = solve_presentation(self.group)
        self.dim = len(self.free_symbols)

        gd = self.group
        self.ncusps = gd.ncusps
        self.cusp_classes = gd.cusp_classes

        # the boundary of free symbol i is edges[i] = (head, tail): the
        # divisor (head) - (tail), zero for a loop head == tail
        self.edges = [self._symbol_edge(i) for i in self.free_symbols]
        # dim x ncusps, integer: the boundaries of the free symbols
        self.boundary = [[(k == head) - (k == tail) for k in range(self.ncusps)]
                         for head, tail in self.edges]
        # S = {v : v @ boundary = 0}; the cycle rows are its Hermite form
        self.cuspidal = Lattice(self.dim, fundamental_cycles(self.edges, self.ncusps),
                                normalize=False)

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

    def _symbol_edge(self, sym_idx):
        """Cusp indices (head, tail) of (gamma oo, gamma 0) for a Manin
        symbol gamma."""
        gd = self.group
        c, d = gd.symbols[sym_idx]
        a, b, c0, d0 = sl2_lift(c, d, self.level)
        return gd.cusp_index_of_fraction(a, c0), gd.cusp_index_of_fraction(b, d0)

    def _symbol_boundary(self, sym_idx):
        """Boundary (gamma oo) - (gamma 0) of a Manin symbol, as divisor."""
        head, tail = self._symbol_edge(sym_idx)
        return [(k == head) - (k == tail) for k in range(self.ncusps)]

    def boundary_image(self, v):
        """v @ boundary, read off the edge list in O(dim)."""
        out = [0] * self.ncusps
        for x, (head, tail) in zip(v, self.edges):
            if x:
                out[head] += x
                out[tail] -= x
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
        so they are computed once per space and freed with it: no memoised
        object refers back to the space, so dropping the space frees it
        by reference counting alone.  The key must name every input the
        object depends on; callers must not mutate what they get back.
        """
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def star_matrix(self):
        return self.memo("star", lambda: star_matrix(self))

    def plus_cuspidal(self):
        """Saturated lattice S+ = cuspidal vectors fixed by the star map.

        With Sigma the 2g x 2g matrix of star on S's basis B, S+ is
        {x B : x (Sigma - I) = 0}; x runs over a saturated kernel and B is a
        Z-basis of the saturated S, so S+ is saturated too.
        """

        def build():
            s = self.cuspidal
            sigma = restrict_to_lattice(self.star_matrix(), s)
            fixed = kernel_basis([
                [x - (1 if i == j else 0) for i, x in enumerate(col)]
                for j, col in enumerate(transpose(sigma))
            ])  # {x : x @ (sigma - I) = 0}
            return Lattice(self.dim, [vec_mat(x, s.basis) for x in fixed])

        return self.memo("plus", build)

    def __repr__(self):
        return f"ModSymSpace({self.spec.label()}, dim {self.dim})"


def fundamental_cycles(edges, nvertices):
    """Z-basis of the cycle lattice {x : x @ incidence = 0} of the directed
    graph with edges[i] = (head, tail), as rows in row Hermite form.

    A spanning forest grows from the last edge to the first (Kruskal's
    order); an edge whose ends the forest already joins is a chord.  The
    row of chord e is its fundamental cycle: +1 at e, and +-1 along the
    forest path from head back to tail, which uses only edges after e.  A
    chord lies in no other cycle, so each row has pivot 1 at its chord and
    every other row is 0 there: the rows, by ascending chord, are their own
    Hermite form.  They span every integer cycle x, since x minus the sum
    of x_e times the cycle of chord e is a cycle on the forest, hence 0.  A
    loop (head == tail) is a chord whose cycle is itself.
    """
    forest = [[] for _ in range(nvertices)]  # (neighbour, edge, sign of the step)
    rows = []
    for e in range(len(edges) - 1, -1, -1):
        head, tail = edges[e]
        path = _forest_path(forest, head, tail)
        if path is None:
            forest[head].append((tail, e, -1))
            forest[tail].append((head, e, 1))
        else:
            row = [0] * len(edges)
            row[e] = 1
            for f, sign in path:
                row[f] = sign
            rows.append(row)
    return rows[::-1]


def _forest_path(forest, a, b):
    """The edges (index, sign) of the forest path from a to b, or None when
    a and b lie in different trees; the sign is +1 where the path runs from
    an edge's tail to its head."""
    back = {a: None}
    stack = [a]
    while stack:
        v = stack.pop()
        if v == b:
            path = []
            while back[v] is not None:
                v, f, sign = back[v]
                path.append((f, sign))
            return path
        for w, f, sign in forest[v]:
            if w not in back:
                back[w] = (v, f, sign)
                stack.append(w)
    return None


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
    if space.cuspidal.rank != 2 * g:
        raise ArithmeticError(f"{spec.label()}: cuspidal rank {space.cuspidal.rank} != 2 g = {2 * g}")
    return space
