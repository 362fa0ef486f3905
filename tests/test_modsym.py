import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from sympy import primefactors

from conftest import curve11_ap, cusp_count_X0, cusp_count_X1
from modtors.intlinalg import (
    exact_product,
    hnf,
    identity,
    kernel_basis,
    transpose,
    vec_gcd,
    xgcd,
)
from modtors.lattice import Lattice
from modtors.modsym import (
    GroupSpec,
    atkin_lehner,
    atkin_lehner_cusp_action,
    build_space,
    diamond_operator,
    hecke_operator,
    merel_family,
    restrict_to_lattice,
)
from modtors.modsym.groups import GroupData, sl2_lift
from modtors.modsym.operators import atkin_lehner_matrix_2x2
from modtors.modsym.presentation import sigma_pairing, solve_presentation
from modtors.modsym import space as space_module
from modtors.modsym.space import ModSymSpace, fundamental_cycles


@pytest.mark.parametrize(
    "spec,genus,ncusps",
    [
        (GroupSpec.gamma0(11), 1, 2),
        (GroupSpec.gamma0(30), 3, 8),
        (GroupSpec.gamma0(45), 3, None),
        (GroupSpec.gamma0(65), 5, 4),
        (GroupSpec.gamma0(121), 6, 12),
        (GroupSpec.gamma1(21), 5, None),
        (GroupSpec.gamma1(22), 6, None),
        (GroupSpec.gamma1(25), 12, None),
        (GroupSpec.gamma1(28), 10, None),
        (GroupSpec.x1_2_2n(8), 5, None),
        (GroupSpec.x1_2_2n(9), 7, None),
        (GroupSpec.gammaH(45, (1, 4, 16, 19, 31, 34)), 5, None),
    ],
)
def test_genus_and_dimension_identity(spec, genus, ncusps):
    sp = build_space(spec)
    assert sp.genus() == genus
    assert sp.dim == 2 * genus + sp.ncusps - 1
    if ncusps is not None:
        assert sp.ncusps == ncusps


@pytest.mark.parametrize("n", range(1, 40))
def test_cusp_counts_match_formulas(n):
    sp0 = build_space(GroupSpec.gamma0(n))
    assert sp0.ncusps == cusp_count_X0(n)
    if n >= 5:
        sp1 = build_space(GroupSpec.gamma1(n))
        assert sp1.ncusps == cusp_count_X1(n)


def _symbol_boundary(sp, idx):
    """Boundary (gamma oo) - (gamma 0) of the Manin symbol idx, as divisor."""
    head, tail = sp._symbol_edge(idx)
    return [(k == head) - (k == tail) for k in range(sp.ncusps)]


def test_boundary_consistency():
    # the boundary of a symbol equals the boundary map applied to its
    # projection, for every Manin symbol
    for spec in (GroupSpec.gamma0(24), GroupSpec.gamma1(13)):
        sp = build_space(spec)
        via = exact_product(sp.proj, sp.boundary).tolist()
        for idx in range(sp.group.nsym):
            assert _symbol_boundary(sp, idx) == via[idx]


def test_path_vector_boundary():
    sp = build_space(GroupSpec.gamma1(15))
    rng = random.Random(7)
    for _ in range(20):
        a, b = rng.randint(-30, 30), rng.randint(1, 30)
        c, d = rng.randint(-30, 30), rng.randint(1, 30)
        v = sp.path_vector((a, b), (c, d))
        bnd = exact_product(v, sp.boundary).tolist()
        expect = [0] * sp.ncusps
        expect[sp.group.cusp_index_of_fraction(c, d)] += 1
        expect[sp.group.cusp_index_of_fraction(a, b)] -= 1
        assert bnd == expect


def test_gamma0_11_hecke_eigenvalues():
    sp = build_space(GroupSpec.gamma0(11))
    assert hecke_operator(sp, 1).tolist() == identity(3)
    t2 = restrict_to_lattice(hecke_operator(sp, 2), sp.cuspidal)
    assert t2.tolist() == [[-2, 0], [0, -2]]
    t3 = restrict_to_lattice(hecke_operator(sp, 3), sp.cuspidal)
    assert t3.tolist() == [[-1, 0], [0, -1]]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_hecke_commutativity(p):
    sp = build_space(GroupSpec.gamma1(14))
    a = hecke_operator(sp, 2)
    b = hecke_operator(sp, p)
    assert np.array_equal(a @ b, b @ a)


@pytest.mark.parametrize(
    "spec,p",
    [
        (GroupSpec.gamma0(33), 2),
        (GroupSpec.gamma1(13), 2),
        (GroupSpec.gamma1(13), 3),
        (GroupSpec.gamma1(20), 3),
        (GroupSpec.x1_2_2n(5), 3),
    ],
)
def test_hecke_square_recursion(spec, p):
    # T_{p^2} = T_p^2 - p <p> on weight-2 spaces
    sp = build_space(spec)
    tp = hecke_operator(sp, p)
    tp2 = hecke_operator(sp, p * p)
    dp = diamond_operator(sp, p)
    assert np.array_equal(tp2, tp @ tp - p * dp)


def test_hecke_multiplicativity():
    sp = build_space(GroupSpec.gamma1(13))
    t6 = hecke_operator(sp, 6)
    t2 = hecke_operator(sp, 2)
    t3 = hecke_operator(sp, 3)
    assert np.array_equal(t6, t2 @ t3)


def test_memoised_operators_are_read_only():
    sp = build_space(GroupSpec.gamma0(65))
    for op in (hecke_operator(sp, 2), diamond_operator(sp, 2), sp.star_matrix(),
               atkin_lehner(sp, 5), sp.cuspidal, sp.plus_cuspidal()):
        assert op.dtype == np.int64
        with pytest.raises(ValueError):
            op[0, 0] += 1
    assert hecke_operator(sp, 2) is hecke_operator(sp, 2)


def test_diamond_properties():
    sp = build_space(GroupSpec.gamma0(20))
    for d in (3, 7, 9):
        assert diamond_operator(sp, d).tolist() == identity(sp.dim)
    sp13 = build_space(GroupSpec.gamma1(13))
    with pytest.raises(ValueError):
        diamond_operator(sp13, 13)
    # <2> has multiplicative order exactly 6 = |(Z/13)^* / {+-1}|
    d2 = diamond_operator(sp13, 2)
    power = eye = np.eye(sp13.dim, dtype=np.int64)
    for k in range(1, 7):
        power = power @ d2
        assert np.array_equal(power, eye) == (k == 6)
    # multiplicative
    d4 = diamond_operator(sp13, 4)
    assert np.array_equal(d4, d2 @ d2)
    # <-1> acts trivially on weight-2 symbols
    assert diamond_operator(sp13, -1).tolist() == identity(sp13.dim)


def test_star_involution_properties():
    for spec in (GroupSpec.gamma1(21), GroupSpec.gamma0(26)):
        sp = build_space(spec)
        st = sp.star_matrix()
        assert (st @ st).tolist() == identity(sp.dim)
        t2 = hecke_operator(sp, 2)
        assert np.array_equal(st @ t2 @ st, t2)
        # the winding element {0, oo} is fixed by star
        e = sp.path_vector((0, 1), (1, 0))
        assert np.array_equal(e @ st, e)
    # plus-eigenspace of cuspidal Gamma0(11) has dimension 1 = genus
    sp11 = build_space(GroupSpec.gamma0(11))
    assert len(sp11.plus_cuspidal()) == 1


def test_operators_preserve_structure():
    sp = build_space(GroupSpec.gamma1(18))
    s = sp.cuspidal
    for op in (
        hecke_operator(sp, 2),
        hecke_operator(sp, 7),
        diamond_operator(sp, 5),
        sp.star_matrix(),
    ):
        # integer matrix already certifies symbol-lattice preservation;
        # cuspidal lattice must also be preserved
        restrict_to_lattice(op, s)  # raises if not invariant
        # and the boundary of cuspidal images vanishes
        assert not exact_product(exact_product(s, op), sp.boundary).any()


@pytest.mark.parametrize(
    "spec",
    [
        GroupSpec.gamma1(13),
        GroupSpec.gamma1(29),
        GroupSpec.gamma1(45),
        pytest.param(GroupSpec.gamma1(55), marks=pytest.mark.stretch),
        GroupSpec.x1_2_2n(15),
        GroupSpec.gamma0(65),
        GroupSpec.gammaH(45, (1, 4, 16, 19, 31, 34)),
    ],
    ids=lambda spec: spec.label(),
)
def test_restriction_to_s_by_chords_matches_lattice_solve(spec):
    sp = build_space(spec)
    s = sp.cuspidal
    lat = Lattice(sp.dim, s)
    q = next(q for q in (3, 5, 7) if sp.level % q)
    for op in (hecke_operator(sp, 2), hecke_operator(sp, q), diamond_operator(sp, q),
               sp.star_matrix()):
        r = sp.restrict_to_cuspidal(op)
        assert np.array_equal(r, restrict_to_lattice(op, s))
        assert r.tolist() == [lat.solve(row) for row in exact_product(s, op).tolist()]
    # past int64 the coordinates are Python ints
    assert sp.cuspidal_coordinates([[int(x) << 70 for x in s[1]]]).tolist() == [
        [(i == 1) << 70 for i in range(len(s))]]
    # a forest edge is not a cycle, and an operator sending a cycle to it
    # does not keep S
    pivots = [next(j for j, x in enumerate(row) if x) for row in s.tolist()]
    edge = next(j for j in range(sp.dim) if j not in pivots)
    leak = [[int(i == pivots[0] and j == edge) for j in range(sp.dim)] for i in range(sp.dim)]
    for restrict in (sp.restrict_to_cuspidal, lambda op: restrict_to_lattice(op, s)):
        with pytest.raises(ValueError):
            restrict(leak)
    with pytest.raises(ValueError):
        sp.cuspidal_coordinates([s[0], [int(j == edge) for j in range(sp.dim)]])


def test_atkin_lehner_gamma0_121():
    sp = build_space(GroupSpec.gamma0(121))
    w = atkin_lehner(sp, 121)
    assert (w @ w).tolist() == identity(sp.dim)
    perm = atkin_lehner_cusp_action(sp, 121)
    # the two rational cusps (width 1 and width N) are swapped
    widths = [sp.group.cusp_width(i) for i in range(sp.ncusps)]
    inf = widths.index(1)
    zero = widths.index(121)
    assert perm[inf] == zero and perm[zero] == inf


def test_atkin_lehner_gamma0_65():
    sp = build_space(GroupSpec.gamma0(65))
    w5 = atkin_lehner(sp, 5)
    w13 = atkin_lehner(sp, 13)
    w65 = atkin_lehner(sp, 65)
    assert (w5 @ w5).tolist() == identity(sp.dim)
    assert (w13 @ w13).tolist() == identity(sp.dim)
    # W_5 W_13 = W_65 (exact matrix identity under the chosen integral
    # representatives)
    assert np.array_equal(w5 @ w13, w65)
    # commutes with good Hecke
    t2 = hecke_operator(sp, 2)
    assert np.array_equal(w5 @ t2, t2 @ w5)
    with pytest.raises(ValueError):
        atkin_lehner(sp, 25)


def test_merel_family_t1():
    assert merel_family(1) == ((1, 0, 0, 1),)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41])
def test_level11_ap_oracle(p):
    """T_p eigenvalue on the one-dimensional cuspidal part of Gamma0(11)
    equals a_p of the level-11 curve from direct point counts."""
    if p == 11:
        return
    sp = build_space(GroupSpec.gamma0(11))
    tp = restrict_to_lattice(hecke_operator(sp, p), sp.cuspidal)
    assert tp[0][0] == curve11_ap(p)
    assert tp[0][1] == 0 and tp[1][0] == 0 and tp[1][1] == tp[0][0]


# -- the former presentations, kept as oracles -------------------------------
#
# The Markowitz elimination over Z that solved the presentation before the
# relation graph: the oracle of the forest route, which must give the same
# free symbols and the same `proj`.


def tau_relations(gd, rep, sign, zero):
    """Deduplicated three-term relations in the sigma-reduced variables."""
    n = gd.level
    seen = [False] * gd.nsym
    rows = []
    row_keys = set()
    for i, (c, d) in enumerate(gd.symbols):
        if seen[i]:
            continue
        j = gd.pair_orbit[(d % n, (-c - d) % n)]
        cj, dj = gd.symbols[j]
        k = gd.pair_orbit[(dj % n, (-cj - dj) % n)]
        orbit = {i, j, k}
        for t in orbit:
            seen[t] = True
        row = {}
        for t in (i, j, k):
            if zero[t]:
                continue
            r = rep[t]
            row[r] = row.get(r, 0) + sign[t]
        row = {v: c0 for v, c0 in row.items() if c0}
        if not row:
            continue
        g = vec_gcd(list(row.values()))
        if g > 1:
            row = {v: c0 // g for v, c0 in row.items()}
        first = min(row)
        if row[first] < 0:
            row = {v: -c0 for v, c0 in row.items()}
        key = tuple(sorted(row.items()))
        if key not in row_keys:
            row_keys.add(key)
            rows.append(row)
    return rows


def eliminate(rows, variables):
    """Sparse elimination over Z with unit pivots.

    rows: list of {var: int}; variables: iterable of all variable ids.
    Returns (free_vars, expressions) where expressions maps each pivot var
    to a {free_var: int} expansion.  Raises ArithmeticError at a pivot
    other than +-1.
    """
    rows = [dict(r) for r in rows]
    col_rows = {}
    for ridx, row in enumerate(rows):
        for v in row:
            col_rows.setdefault(v, set()).add(ridx)
    active = set(range(len(rows)))
    elim_order = []  # (var, row dict at elimination time)
    pivoted = set()

    while active:
        # pick the shortest active row; among its entries prefer low
        # column usage
        ridx = min(active, key=lambda r: (len(rows[r]), r))
        row = rows[ridx]
        if not row:
            active.discard(ridx)
            continue
        var = min(row, key=lambda v: (len(col_rows.get(v, ())), v))
        a = row[var]
        if a not in (1, -1):
            raise ArithmeticError(f"pivot {a} on variable {var} is not a unit")
        users = [r for r in col_rows.get(var, ()) if r != ridx and r in active]
        for r in users:
            other = rows[r]
            f = other.pop(var) * a  # other := other - (b / a) * row
            col_rows[var].discard(r)
            for v, c0 in row.items():
                if v == var:
                    continue
                nv = other.get(v, 0) - f * c0
                if nv:
                    if v not in other:
                        col_rows.setdefault(v, set()).add(r)
                    other[v] = nv
                elif v in other:
                    del other[v]
                    col_rows[v].discard(r)
            if not other:
                active.discard(r)
        elim_order.append((var, row))
        pivoted.add(var)
        active.discard(ridx)
        for v in row:
            col_rows.get(v, set()).discard(ridx)

    free = [v for v in variables if v not in pivoted]
    free_set = set(free)

    expressions = {}
    for var, row in reversed(elim_order):
        a = row[var]
        expr = {}
        for v, c0 in row.items():
            if v == var:
                continue
            coef = -c0 * a
            if v in free_set:
                expr[v] = expr.get(v, 0) + coef
            else:
                for w, c1 in expressions[v].items():
                    expr[w] = expr.get(w, 0) + coef * c1
        expressions[var] = {v: c0 for v, c0 in expr.items() if c0}
    return free, expressions


def _markowitz_presentation(gd):
    """(free, proj) by the Markowitz elimination."""
    rep, sign, zero = sigma_pairing(gd)
    variables = [i for i in range(gd.nsym) if not zero[i] and rep[i] == i]
    free, expressions = eliminate(tau_relations(gd, rep, sign, zero), variables)
    free_pos = {v: k for k, v in enumerate(free)}
    proj = np.zeros((gd.nsym, len(free)), dtype=np.int64)
    for i in range(gd.nsym):
        if not zero[i]:
            # a free representative is its own expansion
            for v, c in expressions.get(rep[i], {rep[i]: 1}).items():
                proj[i, free_pos[v]] = sign[i] * c
    return free, proj


@pytest.mark.parametrize(
    "spec",
    [
        # sigma-fixed symbols (5, 13, 25, 65) and tau-fixed ones (7, 13, 49)
        *(GroupSpec.gamma0(n) for n in (5, 7, 13, 25, 49, 65)),
        *(GroupSpec.gamma1(n) for n in (13, 29, 57)),
        GroupSpec.x1_2_2n(9),
        GroupSpec.x1_2_2n(19),
        GroupSpec.gammaH(45, (1, 4, 16, 19, 31, 34)),
        pytest.param(GroupSpec.gamma1(144), marks=pytest.mark.stretch),
    ],
    ids=lambda spec: spec.label(),
)
def test_forest_presentation_matches_markowitz_elimination(spec):
    gd = GroupData(spec)
    free, proj = _markowitz_presentation(gd)
    got_free, got_proj = solve_presentation(gd)
    assert got_free == free
    assert got_proj.dtype == np.int64
    assert np.array_equal(got_proj, proj)


def test_eliminate_refuses_a_non_unit_pivot():
    # x0 + x1 = 0 leaves x0 - x1 = 0 as -2 x1 = 0
    with pytest.raises(ArithmeticError):
        eliminate([{0: 1, 1: 1}, {0: 1, 1: -1}], [0, 1])


# The route modtors took before the unit-pivot argument: fraction-free
# elimination with Fraction back substitution, then an integral change of
# coordinates onto the lattice spanned by all symbol projections.


def _fraction_eliminate(rows, variables):
    """Sparse fraction-free elimination.

    rows: list of {var: int}; variables: iterable of all variable ids.
    Returns (free_vars, expressions) where expressions maps each pivot var
    to a {free_var: Fraction} expansion.
    """
    rows = [dict(r) for r in rows]
    col_rows = {}
    for ridx, row in enumerate(rows):
        for v in row:
            col_rows.setdefault(v, set()).add(ridx)
    active = set(range(len(rows)))
    elim_order = []  # (var, row dict at elimination time)
    pivoted = set()

    while active:
        # pick the shortest active row; among its entries prefer unit
        # coefficients and low column usage
        ridx = min(active, key=lambda r: (len(rows[r]), r))
        row = rows[ridx]
        if not row:
            active.discard(ridx)
            continue
        var = min(
            row,
            key=lambda v: (abs(row[v]) != 1, len(col_rows.get(v, ())), v),
        )
        a = row[var]
        users = [r for r in col_rows.get(var, ()) if r != ridx and r in active]
        for r in users:
            other = rows[r]
            b = other.pop(var)
            col_rows[var].discard(r)
            g = gcd(a, b)
            ca, cb = a // g, b // g
            # other := ca * other - cb * row
            for v, c0 in row.items():
                if v == var:
                    continue
                nv = ca * other.get(v, 0) - cb * c0
                if nv:
                    if v not in other:
                        col_rows.setdefault(v, set()).add(r)
                    other[v] = nv
                elif v in other:
                    del other[v]
                    col_rows[v].discard(r)
            if ca != 1:
                for v in [w for w in other if w not in row]:
                    other[v] *= ca
            if other:
                g2 = vec_gcd(list(other.values()))
                if g2 > 1:
                    for v in other:
                        other[v] //= g2
            else:
                active.discard(r)
        elim_order.append((var, row))
        pivoted.add(var)
        active.discard(ridx)
        for v in row:
            col_rows.get(v, set()).discard(ridx)

    free = [v for v in variables if v not in pivoted]
    free_pos = {v: k for k, v in enumerate(free)}

    expressions = {}
    for var, row in reversed(elim_order):
        a = row[var]
        expr = {}
        for v, c0 in row.items():
            if v == var:
                continue
            coef = Fraction(-c0, a)
            if v in free_pos:
                expr[v] = expr.get(v, Fraction(0)) + coef
            else:
                for w, c1 in expressions[v].items():
                    expr[w] = expr.get(w, Fraction(0)) + coef * c1
        expressions[var] = {v: c0 for v, c0 in expr.items() if c0}
    return free, expressions


def _rewrite_integral(dim, proj_q):
    """Change coordinates so the symbol lattice is exactly Z^dim.

    Returns (basis, den, proj): M_Z = span_Z(basis) / den in the free-symbol
    coordinates, and every symbol's coordinates on that basis.
    """
    den = 1
    for row in proj_q:
        for c in row.values():
            den = den * c.denominator // gcd(den, c.denominator)
    # lattice spanned by all symbol projections (contains the unit
    # vectors, since free symbols project to themselves)
    basis = [[den if i == j else 0 for j in range(dim)] for i in range(dim)]

    def reduce_vec(vec):
        for i in range(dim):
            x = vec[i]
            if x % basis[i][i]:
                return vec, i
            q = x // basis[i][i]
            if q:
                for j in range(i, dim):
                    vec[j] -= q * basis[i][j]
        return vec, None

    for row in proj_q:
        if not row:
            continue
        vec = [0] * dim
        for j, c in row.items():
            vec[j] = int(c * den)
        while True:
            vec, stuck = reduce_vec(vec)
            if stuck is None:
                break
            # extend the lattice at pivot `stuck` by gcd-combination
            a = basis[stuck][stuck]
            b = vec[stuck]
            g, s, t = xgcd(a, b)
            newrow = [s * basis[stuck][j] + t * vec[j] for j in range(dim)]
            vec = [
                (a // g) * vec[j] - (b // g) * basis[stuck][j] for j in range(dim)
            ]
            basis[stuck] = newrow
    # normalize: reduce entries above pivots
    for i in range(dim - 1, -1, -1):
        for k in range(i + 1, dim):
            q = basis[i][k] // basis[k][k]
            if q:
                for j in range(k, dim):
                    basis[i][j] -= q * basis[k][j]

    # coordinates of every symbol on the lattice basis (exact forward
    # substitution; B is upper triangular with full pivot set)
    diag = [basis[i][i] for i in range(dim)]
    proj = []
    for row in proj_q:
        if not row:
            proj.append([0] * dim)
            continue
        w = [0] * dim
        for j, c in row.items():
            w[j] = int(c * den)
        x = [0] * dim
        for i in range(dim):
            if w[i] == 0:
                continue
            q, r = divmod(w[i], diag[i])
            assert r == 0, "projection outside integral lattice"
            if q:
                x[i] = q
                for j in range(i, dim):
                    w[j] -= q * basis[i][j]
        assert not any(w)
        proj.append(x)
    return basis, den, proj


def _rational_presentation(gd):
    """(free, basis, den, proj) by the rational route."""
    rep, sign, zero = sigma_pairing(gd)
    variables = [i for i in range(gd.nsym) if not zero[i] and rep[i] == i]
    rows = tau_relations(gd, rep, sign, zero)
    free, expressions = _fraction_eliminate(rows, variables)
    free_pos = {v: k for k, v in enumerate(free)}
    proj_q = []
    for i in range(gd.nsym):
        if zero[i]:
            proj_q.append({})
            continue
        r, s = rep[i], sign[i]
        if r in free_pos:
            proj_q.append({free_pos[r]: Fraction(s)})
        else:
            proj_q.append({free_pos[v]: s * c for v, c in expressions[r].items()})
    return (free, *_rewrite_integral(len(free), proj_q))


@pytest.mark.parametrize(
    "spec",
    [
        *(GroupSpec.gamma0(n) for n in (5, 7, 13, 25, 49, 65)),
        GroupSpec.gamma1(13),
        GroupSpec.gamma1(29),
        GroupSpec.x1_2_2n(9),
        GroupSpec.gammaH(45, (1, 4, 16, 19, 31, 34)),
    ],
    ids=lambda spec: spec.label(),
)
def test_free_symbols_are_a_z_basis(spec):
    # levels with sigma-fixed symbols (5, 13, 25, 65) and tau-fixed ones
    # (7, 13, 49): the rational route finds the lattice spanned by all
    # symbol projections to be Z^dim on the free symbols, and agrees with
    # the unit-pivot elimination
    gd = GroupData(spec)
    free, basis, den, proj = _rational_presentation(gd)
    assert den == 1
    assert basis == identity(len(free))
    got_free, got_proj = solve_presentation(gd)
    assert got_proj.dtype == np.int64
    assert (free, proj) == (got_free, got_proj.tolist())


def _cuspidal_oracle(sp):
    """S = ker(boundary) by a general HNF kernel (the former route)."""
    return Lattice(sp.dim, kernel_basis(transpose(sp.boundary)))


def _plus_cuspidal_oracle(sp):
    """S+ in symbol coordinates as the kernel of the stacked block
    [boundary | star - I] (the former route)."""
    stacked = [
        row_b + [x - (1 if i == j else 0) for j, x in enumerate(row_s)]
        for i, (row_b, row_s) in enumerate(zip(sp.boundary, sp.star_matrix().tolist()))
    ]
    return Lattice(sp.dim, kernel_basis(transpose(stacked)))


@pytest.mark.parametrize(
    "spec",
    [
        *(GroupSpec.gamma0(n) for n in (11, 37, 65, 97, 121)),
        *(GroupSpec.gamma1(n) for n in (13, 18, 29, 37, 45, 53, 57)),
        GroupSpec.x1_2_2n(9),
        GroupSpec.x1_2_2n(19),
        GroupSpec.gammaH(45, (1, 4, 16, 19, 31, 34)),
        GroupSpec.gamma1(10),  # genus 0: S is empty
    ],
    ids=lambda spec: spec.label(),
)
def test_cuspidal_lattices_match_kernel_oracle(spec):
    sp = build_space(spec)
    s, plus = sp.cuspidal, sp.plus_cuspidal()
    # S, and S+ mapped back to symbol coordinates, are the oracles'
    # lattices; S's cycles and S+ over them are their own Hermite form
    assert s.tolist() == _cuspidal_oracle(sp).basis == hnf(s)
    assert hnf(exact_product(plus, s)) == _plus_cuspidal_oracle(sp).basis
    assert plus.tolist() == hnf(plus)
    assert plus.shape == (sp.genus(), 2 * sp.genus())
    assert sp.boundary == [_symbol_boundary(sp, i) for i in sp.free_symbols]


@pytest.mark.parametrize("seed", range(8))
def test_fundamental_cycles_of_random_graphs(seed):
    # loops, parallel edges and several components included
    rng = random.Random(seed)
    nv = rng.randint(1, 7)
    edges = [(rng.randrange(nv), rng.randrange(nv)) for _ in range(rng.randint(0, 14))]
    incidence = [[(v == h) - (v == t) for v in range(nv)] for h, t in edges]
    rows = fundamental_cycles(edges, nv)
    for row in rows:
        assert not exact_product(row, incidence).any()
    assert rows == hnf(kernel_basis(transpose(incidence)) if edges else [])


def test_build_space_checks_survive_optimized_mode(monkeypatch):
    # the dimension identity and the rank of S raise ArithmeticError rather
    # than bare asserts, which python -O would strip
    spec = GroupSpec.gamma1(13)
    genus = ModSymSpace.genus
    monkeypatch.setattr(ModSymSpace, "genus", lambda self: genus(self) + 1)
    with pytest.raises(ArithmeticError, match="2 g"):
        build_space(spec)
    monkeypatch.undo()
    monkeypatch.setattr(space_module, "fundamental_cycles",
                        lambda edges, nv: fundamental_cycles(edges, nv)[1:])
    with pytest.raises(ArithmeticError, match="cuspidal rank"):
        build_space(spec)


# -- scalar oracles of the gathered operators --------------------------------
#
# The former routes, one Manin symbol at a time through the pair_orbit
# dict: the pair-by-pair Merel loop for T_n and the convergent walk for
# paths.  The operators gather rows of `proj` for all free symbols at once
# and must agree with them entry for entry.


def _free_pairs(space):
    return [space.group.symbols[j] for j in space.free_symbols]


def _symbol_row(space, c, d):
    """Projection of the Manin symbol (c : d)."""
    n = space.level
    return space.proj[space.group.pair_orbit[(c % n, d % n)]].tolist()


def _hecke_images_of_pair(space, c, d, n):
    """Sum of the projections of (c, d) M over M in Merel's X_n, skipping
    pairs that are not units mod N."""
    nlev = space.level
    out = [0] * space.dim
    for a, b, c1, d1 in merel_family(n):
        cc, dd = c * a + d * c1, c * b + d * d1
        if gcd(gcd(cc, dd), nlev) == 1:
            out = [x + y for x, y in zip(out, _symbol_row(space, cc, dd))]
    return out


def _path_from_infinity(space, num, den):
    """{oo, num/den} through the convergents p_k/q_k of num/den: the sum of
    the symbols ((-1)^(k-1) q_k : q_(k-1)), k = 0, 1, ..., with q_(-1) = 0
    and q_0 = 1."""
    if den == 0:
        return [0] * space.dim
    if den < 0:
        num, den = -num, -den
    q_prev, q, sign = 0, 1, -1
    out = _symbol_row(space, -1, 0)
    x, y = den, num % den  # past the partial quotient a_0
    while y:
        a = x // y
        x, y = y, x - a * y
        q_prev, q, sign = q, a * q + q_prev, -sign
        out = [s + t for s, t in zip(out, _symbol_row(space, sign * q, q_prev))]
    return out


def _path_oracle(space, alpha, beta):
    return [b - a for a, b in zip(_path_from_infinity(space, *alpha),
                                  _path_from_infinity(space, *beta))]


GATHER_ORACLE_SPECS = [
    GroupSpec.gamma0(11),
    GroupSpec.gamma0(37),
    GroupSpec.gamma0(121),
    GroupSpec.gamma1(13),
    GroupSpec.gamma1(29),
    GroupSpec.x1_2_2n(18),
]


@pytest.mark.parametrize("spec", GATHER_ORACLE_SPECS, ids=lambda s: s.label())
def test_hecke_operators_match_pairwise_merel_oracle(spec):
    sp = build_space(spec)
    for n in sorted({2, 3, 4, 6, max(primefactors(sp.level))}):
        assert hecke_operator(sp, n).tolist() == [_hecke_images_of_pair(sp, c, d, n)
                                                  for c, d in _free_pairs(sp)], n


@pytest.mark.parametrize("spec", GATHER_ORACLE_SPECS, ids=lambda s: s.label())
def test_scaled_symbols_match_pairwise_oracle(spec):
    sp = build_space(spec)
    assert sp.star_matrix().tolist() == [_symbol_row(sp, -c, d) for c, d in _free_pairs(sp)]
    for u in (2, 3, 5, 7, sp.level - 1):
        if gcd(u, sp.level) == 1:
            assert diamond_operator(sp, u).tolist() == [_symbol_row(sp, u * c, u * d)
                                                        for c, d in _free_pairs(sp)], u


@pytest.mark.parametrize("spec", GATHER_ORACLE_SPECS, ids=lambda s: s.label())
def test_paths_match_convergent_walk(spec):
    sp = build_space(spec)
    assert sp.path_vector((0, 1), (1, 0)).tolist() == _path_oracle(sp, (0, 1), (1, 0))
    rng = random.Random(sp.level)
    for _ in range(20):
        alpha = (rng.randint(-200, 200), rng.randint(-40, 40))
        beta = (rng.randint(-200, 200), rng.randint(0, 40))
        if alpha == (0, 0) or beta == (0, 0):
            continue
        assert sp.path_vector(alpha, beta).tolist() == _path_oracle(sp, alpha, beta)
    if spec.kind != "gamma0":
        return
    # W_Q pushes the path {gamma 0, gamma oo} of each free symbol forward
    n = sp.level
    for q in (d for d in range(2, n + 1) if n % d == 0 and gcd(d, n // d) == 1):
        p0, q0, r0, s0 = atkin_lehner_matrix_2x2(n, q)
        want = []
        for c, d in _free_pairs(sp):
            a, b, c0, d0 = sl2_lift(c, d, n)
            want.append(_path_oracle(sp, (p0 * b + q0 * d0, r0 * b + s0 * d0),
                                     (p0 * a + q0 * c0, r0 * a + s0 * c0)))
        assert atkin_lehner(sp, q).tolist() == want, q
