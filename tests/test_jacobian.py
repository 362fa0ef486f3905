import sys
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from conftest import class_lattice_folds, embeds_in, kernel_lattice_fold, orbit_partition
from sympy import divisors

from modtors import jacobian
from modtors.abgroup import FinAbGroup
from modtors.arith import isprime
from modtors.jacobian import (
    auxiliary_primes,
    cuspidal_class_group,
    good_primes,
    hecke_bound_group,
    hecke_kernel_lattice,
    is_rank_zero,
    jacobian_order_mod_p,
    sturm_bound,
    torsion_is_cuspidal,
    torsion_report,
    winding_sweep,
)
from modtors.intlinalg import MODP, det_bareiss, exact_product, hnf, identity, kernel_mod
from modtors.lattice import Lattice, lattice_torsion_quotient
from modtors.modsym import GroupSpec, build_space, merel_family


def test_sturm_bounds():
    assert sturm_bound(GroupSpec.gamma0(11)) == 2
    assert sturm_bound(GroupSpec.gamma0(1)) == 1
    assert GroupSpec.gamma1(21).sl2_index() == 384
    assert sturm_bound(GroupSpec.gamma1(21)) == 64


def _add_symbol(space, out, c, d, sign=1):
    n = space.level
    for k, y in enumerate(space.proj[space.group.pair_orbit[(c % n, d % n)]].tolist()):
        out[k] += sign * y


def _merel_winding_vector(space, n):
    """T_n {0, oo} through Merel's X_n: the symbols (0 : 1) M, M in X_n."""
    out = [0] * space.dim
    for _, _, c, d in merel_family(n):
        if gcd(gcd(c, d), space.level) == 1:
            _add_symbol(space, out, c, d)
    return out


def _divisor_sum_vector(space, n, inverse):
    """T_n {0, oo} as the sum over d | n of <a> S_d, a = n / d, with <a>
    scaling pairs by a, or by its inverse mod N when `inverse` is set."""
    nlev = space.level
    out = [0] * space.dim
    for d in divisors(n):
        a = n // d
        if gcd(a, nlev) != 1:
            continue
        u = pow(a, -1, nlev) if inverse else a
        # S_d = sum over b of {b/d, oo} = -sum over b of {oo, b/d}
        for idx in space.path_symbols(range(d), [d] * d)[0].tolist():
            c, dd = space.group.symbols[idx]
            _add_symbol(space, out, u * c, u * dd, -1)
    return out


ORACLE_SPECS = [
    GroupSpec.gamma0(11),
    GroupSpec.gamma0(37),
    GroupSpec.gamma0(43),
    GroupSpec.gamma1(13),
    GroupSpec.gamma1(16),
    GroupSpec.gamma1(21),
    GroupSpec.gamma1(23),
    GroupSpec.gamma1(29),
    GroupSpec.x1_2_2n(5),
    GroupSpec.x1_2_2n(9),
    GroupSpec.x1_2_2n(10),
]


def _per_n_winding_sweep(space, bound):
    """The sweep one n at a time, as before the blocked sweep: one walk per
    n, its divisors from sympy."""
    nlev = space.level
    nsym = space.group.nsym
    symbols = np.array(space.group.symbols, dtype=np.int64).reshape(-1, 2)
    sums = {}
    for n in range(1, bound + 1):
        s_n = -np.bincount(space.path_symbols(range(n), [n] * n)[0], minlength=nsym)
        if 2 * n <= bound:
            sums[n] = s_n
        total = np.zeros(nsym, dtype=np.int64)
        for d in divisors(n):
            a = n // d
            if gcd(a, nlev) == 1:
                total[space.symbol_indices(a * symbols[:, 0], a * symbols[:, 1])] += (
                    s_n if d == n else sums[d])
        idx = np.flatnonzero(total)
        yield n, np.stack((idx, total[idx]), axis=1)


def _dense_winding_vector(proj, terms):
    """cnt @ proj[idx], the dense gather of every row of the terms."""
    idx, cnt = terms.T
    return np.einsum("i,ij->j", cnt, proj[idx])


def _winding_vector(space, terms):
    proj_max = int(np.abs(space.proj).max())
    return jacobian._winding_vector(jacobian._proj_columns(space.proj), len(space.proj),
                                    proj_max, terms)


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.label())
def test_winding_sweep_matches_merel_oracle(spec):
    space = build_space(spec)
    bound = sturm_bound(spec)
    swept = list(winding_sweep(space, bound))
    assert [n for n, _ in swept] == list(range(1, bound + 1))
    for n, terms in swept:
        want = _merel_winding_vector(space, n)
        got = _winding_vector(space, terms)
        assert got.dtype == np.int64
        assert got.tolist() == want, n
        assert _dense_winding_vector(space.proj, terms).tolist() == want, n


@pytest.mark.parametrize("lanes", [1, None, 2**40], ids=["one-lane", "default", "uncapped"])
@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.label())
def test_blocked_sweep_matches_per_n_sweep(spec, lanes, monkeypatch):
    # a cap of one lane gives blocks of one n; under a huge cap the blocks
    # only double
    if lanes is not None:
        monkeypatch.setattr(jacobian, "_LANES", lanes)
    space = build_space(spec)
    for bound in (1, sturm_bound(spec)):
        got = list(winding_sweep(space, bound))
        want = list(_per_n_winding_sweep(space, bound))
        assert [n for n, _ in got] == [n for n, _ in want] == list(range(1, bound + 1))
        for (n, terms), (_, oracle) in zip(got, want):
            assert terms.dtype == np.int64
            assert terms.tolist() == oracle.tolist(), (bound, n)


def test_sweep_walks_at_most_the_lane_cap(monkeypatch):
    # each walk covers consecutive n, and beyond one n at most _LANES lanes
    # and at most as many as all walks before it
    monkeypatch.setattr(jacobian, "_LANES", 50)
    space = build_space(GroupSpec.gamma1(29))
    walk, blocks = space.path_symbols, []

    def spy(residues, dens):
        blocks.append((len(dens), sorted(set(dens.tolist()))))
        return walk(residues, dens)

    monkeypatch.setattr(space, "path_symbols", spy)
    bound = sturm_bound(space.spec)
    assert bound > 50
    list(winding_sweep(space, bound))
    assert [n for _, ns in blocks for n in ns] == list(range(1, bound + 1))
    walked = 0
    for lanes, ns in blocks:
        assert lanes == sum(ns)
        assert lanes <= min(50, walked) or len(ns) == 1
        walked += lanes
    assert max(len(ns) for _, ns in blocks) > 1
    assert len(blocks[-1][1]) == 1


def test_winding_vector_refuses_int64_overflow(monkeypatch):
    # 2^62 fits int64, but twice it wraps to -2^63: the bound check raises
    # before the product is taken
    big = jacobian._proj_columns(np.array([[2**62, 0], [0, 1]], dtype=np.int64))
    assert jacobian._winding_vector(big, 2, 2**62, np.array([[0, 1]])).tolist() == [2**62, 0]
    assert jacobian._winding_vector(big, 2, 2**62, np.array([[1, -1]])).tolist() == [0, -1]
    with pytest.raises(ArithmeticError):
        jacobian._winding_vector(big, 2, 2**62, np.array([[0, 2]]))
    with pytest.raises(ArithmeticError):
        jacobian._winding_vector(big, 2, 2**62, np.array([[0, 1], [0, 1]]))
    # through the sweep: symbol projections scaled by 2^61 overflow at the
    # first T_n {0, oo} with four or more symbols
    space = build_space(GroupSpec.gamma0(37))
    assert int(np.abs(space.proj).max()) == 1
    monkeypatch.setattr(space, "proj", space.proj * 2**61)
    with pytest.raises(ArithmeticError):
        jacobian.winding_span_mod_p(space, sturm_bound(space.spec), MODP)


def test_proj_columns_refuse_a_zero_column():
    # np.add.reduceat reads an empty segment as the next entry, not as 0:
    # with the zero middle column the sum would come out [2, 1, 2]
    proj = np.array([[1, 0, 0], [0, 0, 1], [1, 0, 1]], dtype=np.int64)
    with pytest.raises(ArithmeticError, match="zero column"):
        jacobian._proj_columns(proj)
    proj[1, 1] = -1
    columns = jacobian._proj_columns(proj)
    assert [x.dtype for x in columns] == [np.int64] * 3
    terms = np.array([[0, 1], [1, 1], [2, 1]])
    assert jacobian._winding_vector(columns, 3, 1, terms).tolist() == [2, -1, 2]
    assert _dense_winding_vector(proj, terms).tolist() == [2, -1, 2]


def test_winding_sweep_diamond_orientation():
    # <a> scales pairs by a; scaling by a^-1 gives other vectors, so the
    # oracle above catches a flipped diamond
    space = build_space(GroupSpec.gamma1(13))
    bound = sturm_bound(space.spec)
    flipped = 0
    for n in range(1, bound + 1):
        want = _merel_winding_vector(space, n)
        assert _divisor_sum_vector(space, n, inverse=False) == want
        flipped += _divisor_sum_vector(space, n, inverse=True) != want
    assert flipped > 0


@pytest.mark.parametrize(
    "spec,verdict,span",
    [
        (GroupSpec.gamma0(11), "rank_zero", 1),
        (GroupSpec.gamma0(37), "positive_rank", 1),
        (GroupSpec.gamma0(30), "rank_zero", 3),
        (GroupSpec.gamma0(65), "positive_rank", 4),
        (GroupSpec.gamma0(121), "positive_rank", 5),
        (GroupSpec.gamma1(13), "rank_zero", 2),
        (GroupSpec.x1_2_2n(13), "rank_zero", None),
        (GroupSpec.x1_2_2n(14), "rank_zero", None),
    ],
)
def test_rank_certificates(spec, verdict, span):
    cert = is_rank_zero(build_space(spec))
    assert cert.verdict == verdict
    if span is not None:
        assert cert.span_dim == span
    if verdict == "rank_zero":
        assert cert.span_dim == cert.plus_dim


POSITIVE_RANK_SPECS = [GroupSpec.gamma0(37), GroupSpec.gamma0(65), GroupSpec.gamma1(37)]


@pytest.mark.parametrize("spec", POSITIVE_RANK_SPECS, ids=lambda s: s.label())
def test_plus_spanning_rows_lie_in_and_span_plus_part(spec):
    # the rows of B_S (I + star) lie in the saturated S+ and have rank g
    sp = build_space(spec)
    w = jacobian._plus_spanning_rows(sp)
    assert w.shape == (2 * sp.genus(), sp.dim)
    star = sp.star_matrix()
    assert w.tolist() == [[a + b for a, b in zip(row, exact_product(row, star).tolist())]
                          for row in sp.cuspidal.tolist()]
    plus = Lattice(sp.dim, exact_product(sp.plus_cuspidal(), sp.cuspidal))
    for row in w.tolist():
        assert plus.solve(row) is not None
    assert len(hnf(w.tolist())) == sp.genus() == plus.rank


@pytest.mark.parametrize("spec", POSITIVE_RANK_SPECS, ids=lambda s: s.label())
def test_positive_rank_certificate_builds_no_plus_lattice(spec, monkeypatch):
    sp = build_space(spec)
    cert = is_rank_zero(sp)
    assert cert.verdict == "positive_rank"
    assert "plus" not in sp._memo
    # the same functional as through a Z-basis of S+ (the former route)
    fresh = build_space(spec)
    monkeypatch.setattr(jacobian, "_plus_spanning_rows",
                        lambda space: exact_product(space.plus_cuspidal(), space.cuspidal))
    assert is_rank_zero(fresh).to_json() == cert.to_json()
    assert "plus" in fresh._memo


@pytest.mark.parametrize(
    "spec",
    [
        GroupSpec.gamma0(11),
        GroupSpec.gamma0(30),
        GroupSpec.gamma1(13),
        GroupSpec.x1_2_2n(13),
        GroupSpec.x1_2_2n(14),
    ],
    ids=lambda s: s.label(),
)
def test_edge_list_boundary_of_kept_winding_vectors(spec):
    # the rank-zero levels of test_rank_certificates: V d from the edge list
    # equals the dense product with the boundary matrix
    from modtors.intlinalg import MODP

    sp = build_space(spec)
    _, kept, _, _, _ = jacobian.winding_span_mod_p(sp, sturm_bound(sp.spec), MODP)
    assert kept
    for v in kept:
        assert sp.boundary_image(v) == exact_product(v, sp.boundary).tolist()


def test_class_group_cross_check_raises(monkeypatch):
    # a wrong span of Cl^cc (the classes halved) breaks Div^0 / principal =
    # Cl^cc, and the check raises ArithmeticError rather than a bare assert
    # python -O would strip
    from modtors.modsym.space import ModSymSpace

    span = jacobian.span_mod
    monkeypatch.setattr(jacobian, "span_mod", lambda a, m: span(a, 2 * m))
    with pytest.raises(ArithmeticError, match="Div\\^0 / principal does not reproduce Cl\\^cc"):
        cuspidal_class_group(ModSymSpace(GroupSpec.gamma1(13)))


def test_class_group_refuses_invariant_classes_outside_the_invariants(monkeypatch):
    # every cusp its own orbit: the degree-0 divisors taken as invariant then
    # include some whose class is not Galois-invariant, as Cl^cc_Q is not
    # Cl^cc at Gamma1(21)
    from modtors.modsym.space import ModSymSpace

    sp = ModSymSpace(GroupSpec.gamma1(21))
    assert cuspidal_class_group(sp).clcc != cuspidal_class_group(sp).clcc_q
    monkeypatch.setattr(jacobian, "orbits", lambda points, moves: [[x] for x in points])
    with pytest.raises(ArithmeticError,
                       match=r"Gamma1\(21\): a Galois-invariant divisor class lies outside"):
        cuspidal_class_group(ModSymSpace(GroupSpec.gamma1(21)))


def _cuspidal_span_rank_zero(sp, kept, g):
    """The former rank-zero certificate (the reference route): an integer
    basis of span V cap ker d, whose rank is checked mod three primes and
    then over Q."""
    from modtors.immersion import cuspidal_span
    from modtors.intlinalg import MODP, rank_mod_p

    w = cuspidal_span(sp, kept)
    if not w:
        return False
    if any(rank_mod_p(w, q) >= g for q in (MODP, 2147483629, 999999937)):
        return True
    return len(hnf(w)) >= g


@pytest.mark.parametrize(
    "spec",
    [
        GroupSpec.gamma0(11),
        GroupSpec.gamma0(30),
        GroupSpec.gamma1(13),
        GroupSpec.x1_2_2n(13),
        GroupSpec.x1_2_2n(14),
        GroupSpec.gamma1(16),
        GroupSpec.gamma1(21),
        GroupSpec.gamma1(24),
        GroupSpec.gamma1(28),
    ],
    ids=lambda s: s.label(),
)
def test_rank_zero_certificate_counts_boundary_rank(spec):
    from modtors.immersion import cuspidal_span
    from modtors.intlinalg import MODP

    sp = build_space(spec)
    g = sp.genus()
    _, kept, _, s_dim, _ = jacobian.winding_span_mod_p(sp, sturm_bound(sp.spec), MODP)
    assert s_dim == g > 0
    assert jacobian._certify_rank_zero(sp, kept, g)
    assert _cuspidal_span_rank_zero(sp, kept, g)
    # the sweep stops at the vector that raised the cuspidal dimension to g
    fewer = kept[:-1]
    assert len(hnf(cuspidal_span(sp, fewer))) == g - 1
    assert not jacobian._certify_rank_zero(sp, fewer, g)
    assert not _cuspidal_span_rank_zero(sp, fewer, g)


def test_jacobian_orders_level21():
    sp = build_space(GroupSpec.gamma1(21))
    assert jacobian_order_mod_p(sp, 5) == 2184
    assert jacobian_order_mod_p(sp, 11) == 96824
    assert gcd(*(jacobian_order_mod_p(sp, p) for p in (5, 11))) == 728
    with pytest.raises(ValueError):
        jacobian_order_mod_p(sp, 7)
    with pytest.raises(ValueError):
        jacobian_order_mod_p(sp, 4)


def test_jacobian_order_level11_point_counts():
    from conftest import curve11_ap

    sp = build_space(GroupSpec.gamma0(11))
    for p in (3, 5, 7, 13, 17, 19):
        assert jacobian_order_mod_p(sp, p) == p + 1 - curve11_ap(p)


# the genus of X1(N) at the levels of the zeta-function oracle below
ZETA_GENUS = {11: 1, 13: 2, 14: 1, 15: 1, 16: 2, 17: 5, 18: 2, 19: 7, 20: 3, 22: 6}


def _zeta_jacobian_order(n, p, g):
    """#J1(N)(F_p) = L(1), L(T) = c_0 + ... + c_(2g) T^(2g) = prod (1 -
    alpha_i T) the numerator of the zeta function of X1(N) over F_p: the
    power sums s_k = p^k + 1 - #X1(N)(F_(p^k)) of the alpha_i give c_1..c_g
    by Newton's identities k c_k = -(s_1 c_(k-1) + ... + s_k c_0), and the
    functional equation gives c_(2g-k) = p^(g-k) c_k."""
    from modtors.ecff import count_X1_points

    s = [p**k + 1 - count_X1_points(n, p**k) for k in range(1, g + 1)]
    c = [1]
    for k in range(1, g + 1):
        total = -sum(s[j - 1] * c[k - j] for j in range(1, k + 1))
        assert total % k == 0
        c.append(total // k)
    c += [p ** (g - k) * c[k] for k in range(g - 1, -1, -1)]
    return sum(c)


@pytest.mark.parametrize(
    "n,p",
    [
        pytest.param(n, p, marks=[pytest.mark.stretch] if p**g > 3**6 else [], id=f"X1({n})-{p}")
        for n, g in ZETA_GENUS.items()
        for p in range(3, 50)
        if isprime(p) and (2 * n) % p and p**g <= 3**7
    ],
)
def test_jacobian_order_matches_zeta_function(n, p):
    # the point counts of X1(N) over F_(p^k), k <= g, from the finite-field
    # scans, against the kill-operator determinant of the Hecke layer
    sp = build_space(GroupSpec.gamma1(n))
    g = ZETA_GENUS[n]
    assert sp.genus() == g
    assert jacobian_order_mod_p(sp, p) == _zeta_jacobian_order(n, p, g)


ORDER_ORACLE_SPECS = (
    [GroupSpec.gamma1(n) for n in range(11, 46)]
    + [GroupSpec.x1_2_2n(n) for n in range(1, 19)]
    + [GroupSpec.gamma0(n) for n in (11, 30, 37, 43, 53, 61, 65)]
)


def test_full_space_det_is_square_of_plus():
    # the S+ route is the oracle: #J(F_p) = |det(T_p - p<p> - 1)| on S+,
    # and the kill operator's determinant on S is its square, sign included
    from modtors.intlinalg import det_bareiss
    from modtors.jacobian import frobenius_kill_operator
    from modtors.modsym import diamond_operator, hecke_operator, restrict_to_lattice

    pairs = 0
    for spec in ORDER_ORACLE_SPECS:
        sp = build_space(spec)
        if sp.genus() == 0:
            assert jacobian_order_mod_p(sp, good_primes(sp.level, 1)[0]) == 1
            continue
        for p in good_primes(sp.level, 3):
            t, d = hecke_operator(sp, p), diamond_operator(sp, p)
            kill = t - p * d - np.eye(sp.dim, dtype=np.int64)
            plus_basis = exact_product(sp.plus_cuspidal(), sp.cuspidal)
            plus = abs(det_bareiss(restrict_to_lattice(kill, hnf(plus_basis))))
            assert jacobian_order_mod_p(sp, p) == plus, (spec.label(), p)
            assert det_bareiss(frobenius_kill_operator(sp, p)) == plus * plus, (spec.label(), p)
            pairs += 1
    assert pairs == 165


def test_jacobian_order_refuses_a_non_square_determinant(monkeypatch):
    from modtors.intlinalg import det_bareiss

    sp = build_space(GroupSpec.gamma1(13))
    det = det_bareiss(jacobian.frobenius_kill_operator(sp, 3))
    for bad in (-det, 2 * det):
        monkeypatch.setitem(sp._memo, ("kill det", 3), bad)
        with pytest.raises(ArithmeticError, match="not a square"):
            jacobian_order_mod_p(sp, 3)


def test_hecke_bounds_paper_values():
    mh = hecke_bound_group(build_space(GroupSpec.gamma1(28)), primes=[3, 5])
    assert mh == FinAbGroup([2, 4, 12, 936])
    mh = hecke_bound_group(build_space(GroupSpec.x1_2_2n(9)), primes=[5, 7])
    assert mh == FinAbGroup([2, 42, 126])
    mh = hecke_bound_group(build_space(GroupSpec.x1_2_2n(8)), primes=[3, 5])
    assert mh == FinAbGroup([2, 20, 20])
    mh = hecke_bound_group(build_space(GroupSpec.gamma1(21)), primes=[5, 11])
    assert mh == FinAbGroup([364])


def test_hecke_bound_monotone_in_primes():
    sp = build_space(GroupSpec.gamma1(28))
    m1 = hecke_bound_group(sp, primes=[3, 5])
    m2 = hecke_bound_group(sp, primes=[3, 5, 11])
    assert embeds_in(m2, m1)


@pytest.mark.parametrize(
    "level,primes",
    [
        (21, [5, 11]),  # Example 4.1: the two smallest good primes suffice
        (28, [3, 5]),  # Example 4.2
        (24, [5, 7, 11]),  # 11 shrinks M_H, 13 does not
        (45, [7, 11, 17]),  # 13 does not shrink M_H and is skipped, 17 does
    ],
)
def test_auxiliary_primes_default_choice(level, primes):
    aux = auxiliary_primes(build_space(GroupSpec.gamma1(level)))
    assert aux.primes == primes
    assert not aux.capped


def test_explicit_primes_are_not_extended():
    sp = build_space(GroupSpec.gamma1(24))
    std = Lattice(len(sp.cuspidal), identity(len(sp.cuspidal)))
    lat, _ = hecke_kernel_lattice(sp, [5, 7])
    assert lattice_torsion_quotient(std, lat) == FinAbGroup([2, 2, 6, 240])
    lat, _ = hecke_kernel_lattice(sp)
    assert lattice_torsion_quotient(std, lat) == FinAbGroup([2, 2, 2, 240])
    # growing the default lattice prime by prime gives the explicit one
    assert lat == hecke_kernel_lattice(sp, [5, 7, 11])[0]


def test_auxiliary_primes_cap(monkeypatch):
    monkeypatch.setattr(jacobian, "MAX_AUXILIARY_PRIMES", 2)
    aux = auxiliary_primes(build_space(GroupSpec.gamma1(24)))
    assert aux.primes == [5, 7] and aux.capped


def _kernel_lattice_rational_route(sp, primes):
    """M_H through rational inverses (the reference route): A_q^-1 Z^(2g)
    for every nonsingular A_q, intersected, then the preimages of Z^(2g)
    under the singular A_q and under star - 1."""
    from modtors.intlinalg import det_bareiss, integer_rows, invert_rational
    from modtors.modsym import restrict_to_lattice

    g2 = len(sp.cuspidal)
    std = Lattice(g2, identity(g2))
    lat, singular = None, []
    for q in primes:
        a = jacobian.frobenius_kill_operator(sp, q)
        if det_bareiss(a) == 0:
            singular.append(a)
            continue
        rows, den = integer_rows(invert_rational(a))
        inv = Lattice(g2, rows, den)
        lat = inv if lat is None else lat.intersect(inv)
    if lat is None:
        raise ArithmeticError("all Hecke kill operators singular")
    star = restrict_to_lattice(sp.star_matrix(), sp.cuspidal)
    for i in range(g2):
        star[i][i] -= 1
    for a in singular + [star]:
        lat = lat.preimage(a, std)
    return lat


@pytest.mark.parametrize(
    "spec",
    [
        GroupSpec.gamma1(13),
        GroupSpec.gamma1(16),
        GroupSpec.gamma1(21),
        GroupSpec.gamma1(24),
        GroupSpec.gamma1(28),
        GroupSpec.gamma1(29),
        GroupSpec.gamma1(33),
        GroupSpec.x1_2_2n(9),
        GroupSpec.gamma0(30),
    ],
    ids=lambda s: s.label(),
)
def test_kernel_lattice_matches_rational_route(spec):
    sp = build_space(spec)
    aux = auxiliary_primes(sp)
    assert hecke_kernel_lattice(sp)[0] == _kernel_lattice_rational_route(sp, aux.primes)
    explicit = [5, 7] if sp.level % 5 and sp.level % 7 else good_primes(sp.level, 2)
    lat, _ = hecke_kernel_lattice(sp, explicit)
    assert lat == _kernel_lattice_rational_route(sp, explicit)


def test_kernel_lattice_with_singular_operators(monkeypatch):
    spec = GroupSpec.gamma1(24)
    kill = jacobian.frobenius_kill_operator

    def singular_at(bad):
        def patched(space, q):
            a = kill(space, q)
            if q in bad:  # drop one column: a weaker condition on x
                a = a.copy()
                a[:, 0] = 0
            return a

        return patched

    # each patch gets a freshly built space: the kernel lattice is memoised
    primes = [5, 7, 11]
    full, _ = hecke_kernel_lattice(build_space(spec), primes)
    monkeypatch.setattr(jacobian, "frobenius_kill_operator", singular_at({7}))
    sp = build_space(spec)
    lat, _ = hecke_kernel_lattice(sp, primes)
    assert lat == _kernel_lattice_rational_route(sp, primes)
    assert lat.contains_lattice(full)
    monkeypatch.setattr(jacobian, "frobenius_kill_operator", singular_at(set(primes)))
    with pytest.raises(ArithmeticError):
        hecke_kernel_lattice(build_space(spec), primes)


@pytest.mark.parametrize(
    "spec",
    [
        GroupSpec.gamma1(13),
        GroupSpec.gamma1(21),
        GroupSpec.gamma1(24),
        GroupSpec.gamma1(29),
        GroupSpec.x1_2_2n(9),
        GroupSpec.gamma0(30),
        pytest.param(GroupSpec.gamma1(55), marks=pytest.mark.stretch),
    ],
    ids=lambda s: s.label(),
)
def test_kernel_lattices_match_preimage_folds(spec, monkeypatch):
    # Gamma1(55) has 5^22 in m, past int64: its local kernel is found mod
    # 5^f, the largest power that fits, and needs no Python-int pass
    from modtors import intlinalg

    calls = []
    phase = intlinalg._smith_phase

    def spy(a, l, e, dtype, track):
        calls.append((l, e, dtype))
        return phase(a, l, e, dtype, track)

    monkeypatch.setattr(intlinalg, "_smith_phase", spy)
    sp = build_space(spec)
    aux = auxiliary_primes(sp)
    assert Lattice(len(aux.kernel), aux.kernel, aux.m) == kernel_lattice_fold(sp, aux.primes)
    l_prin, lam_div = class_lattice_folds(sp)
    proj = jacobian._projector(sp)
    assert Lattice(len(proj.phi), kernel_mod(proj.phi, proj.den)) == l_prin
    cc = cuspidal_class_group(sp)
    assert Lattice(len(proj.phi), kernel_mod(cc.galois_block, proj.den)) == lam_div
    if sp.level == 55:
        assert (5, 13, np.int64) in calls
        assert all(dtype is np.int64 for _, _, dtype in calls)


def test_torsion_layer_needs_no_rational_inverse(monkeypatch):
    from modtors import intlinalg

    original = intlinalg.invert_rational

    def refuse(a):
        raise AssertionError("rational inverse in the torsion layer")

    for name, mod in list(sys.modules.items()):
        if name == "modtors" or name.startswith("modtors."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, refuse)
    rep = torsion_report(build_space(GroupSpec.gamma1(21)))
    assert rep.hecke_bound == FinAbGroup([364]) and rep.verdict == "equal"
    sp = build_space(GroupSpec.gamma1(24))
    mh = hecke_bound_group(sp)
    assert mh == FinAbGroup([2, 2, 2, 240])


def test_hecke_bound_contains_clccq():
    for spec in (
        GroupSpec.gamma1(21),
        GroupSpec.gamma1(24),
        GroupSpec.x1_2_2n(8),
        GroupSpec.gamma0(30),
    ):
        sp = build_space(spec)
        cc = cuspidal_class_group(sp)
        lat, _ = hecke_kernel_lattice(sp)
        assert lat.contains_lattice(_former_class_group(sp).lattice_ccq)
        mh = hecke_bound_group(sp)
        assert embeds_in(cc.clcc_q, mh)


def test_manin_drinfeld_classes():
    sp = build_space(GroupSpec.gamma0(11))
    proj = jacobian._projector(sp)
    # zero divisor -> zero class
    cls = proj.class_of_divisor([0, 0])
    assert all(x == 0 for x in cls)
    # (0) - (infinity) has order 5 in J0(11)
    div = [0, 0]
    div[sp.group.cusp_index_of_fraction(0, 1)] += 1
    div[sp.group.cusp_index_of_fraction(1, 0)] -= 1
    cls = [x % 1 for x in proj.class_of_divisor(div)]
    orders = {Fraction(x).denominator for x in cls}
    assert max(orders) == 5 and all(0 <= x < 1 for x in cls)
    with pytest.raises(ValueError):
        proj.class_of_divisor([1, 0])  # degree not zero


def _eisenstein_annihilator(space):
    """(q, f): a Hecke index q and integral f with f(T_q) killing the
    Eisenstein complement while staying invertible on the cuspidal part.

    q is the least prime >= 7 not dividing N: all Eisenstein eigenvalues of
    T_q then exceed 2 sqrt(q) in absolute value in every embedding, so the
    minimal polynomial of T_q on the boundary quotient is coprime to the
    cuspidal characteristic polynomial.
    """
    from sympy import isprime, nextprime

    from modtors.intlinalg import hnf, minpoly, solve_integer
    from modtors.modsym import hecke_operator

    n = space.level
    q = 7
    while n % q == 0 or not isprime(q):
        q = int(nextprime(q))
    t = hecke_operator(space, q)
    bnd = space.boundary
    h, u = hnf(bnd, transform=True)
    r = []
    for v in u[: len(h)]:  # u[i] @ bnd = h[i]
        w = exact_product(exact_product(v, t), bnd).tolist()
        coords = solve_integer(h, w)
        assert coords is not None, "boundary image not Hecke stable"
        r.append(coords)
    f = minpoly(r)
    return q, f


class _HornerProjector:
    """Hecke-equivariant projection of the symbol space onto its cuspidal
    part, evaluated vector by vector (the reference route: f(T_q) applied by
    Horner, one solve per divisor).

    For gamma with integral boundary divisor D, project(gamma) returns the
    coordinates (Fractions) over the cuspidal basis of the class of D; the
    class of the divisor in H1(Q)/H1(Z) is that vector mod Z^(2g).
    """

    def __init__(self, space):
        from modtors.intlinalg import MODP, ModPEchelon, transpose
        from modtors.modsym import hecke_operator

        self.space = space
        q, f = _eisenstein_annihilator(space)
        self.q = q
        self.f = f
        self.t = hecke_operator(space, q)
        s = space.cuspidal
        self.s = s
        self.ps = [self._row_poly(v) for v in s.tolist()]
        # choose independent columns of PS once (mod p); entries are huge,
        # reduce in python ints before handing to numpy
        piv = []
        for p2 in (MODP, 2147483629, 1000003):
            ech = ModPEchelon.from_rows([[x % p2 for x in row] for row in self.ps], p2)
            piv = sorted(ech.piv)
            if len(piv) == len(self.ps):
                break
        assert len(piv) == len(self.ps), "annihilator not invertible on S"
        self.cols = piv
        self.sub = [[row[j] for j in piv] for row in self.ps]
        self.sub_t = transpose(self.sub)

    def _row_poly(self, v):
        """v @ f(T) by Horner on row vectors."""
        f, t = self.f, self.t
        out = [f[-1] * x for x in v]
        for c in reversed(f[:-1]):
            out = exact_product(out, t).tolist()
            if c:
                for i, x in enumerate(v):
                    out[i] += c * x
        return out

    def project(self, gamma):
        """Coordinates over the cuspidal basis of the projection of gamma."""
        from modtors.intlinalg import integer_rows, solve_dixon

        pe = self._row_poly(gamma)
        rhs = [pe[j] for j in self.cols]
        x = solve_dixon(self.sub_t, rhs)
        # exact verification on all coordinates
        (num,), den = integer_rows([x])
        check = exact_product(num, self.ps).tolist()
        assert check == [den * v for v in pe], "projector solve mismatch"
        return x

    def class_of_divisor(self, divisor):
        """Class coordinates of a degree-0 integral cuspidal divisor."""
        from modtors.intlinalg import solve_integer

        if sum(divisor) != 0:
            raise ValueError("divisor must have degree 0")
        gamma = solve_integer(self.space.boundary, list(divisor))
        if gamma is None:
            raise ValueError("divisor not in the boundary image lattice")
        return self.project(gamma)


@pytest.mark.parametrize(
    "spec",
    [
        GroupSpec.gamma0(11),
        GroupSpec.gamma0(30),
        GroupSpec.gamma0(65),
        GroupSpec.gamma1(13),
        GroupSpec.gamma1(24),
        GroupSpec.gamma1(36),
        GroupSpec.x1_2_2n(9),
        GroupSpec.x1_2_2n(12),
    ],
    ids=lambda s: s.label(),
)
def test_boundary_lifts_from_the_cusp_forest(spec):
    sp = build_space(spec)
    c = sp.ncusps
    lifts = jacobian.boundary_lifts(sp)
    assert len(lifts) == c - 1
    for i, gamma in enumerate(lifts):
        assert len(gamma) == sp.dim
        assert sp.boundary_image(gamma) == [(j == i) - (j == c - 1) for j in range(c)]


def test_boundary_lifts_refuse_a_disconnected_cusp_graph(monkeypatch):
    # with every edge at the last cusp dropped, no path reaches it
    sp = build_space(GroupSpec.gamma1(13))
    c = sp.ncusps
    cut = [(h, t) if c - 1 not in (h, t) else (0, 0) for h, t in sp.edges]
    monkeypatch.setattr(sp, "edges", cut)
    with pytest.raises(ValueError, match="boundary image"):
        jacobian.boundary_lifts(sp)


def test_manin_drinfeld_lift_independent():
    from modtors.intlinalg import solve_integer

    sp = build_space(GroupSpec.gamma1(13))
    proj = _HornerProjector(sp)
    div = [0] * sp.ncusps
    div[0] = 1
    div[-1] = -1
    gamma = solve_integer(sp.boundary, div)
    # shift the lift by an integral cuspidal vector: class must not change
    shifted = [a + b for a, b in zip(gamma, sp.cuspidal[0].tolist())]
    x1 = proj.project(gamma)
    x2 = proj.project(shifted)
    assert all((a - b).denominator == 1 for a, b in zip(x1, x2))
    # and the one-solve projector gives the same class
    assert all((a - b).denominator == 1 for a, b in zip(
        x1, jacobian.ManinDrinfeldProjector(sp).class_of_divisor(div)))


def _one_solve_per_divisor(sp):
    """Cl^cc, Cl^cc_Q and (Cl^cc)^G lattices with every class solved on its
    own through the Horner projector (the reference route); the divisors
    with Galois-invariant class come from the preimage folds."""
    from modtors.intlinalg import kernel_basis
    from modtors.jacobian import galois_cusp_permutation, unit_group_gens

    proj = _HornerProjector(sp)
    c, g2 = sp.ncusps, len(sp.cuspidal)

    def lattice_of(divisors):
        classes = [proj.class_of_divisor(d) for d in divisors]
        den = 1
        for row in classes:
            for x in row:
                den = den * x.denominator // gcd(den, x.denominator)
        rows = [[int(x * den) for x in row] for row in classes]
        rows += [[den if i == j else 0 for j in range(g2)] for i in range(g2)]
        return Lattice(g2, rows, den)

    basis = [[1 if j == i else -1 if j == c - 1 else 0 for j in range(c)]
             for i in range(c - 1)]
    perms = [galois_cusp_permutation(sp, s) for s in unit_group_gens(sp.level)]
    orbits, seen = [], set()
    for start in range(c):
        if start in seen:
            continue
        orbit, frontier = {start}, [start]
        while frontier:
            x = frontier.pop()
            for perm in perms:
                if perm[x] not in orbit:
                    orbit.add(perm[x])
                    frontier.append(perm[x])
        seen |= orbit
        orbits.append([1 if i in orbit else 0 for i in range(c)])
    invariant = []
    for a in kernel_basis([[sum(o) for o in orbits]]):
        invariant.append([sum(aj * o[i] for aj, o in zip(a, orbits)) for i in range(c)])
    inv_rows = [list(r) + [-sum(r)] for r in class_lattice_folds(sp)[1].basis]
    return lattice_of(basis), lattice_of(invariant), lattice_of(inv_rows), proj, invariant


@pytest.mark.parametrize(
    "spec",
    [
        GroupSpec.gamma1(13),
        GroupSpec.gamma1(21),
        GroupSpec.gamma1(24),
        GroupSpec.gamma1(28),
        GroupSpec.gamma1(29),
        GroupSpec.gamma1(30),
        GroupSpec.x1_2_2n(9),
        GroupSpec.gamma0(11),
        GroupSpec.gamma0(30),
    ],
    ids=lambda s: s.label(),
)
def test_class_lattices_match_one_solve_per_divisor(spec):
    from modtors.intlinalg import transpose

    sp = build_space(spec)
    cc = cuspidal_class_group(sp)
    l_cc, l_ccq, l_inv, proj, invariant = _one_solve_per_divisor(sp)
    former = _former_class_group(sp)
    assert (former.lattice_cc, former.lattice_ccq, former.lattice_inv) == (l_cc, l_ccq, l_inv)
    g2, den = len(sp.cuspidal), jacobian._projector(sp).den
    std = Lattice(g2, identity(g2))
    assert cc.clcc == lattice_torsion_quotient(std, l_cc)
    assert cc.clcc_q == lattice_torsion_quotient(std, l_ccq)
    # Cl^cc_Q is classes_q / den + Z^(2g), and `_dual` of it is its dual:
    # l_ccq pairs integrally with the dual, and [Z^(2g) : dual] = #Cl^cc_Q
    eye = [[den if i == j else 0 for j in range(g2)] for i in range(g2)]
    assert Lattice(g2, cc.classes_q.tolist() + eye, den) == l_ccq
    dual = jacobian._dual(cc.classes_q, g2, den)
    pairing = np.array(l_ccq.basis, dtype=object) @ np.array(transpose(dual), dtype=object)
    assert not (pairing % l_ccq.den).any()
    assert abs(det_bareiss(dual)) == cc.clcc_q.order()
    # the divisors of (Cl^cc)^G are the kernel of the Galois block mod den
    assert _class_lattice(sp, kernel_mod(cc.galois_block, den)) == l_inv
    for div in invariant:
        want = [x - (x.numerator // x.denominator) for x in proj.class_of_divisor(div)]
        assert [x % 1 for x in jacobian._projector(sp).class_of_divisor(div)] == want


def test_torsion_report_solves_each_cusp_class_once(monkeypatch):
    from modtors.jacobian import ManinDrinfeldProjector

    calls = {"build": 0, "class_of_divisor": 0}
    init, solve = ManinDrinfeldProjector.__init__, ManinDrinfeldProjector.class_of_divisor

    def counted_init(self, space):
        calls["build"] += 1
        init(self, space)

    def counted_solve(self, divisor):
        calls["class_of_divisor"] += 1
        return solve(self, divisor)

    monkeypatch.setattr(ManinDrinfeldProjector, "__init__", counted_init)
    monkeypatch.setattr(ManinDrinfeldProjector, "class_of_divisor", counted_solve)
    sp = build_space(GroupSpec.gamma1(21))
    rep = torsion_report(sp)
    assert rep.clcc_q == FinAbGroup([364])
    # one solve gives all c - 1 basis classes; no divisor is solved alone
    assert calls == {"build": 1, "class_of_divisor": 0}
    # the memo serves every later request of the level
    hecke_bound_group(sp)
    jacobian._projector(sp).class_of_divisor([1] + [0] * (sp.ncusps - 2) + [-1])
    assert calls == {"build": 1, "class_of_divisor": 1}


def _sylvester_holds(num, den, ts, r, z):
    ry = exact_product(r, num).tolist()
    return all(
        a - b == den * c
        for y, yr, zr in zip(num, ry, np.asarray(z).tolist())
        for a, b, c in zip(exact_product(y, ts).tolist(), yr, zr)
    )


def test_sylvester_solve_is_certified(monkeypatch):
    sp = build_space(GroupSpec.gamma1(21))
    seen = []
    solve = jacobian._solve_sylvester

    def recorded(ts, r, z):
        num, den = solve(ts, r, z)
        seen.append((ts, r, z, num, den))
        return num, den

    monkeypatch.setattr(jacobian, "_solve_sylvester", recorded)
    proj = jacobian.ManinDrinfeldProjector(sp)
    ((ts, r, z, num, den),) = seen
    assert (proj.phi, proj.den) == (num, den)
    assert _sylvester_holds(num, den, ts, r, z)
    for i, j in ((0, 0), (len(num) - 1, len(ts) - 1)):
        bad = [row[:] for row in num]
        bad[i][j] += 1
        assert not _sylvester_holds(bad, den, ts, r, z)
    monkeypatch.undo()
    # small primes: many CRT steps, the same classes
    monkeypatch.setattr(jacobian, "MODP", 1009)
    assert jacobian._solve_sylvester(ts, r, z) == (num, den)
    monkeypatch.undo()
    # a wrong reconstructed candidate is refused and more primes are taken
    integer_rows, tried = jacobian.integer_rows, []

    def first_wrong(rows):
        out, d = integer_rows(rows)
        if not tried:
            out[0][0] += 1
        tried.append(d)
        return out, d

    monkeypatch.setattr(jacobian, "integer_rows", first_wrong)
    assert jacobian._solve_sylvester(ts, r, z) == (num, den)
    assert len(tried) >= 2


def test_dropped_space_is_freed():
    import gc
    import weakref

    # nothing in the memo refers back to the space, so reference counting
    # alone frees it, with the cycle collector off
    gc.disable()
    try:
        for spec in (GroupSpec.gamma1(21), GroupSpec.gamma1(24), GroupSpec.x1_2_2n(9)):
            sp = build_space(spec)
            torsion_report(sp)
            ref = weakref.ref(sp)
            del sp
            assert ref() is None, spec.label()
    finally:
        gc.enable()


def test_memo_keys_follow_inputs(monkeypatch):
    sp = build_space(GroupSpec.gamma1(24))
    cc = cuspidal_class_group(sp)
    assert cuspidal_class_group(sp) is cc
    default = auxiliary_primes(sp)
    assert auxiliary_primes(sp) is default and not default.capped
    monkeypatch.setattr(jacobian, "MAX_AUXILIARY_PRIMES", 2)
    capped = auxiliary_primes(sp)
    assert capped.primes == [5, 7] and capped.capped
    monkeypatch.undo()
    assert auxiliary_primes(sp) is default
    assert auxiliary_primes(sp, (5, 7)) is auxiliary_primes(sp, [5, 7])
    for bad in ([5], [5, 3], [5, 4], [5, 5]):
        with pytest.raises(ValueError):
            hecke_kernel_lattice(sp, bad)


def test_a_skipped_prime_costs_one_product(monkeypatch):
    from collections import Counter

    # Gamma1(33) keeps 5 and 7, then tries and skips 13, 17, 19, 23 and 29;
    # the class group is built first, since its groups are spans too
    sp = build_space(GroupSpec.gamma1(33))
    cuspidal_class_group(sp)
    calls, tried = Counter(), set()

    def counting(name, fn):
        def spy(*args):
            calls[name] += 1
            return fn(*args)

        return spy

    kill = jacobian.frobenius_kill_operator
    monkeypatch.setattr(jacobian, "det_bareiss", counting("det", jacobian.det_bareiss))
    monkeypatch.setattr(jacobian, "kernel_mod", counting("kernel", jacobian.kernel_mod))
    monkeypatch.setattr(jacobian, "span_mod", counting("span", jacobian.span_mod))
    monkeypatch.setattr(jacobian, "frobenius_kill_operator",
                        lambda space, q: tried.add(q) or kill(space, q))
    assert auxiliary_primes(sp).primes == [5, 7]
    assert tried == {5, 7, 13, 17, 19, 23, 29}
    # the kernel of M_H and, for the open sandwich, the spans of M_H and of
    # phi B mod den; no kernel and no span for a skipped prime
    assert calls == {"det": 2, "kernel": 1, "span": 2}
    report = torsion_report(sp)
    assert report.primes == [5, 7] and report.verdict == "equal"
    assert calls["det"] == 2


def test_kill_operator_built_once_per_prime(monkeypatch):
    from collections import Counter

    from modtors.jacobian import frobenius_kill_operator

    # the kill operator is the only caller of <q> in the torsion layer, so
    # each call of it there is one build
    builds = Counter()
    diamond = jacobian.diamond_operator

    def counting(space, q):
        builds[q] += 1
        return diamond(space, q)

    monkeypatch.setattr(jacobian, "diamond_operator", counting)
    sp = build_space(GroupSpec.gamma1(24))
    report = torsion_report(sp)
    assert set(report.primes) <= set(builds)
    assert set(builds.values()) == {1}
    assert frobenius_kill_operator(sp, 5) is frobenius_kill_operator(sp, 5)
    assert builds[5] == 1


@pytest.mark.parametrize(
    "N,want",
    [
        (13, [19]),
        (16, [2, 10]),
        (17, [584]),
        (18, [21]),
        (20, [60]),
        (21, [364]),
        (22, [5, 775]),
        (24, [2, 2, 120]),
        (25, [227555]),
        (28, [2, 4, 12, 936]),
    ],
)
def test_table1_small_levels(N, want):
    cc = cuspidal_class_group(build_space(GroupSpec.gamma1(N)))
    assert cc.clcc_q == FinAbGroup(want)
    assert cc.surjective


@pytest.mark.parametrize(
    "n2,want",
    [
        (5, [6]),
        (6, [4]),
        (7, [2, 2, 6, 18]),
        (8, [2, 20, 20]),
        (9, [2, 42, 126]),
        (10, [4, 60, 120]),
    ],
)
def test_table2_small_levels(n2, want):
    cc = cuspidal_class_group(build_space(GroupSpec.x1_2_2n(n2)))
    assert cc.clcc_q == FinAbGroup(want)


def test_x1_21_full_cuspidal_group_order():
    # classes of cusp differences generate a group of order 364 rationally;
    # the geometric cuspidal group is larger
    cc = cuspidal_class_group(build_space(GroupSpec.gamma1(21)))
    assert cc.clcc_q.order() == 364
    assert cc.clcc.order() % 364 == 0


def test_clccq_order_divides_local_orders():
    for N in (13, 16, 21, 24):
        sp = build_space(GroupSpec.gamma1(N))
        cc = cuspidal_class_group(sp)
        for p in good_primes(N, 2):
            assert jacobian_order_mod_p(sp, p) % cc.clcc_q.order() == 0


def test_pipeline_verdicts():
    v, k, cc, stage = torsion_is_cuspidal(build_space(GroupSpec.gamma1(28)))
    assert v == "equal" and stage == "sandwich"
    v, k, cc, stage = torsion_is_cuspidal(build_space(GroupSpec.gamma1(24)))
    assert v == "equal" and stage == "maximal-ideal"


def _class_lattice(sp, divisors):
    """Z^(2g) plus the classes of the integral degree-0 divisors given as
    rows over the d_i, as a lattice over the cuspidal basis."""
    proj = jacobian._projector(sp)
    g2 = len(sp.cuspidal)
    rows = exact_product(divisors, proj.phi).tolist() if len(divisors) else []
    rows += [[proj.den if i == j else 0 for j in range(g2)] for i in range(g2)]
    return Lattice(g2, rows, proj.den)


def _former_class_group(sp):
    """The former class-group code on lattices: Cl^cc, Cl^cc_Q and (Cl^cc)^G
    as lattices over the cuspidal basis (`lattice_cc`, `lattice_ccq`,
    `lattice_inv`), the groups as torsion quotients, and surjectivity as the
    equality of the divisor lattices of (Cl^cc)^G and of the invariant plus
    the principal divisors."""
    from types import SimpleNamespace

    from modtors.intlinalg import kernel_basis

    c, g2 = sp.ncusps, len(sp.cuspidal)
    std = Lattice(g2, identity(g2))
    if g2 == 0:
        return SimpleNamespace(clcc=FinAbGroup([]), clcc_q=FinAbGroup([]), surjective=True,
                               lattice_cc=std, lattice_ccq=std, lattice_inv=std)
    proj = jacobian._projector(sp)
    l_cc = _class_lattice(sp, identity(c - 1))
    l_prin = Lattice(c - 1, kernel_mod(proj.phi, proj.den))
    perms = [jacobian.galois_cusp_permutation(sp, s) for s in jacobian.unit_group_gens(sp.level)]
    orbit_of = orbit_partition(perms, c)
    orbit_sums = [[int(o == k) for o in orbit_of] for k in range(max(orbit_of) + 1)]
    combos = kernel_basis([[sum(row) for row in orbit_sums]])
    inv_divs = exact_product(combos, orbit_sums)[:, : c - 1].tolist() if combos else []
    l_ccq = _class_lattice(sp, inv_divs)
    phi = proj.phi + [[0] * g2]
    block = [
        [x - y - z for s in perms for x, y, z in zip(phi[s[i]], phi[s[c - 1]], phi[i])]
        for i in range(c - 1)
    ]
    lam_div = Lattice(c - 1, kernel_mod(block, proj.den))
    l_inv_div = Lattice(c - 1, inv_divs).sum(l_prin) if inv_divs else l_prin
    return SimpleNamespace(
        clcc=lattice_torsion_quotient(std, l_cc),
        clcc_q=lattice_torsion_quotient(std, l_ccq),
        surjective=lam_div == l_inv_div,
        lattice_cc=l_cc,
        lattice_ccq=l_ccq,
        lattice_inv=_class_lattice(sp, lam_div.basis),
    )


def _pipeline_oracle(sp, primes, surjective=None):
    """(Hecke bound, verdict, k, stage, Cl^cc, Cl^cc_Q, surjective) by the
    former stage code on the lattices of `_former_class_group` (its
    surjectivity unless `surjective` is given): stage (ii) compares
    (M cap (1/p) C) + C with (M' cap (1/p) C) + C for each p dividing
    #(M_H / Z^(2g)), stage (iii) takes [M + Cl^cc : Cl^cc] through the
    lattice sum, and the bound is cut by (Cl^cc)^G only when M_H lies in
    Cl^cc."""
    from sympy import factorint

    cc = _former_class_group(sp)
    groups = (cc.clcc, cc.clcc_q, cc.surjective)
    if surjective is None:
        surjective = cc.surjective
    lat, _ = hecke_kernel_lattice(sp, primes)
    if lat.ambient == 0:
        return FinAbGroup([]), "equal", 1, "trivial", *groups
    std = Lattice(lat.ambient, identity(lat.ambient))
    inside = cc.lattice_cc.contains_lattice(lat)
    cut = lat.intersect(cc.lattice_inv) if inside else lat
    bound = lattice_torsion_quotient(std, cut)
    if surjective and inside:
        return bound, "equal", 1, "sandwich", *groups
    mprime = lat.intersect(cc.lattice_cc)
    c_lat = cc.lattice_ccq
    if surjective and all(
        lat.intersect(Lattice(c_lat.ambient, c_lat.basis, p * c_lat.den)).sum(c_lat)
        == mprime.intersect(Lattice(c_lat.ambient, c_lat.basis, p * c_lat.den)).sum(c_lat)
        for p in factorint(lattice_torsion_quotient(std, lat).order())
    ):
        return bound, "equal", 1, "maximal-ideal", *groups
    k = lattice_torsion_quotient(cc.lattice_cc, lat.sum(cc.lattice_cc)).order()
    return bound, f"index-divides-{k}", k, "index", *groups


_EXPLICIT_PRIME_CASES = [
    (GroupSpec.gamma1(13), [3, 5]),
    (GroupSpec.gamma1(21), [5, 11]),
    (GroupSpec.gamma1(24), [5, 7]),
    (GroupSpec.gamma1(28), [3, 5]),
    (GroupSpec.gamma1(28), [3, 5, 11]),
    (GroupSpec.x1_2_2n(8), [3, 5]),
    (GroupSpec.x1_2_2n(9), [5, 7]),
    (GroupSpec.gamma0(30), [7, 23]),
]


@pytest.mark.parametrize(
    "cases",
    [
        pytest.param([(GroupSpec.gamma1(n), None) for n in range(11, 31)], id="gamma1-11-30"),
        pytest.param([(GroupSpec.gamma1(n), None) for n in range(31, 37)], id="gamma1-31-36",
                     marks=pytest.mark.stretch),
        pytest.param([(GroupSpec.x1_2_2n(n), None) for n in range(3, 19)], id="x1-2-2n-3-18",
                     marks=pytest.mark.stretch),
        pytest.param([(GroupSpec.gamma0(n), None) for n in range(11, 80)], id="gamma0-11-79",
                     marks=pytest.mark.stretch),
        pytest.param(_EXPLICIT_PRIME_CASES, id="explicit-primes", marks=pytest.mark.stretch),
    ],
)
def test_pipeline_matches_former_stage_code(cases):
    for spec, primes in cases:
        sp = build_space(spec)
        verdict, k, cc, stage = torsion_is_cuspidal(sp, primes)
        got = (hecke_bound_group(sp, primes), verdict, k, stage, cc.clcc, cc.clcc_q, cc.surjective)
        assert got == _pipeline_oracle(sp, primes), (spec.label(), primes)


def test_pipeline_refuses_clccq_outside_the_bound(monkeypatch):
    from dataclasses import replace

    sp = build_space(GroupSpec.gamma1(13))
    cc = cuspidal_class_group(sp)
    # M_H / Z^(2g) has order 19, and the class e_1 / 19 is not inside it
    assert jacobian._projector(sp).den == 19
    outside = np.eye(1, len(sp.cuspidal), dtype=np.int64)
    assert not hecke_kernel_lattice(sp)[0].contains(outside[0].tolist(), 19)
    monkeypatch.setitem(sp._memo, "class group", replace(cc, classes_q=outside))
    with pytest.raises(ArithmeticError, match=r"Gamma1\(13\): Cl\^cc_Q is not inside M_H"):
        torsion_is_cuspidal(sp)


def test_pipeline_without_surjective_invariants(monkeypatch):
    # M_H lies in Cl^cc at Gamma1(28); without surjective invariants
    # neither the sandwich nor stage (ii) may decide, and the index is 1
    from dataclasses import replace

    sp = build_space(GroupSpec.gamma1(28))
    cc = cuspidal_class_group(sp)
    monkeypatch.setitem(sp._memo, "class group", replace(cc, surjective=False))
    verdict, k, _, stage = torsion_is_cuspidal(sp)
    assert (verdict, k, stage) == ("index-divides-1", 1, "index")
    lat, _ = hecke_kernel_lattice(sp)
    cut = lat.intersect(_former_class_group(sp).lattice_inv)
    bound = hecke_bound_group(sp)
    std = Lattice(lat.ambient, identity(lat.ambient))
    assert bound == lattice_torsion_quotient(std, cut)
    assert (bound, verdict, k, stage) == _pipeline_oracle(sp, None, surjective=False)[:4]


def test_class_dual_is_built_only_by_stage_ii(monkeypatch):
    # the dual rows of Cl^cc_Q are read only by the p-torsion comparison of
    # stage (ii): once per level there, never at a sandwich level
    calls = []
    dual = jacobian._dual
    monkeypatch.setattr(jacobian, "_dual", lambda *args: calls.append(args) or dual(*args))
    for n, stage in ((21, "sandwich"), (24, "maximal-ideal")):
        calls.clear()
        sp = build_space(GroupSpec.gamma1(n))
        assert torsion_is_cuspidal(sp)[3] == stage
        assert len(calls) == (stage == "maximal-ideal")


def test_sandwich_bound_is_clccq_without_intersection(monkeypatch):
    # Gamma1(21): M_H lies in Cl^cc and the invariants are surjective, so
    # the bound M_H cap (Cl^cc)^G is Cl^cc_Q and no cut is built: once the
    # class group and the primes are in the memo, with the index [M_H : M']
    # the default rule found, the pipeline solves no kernel
    import json
    from pathlib import Path

    sp = build_space(GroupSpec.gamma1(21))
    cuspidal_class_group(sp)
    auxiliary_primes(sp)
    calls = []
    kernel = jacobian.kernel_mod
    monkeypatch.setattr(jacobian, "kernel_mod", lambda a, m: calls.append(m) or kernel(a, m))
    rep = torsion_report(sp)
    assert calls == []
    monkeypatch.undo()
    snapshot = Path(__file__).resolve().parent / "snapshots" / "torsion_gamma1_21-30.json"
    assert {**rep.to_json(), "level": 21} == json.loads(snapshot.read_text())["results"][0]
    assert rep.hecke_bound == _pipeline_oracle(sp, None)[0]


def test_torsion_layer_needs_no_lattice(monkeypatch):
    # once the space is built and its rank certified (the rank-zero
    # certificate reads a Hermite row count), a torsion report calls no
    # Lattice method and no Hermite form: at Gamma1(21), decided at the
    # sandwich, and at Gamma1(24), decided at stage (ii).  It takes one
    # Smith form per level, in the class group's cross-check of Div^0 / P
    from modtors import intlinalg

    spaces = {n: build_space(GroupSpec.gamma1(n)) for n in (21, 24)}
    certs = {n: is_rank_zero(sp) for n, sp in spaces.items()}
    monkeypatch.setattr(jacobian, "is_rank_zero", lambda space: certs[space.level])

    def refuse(*args, **kwargs):
        raise AssertionError("Lattice or Hermite form in the torsion layer")

    smith, smith_calls = intlinalg.smith_normal_form, []

    def counted_smith(*args, **kwargs):
        smith_calls.append(args)
        return smith(*args, **kwargs)

    patches = {intlinalg.hnf: refuse, lattice_torsion_quotient: refuse, smith: counted_smith}
    for name, mod in list(sys.modules.items()):
        if name == "modtors" or name.startswith("modtors."):
            for key, value in list(vars(mod).items()):
                for original, patch in patches.items():
                    if value is original:
                        monkeypatch.setattr(mod, key, patch)
    for attr, value in list(vars(Lattice).items()):
        if callable(value) or isinstance(value, (classmethod, staticmethod)):
            monkeypatch.setattr(Lattice, attr, refuse)
    rep = torsion_report(spaces[21])
    assert rep.hecke_bound == FinAbGroup([364]) and rep.verdict == "equal"
    assert torsion_is_cuspidal(spaces[21])[3] == "sandwich"
    assert len(smith_calls) == 1
    rep = torsion_report(spaces[24])
    assert rep.primes == [5, 7, 11] and rep.verdict == "equal"
    assert torsion_is_cuspidal(spaces[24])[3] == "maximal-ideal"
    assert len(smith_calls) == 2


def test_j0_30_cuspidal_group():
    cc = cuspidal_class_group(build_space(GroupSpec.gamma0(30)))
    assert cc.clcc_q == FinAbGroup([2, 4, 24])
    sp = build_space(GroupSpec.gamma0(30))
    assert jacobian_order_mod_p(sp, 7) == 2 * 2 * 4 * 48
    assert jacobian_order_mod_p(sp, 23) == 2 * 12 * 24 * 24
    assert gcd(*(jacobian_order_mod_p(sp, p) for p in (7, 23))) == 768


def test_torsion_report_shape():
    rep = torsion_report(build_space(GroupSpec.gamma1(13)))
    js = rep.to_json()
    assert js["clcc_Q"] == [19]
    assert js["pipeline_verdict"] == "equal"
    assert js["rank_verdict"] == "rank_zero"
    assert js["primes"] == [3, 5] and js["primes_capped"] is False
    assert set(js["local_orders"]) == {"3", "5"}
