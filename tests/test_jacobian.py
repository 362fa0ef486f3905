import sys
from fractions import Fraction
from math import gcd

import pytest
from sympy import divisors

from modtors import jacobian
from modtors.abgroup import FinAbGroup
from modtors.jacobian import (
    auxiliary_primes,
    clcc_invariant_class_lattice,
    cuspidal_class_group,
    good_primes,
    hecke_bound_group,
    hecke_kernel_lattice,
    is_rank_zero,
    jacobian_order_mod_p,
    manin_drinfeld_class,
    sturm_bound,
    torsion_is_cuspidal,
    torsion_multiple,
    torsion_report,
    winding_sweep,
)
from modtors.lattice import Lattice, lattice_torsion_quotient
from modtors.modsym import GroupSpec, build_space, merel_family


def test_sturm_bounds():
    assert sturm_bound(GroupSpec.gamma0(11)) == 2
    assert sturm_bound(GroupSpec.gamma0(1)) == 1
    assert GroupSpec.gamma1(21).sl2_index() == 384
    assert sturm_bound(GroupSpec.gamma1(21)) == 64


def test_winding_element_is_path():
    sp = build_space(GroupSpec.gamma0(11))
    e = sp.winding_element()
    assert e == sp.path_vector((0, 1), (1, 0))
    assert any(e)


def _add_symbol(space, out, c, d, sign=1):
    for k, y in enumerate(space.symbol_vector(c, d)):
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
        for idx in space.path_symbols(range(d), d).tolist():
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


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.label())
def test_winding_sweep_matches_merel_oracle(spec):
    space = build_space(spec)
    bound = sturm_bound(spec)
    swept = list(winding_sweep(space, bound))
    assert [n for n, _ in swept] == list(range(1, bound + 1))
    for n, terms in swept:
        want = _merel_winding_vector(space, n)
        assert jacobian._exact_vector(space, terms) == want, n


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
    from modtors.intlinalg import MODP, vec_mat

    sp = build_space(spec)
    _, kept, _, _ = jacobian.winding_span_mod_p(sp, sturm_bound(sp.spec), MODP)
    assert kept
    for v in kept:
        assert sp.boundary_image(v) == vec_mat(v, sp.boundary)


def test_class_group_cross_check_raises(monkeypatch):
    # a wrong class lattice breaks Div^0 / principal = Cl^cc, and the check
    # raises ArithmeticError rather than a bare assert python -O would strip
    from modtors.modsym.space import ModSymSpace

    class_lattice = jacobian._class_lattice
    monkeypatch.setattr(jacobian, "_class_lattice",
                        lambda space, divs: class_lattice(space, divs).scale(1, 2))
    with pytest.raises(ArithmeticError, match="Cl\\^cc"):
        cuspidal_class_group(ModSymSpace(GroupSpec.gamma1(13)))


def _cuspidal_span_rank_zero(sp, kept, g):
    """The former rank-zero certificate (the reference route): an integer
    basis of span V cap ker d, whose rank is checked mod three primes and
    then over Q."""
    from modtors.immersion import cuspidal_span
    from modtors.intlinalg import MODP, rank_mod_p, rank_rational

    w = cuspidal_span(sp, kept)
    if not w:
        return False
    if any(rank_mod_p(w, q) >= g for q in (MODP, 2147483629, 999999937)):
        return True
    return rank_rational(w) >= g


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
    from modtors.intlinalg import MODP, rank_rational

    sp = build_space(spec)
    g = sp.genus()
    _, kept, s_dim, _ = jacobian.winding_span_mod_p(sp, sturm_bound(sp.spec), MODP)
    assert s_dim == g > 0
    assert jacobian._certify_rank_zero(sp, kept, g)
    assert _cuspidal_span_rank_zero(sp, kept, g)
    # the sweep stops at the vector that raised the cuspidal dimension to g
    fewer = kept[:-1]
    assert rank_rational(cuspidal_span(sp, fewer)) == g - 1
    assert not jacobian._certify_rank_zero(sp, fewer, g)
    assert not _cuspidal_span_rank_zero(sp, fewer, g)


def test_jacobian_orders_level21():
    sp = build_space(GroupSpec.gamma1(21))
    assert jacobian_order_mod_p(sp, 5) == 2184
    assert jacobian_order_mod_p(sp, 11) == 96824
    assert torsion_multiple(sp, [5, 11]) == 728
    with pytest.raises(ValueError):
        jacobian_order_mod_p(sp, 7)
    with pytest.raises(ValueError):
        jacobian_order_mod_p(sp, 4)


def test_jacobian_order_level11_point_counts():
    from conftest import curve11_ap

    sp = build_space(GroupSpec.gamma0(11))
    for p in (3, 5, 7, 13, 17, 19):
        assert jacobian_order_mod_p(sp, p) == p + 1 - curve11_ap(p)


def test_torsion_multiple_single_prime():
    sp = build_space(GroupSpec.gamma0(11))
    assert torsion_multiple(sp, [3]) == jacobian_order_mod_p(sp, 3)


def test_full_space_det_is_square_of_plus():
    from modtors.intlinalg import det_bareiss
    from modtors.jacobian import frobenius_kill_operator
    from modtors.modsym import restrict_to_lattice

    for spec, p in ((GroupSpec.gamma1(21), 5), (GroupSpec.gamma0(30), 7)):
        sp = build_space(spec)
        op = frobenius_kill_operator(sp, p)
        neg = [[-x for x in row] for row in op]
        full = abs(det_bareiss(restrict_to_lattice(neg, sp.cuspidal)))
        plus = jacobian_order_mod_p(sp, p)
        assert full == plus * plus


def test_hecke_bounds_paper_values():
    mh, gens = hecke_bound_group(build_space(GroupSpec.gamma1(28)), primes=[3, 5])
    assert mh == FinAbGroup([2, 4, 12, 936])
    assert sorted(o for o, _, _ in gens) == [2, 4, 12, 936]
    mh, _ = hecke_bound_group(build_space(GroupSpec.x1_2_2n(9)), primes=[5, 7])
    assert mh == FinAbGroup([2, 42, 126])
    mh, _ = hecke_bound_group(build_space(GroupSpec.x1_2_2n(8)), primes=[3, 5])
    assert mh == FinAbGroup([2, 20, 20])
    mh, _ = hecke_bound_group(build_space(GroupSpec.gamma1(21)), primes=[5, 11])
    assert mh == FinAbGroup([364])


def test_hecke_bound_monotone_in_primes():
    sp = build_space(GroupSpec.gamma1(28))
    m1, _ = hecke_bound_group(sp, primes=[3, 5])
    m2, _ = hecke_bound_group(sp, primes=[3, 5, 11])
    assert m2.embeds_in(m1)


@pytest.mark.parametrize(
    "level,primes",
    [
        (21, [5, 11]),  # Example 4.1: the two smallest good primes suffice
        (28, [3, 5]),  # Example 4.2
        (24, [5, 7, 11]),  # 11 shrinks M_H, 13 does not
    ],
)
def test_auxiliary_primes_default_choice(level, primes):
    aux = auxiliary_primes(build_space(GroupSpec.gamma1(level)))
    assert aux.primes == primes
    assert not aux.capped


def test_explicit_primes_are_not_extended():
    sp = build_space(GroupSpec.gamma1(24))
    std = Lattice.standard(sp.cuspidal.rank)
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

    g2 = sp.cuspidal.rank
    std = Lattice.standard(g2)
    lat, singular = None, []
    for q in primes:
        a = jacobian._restricted_kill_operator(sp, q)
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
    sp = build_space(GroupSpec.gamma1(24))
    kill = jacobian._restricted_kill_operator

    def singular_at(bad):
        def patched(space, q):
            a = kill(space, q)
            if q in bad:  # drop one column: a weaker condition on x
                for row in a:
                    row[0] = 0
            return a

        return patched

    primes = [5, 7, 11]
    full = jacobian._kernel_lattice(sp, primes)
    monkeypatch.setattr(jacobian, "_restricted_kill_operator", singular_at({7}))
    lat = jacobian._kernel_lattice(sp, primes)
    assert lat == _kernel_lattice_rational_route(sp, primes)
    assert lat.contains_lattice(full)
    monkeypatch.setattr(jacobian, "_restricted_kill_operator", singular_at(set(primes)))
    with pytest.raises(ArithmeticError):
        jacobian._kernel_lattice(sp, primes)


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
    mh, gens = hecke_bound_group(sp)
    assert mh == FinAbGroup([2, 2, 2, 240])
    lat, _ = hecke_kernel_lattice(sp)
    for order, row, den in gens:
        assert lat.contains(row, den)
        assert all(order * x % den == 0 for x in row)


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
        assert lat.contains_lattice(cc.lattice_ccq)
        mh, _ = hecke_bound_group(sp)
        assert cc.clcc_q.embeds_in(mh)


def test_manin_drinfeld_classes():
    sp = build_space(GroupSpec.gamma0(11))
    # zero divisor -> zero class
    cls = manin_drinfeld_class(sp, [0, 0])
    assert all(x == 0 for x in cls)
    # (0) - (infinity) has order 5 in J0(11)
    div = [0, 0]
    div[sp.group.cusp_index_of_fraction(0, 1)] += 1
    div[sp.group.cusp_index_of_fraction(1, 0)] -= 1
    cls = manin_drinfeld_class(sp, div)
    orders = {Fraction(x).denominator for x in cls}
    assert max(orders) == 5
    with pytest.raises(ValueError):
        manin_drinfeld_class(sp, [1, 0])  # degree not zero


def _eisenstein_annihilator(space):
    """(q, f): a Hecke index q and integral f with f(T_q) killing the
    Eisenstein complement while staying invertible on the cuspidal part.

    q is the least prime >= 7 not dividing N: all Eisenstein eigenvalues of
    T_q then exceed 2 sqrt(q) in absolute value in every embedding, so the
    minimal polynomial of T_q on the boundary quotient is coprime to the
    cuspidal characteristic polynomial.
    """
    from sympy import isprime, nextprime

    from modtors.intlinalg import hnf, minpoly, solve_integer, vec_mat
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
        w = vec_mat(vec_mat(v, t), bnd)
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
        import numpy as np

        from modtors.intlinalg import MODP, echelon_mod_p, transpose
        from modtors.modsym import hecke_operator

        self.space = space
        q, f = _eisenstein_annihilator(space)
        self.q = q
        self.f = f
        self.t = hecke_operator(space, q)
        s = space.cuspidal
        self.s = s
        self.ps = [self._row_poly(v) for v in s.basis]
        # choose independent columns of PS once (mod p); entries are huge,
        # reduce in python ints before handing to numpy
        piv = []
        for p2 in (MODP, 2147483629, 1000003):
            ps_np = np.array(
                [[x % p2 for x in row] for row in self.ps], dtype=np.int64
            )
            _, piv = echelon_mod_p(ps_np, p2)
            if len(piv) == len(self.ps):
                break
        assert len(piv) == len(self.ps), "annihilator not invertible on S"
        self.cols = piv
        self.sub = [[row[j] for j in piv] for row in self.ps]
        self.sub_t = transpose(self.sub)

    def _row_poly(self, v):
        """v @ f(T) by Horner on row vectors."""
        from modtors.intlinalg import vec_mat

        f, t = self.f, self.t
        out = [f[-1] * x for x in v]
        for c in reversed(f[:-1]):
            out = vec_mat(out, t)
            if c:
                for i, x in enumerate(v):
                    out[i] += c * x
        return out

    def project(self, gamma):
        """Coordinates over the cuspidal basis of the projection of gamma."""
        from modtors.intlinalg import integer_rows, solve_dixon, vec_mat

        pe = self._row_poly(gamma)
        rhs = [pe[j] for j in self.cols]
        x = solve_dixon(self.sub_t, rhs)
        # exact verification on all coordinates
        (num,), den = integer_rows([x])
        check = vec_mat(num, self.ps)
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


def test_manin_drinfeld_lift_independent():
    from modtors.intlinalg import solve_integer

    sp = build_space(GroupSpec.gamma1(13))
    proj = _HornerProjector(sp)
    div = [0] * sp.ncusps
    div[0] = 1
    div[-1] = -1
    gamma = solve_integer(sp.boundary, div)
    # shift the lift by an integral cuspidal vector: class must not change
    shifted = [a + b for a, b in zip(gamma, sp.cuspidal.basis[0])]
    x1 = proj.project(gamma)
    x2 = proj.project(shifted)
    assert all((a - b).denominator == 1 for a, b in zip(x1, x2))
    # and the one-solve projector gives the same class
    assert all((a - b).denominator == 1 for a, b in zip(
        x1, jacobian.ManinDrinfeldProjector(sp).class_of_divisor(div)))


def _one_solve_per_divisor(sp, cc):
    """Cl^cc, Cl^cc_Q and (Cl^cc)^G lattices with every class solved on its
    own through the Horner projector (the reference route)."""
    from modtors.intlinalg import kernel_basis
    from modtors.jacobian import galois_cusp_permutation, unit_group_gens

    proj = _HornerProjector(sp)
    c, g2 = sp.ncusps, sp.cuspidal.rank

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
    inv_rows = [list(r) + [-sum(r)] for r in cc.lattice_inv.basis]
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
    sp = build_space(spec)
    cc = cuspidal_class_group(sp)
    assert cc.lattice_inv.den == 1
    l_cc, l_ccq, l_inv, proj, invariant = _one_solve_per_divisor(sp, cc)
    assert cc.lattice_cc == l_cc
    assert cc.lattice_ccq == l_ccq
    assert clcc_invariant_class_lattice(sp) == l_inv
    for div in invariant:
        want = [x - (x.numerator // x.denominator) for x in proj.class_of_divisor(div)]
        assert manin_drinfeld_class(sp, div) == want


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
    manin_drinfeld_class(sp, [1] + [0] * (sp.ncusps - 2) + [-1])
    assert calls == {"build": 1, "class_of_divisor": 1}


def _sylvester_holds(num, den, ts, r, z):
    from modtors.intlinalg import vec_mat

    ry = [vec_mat(row, num) for row in r]
    return all(
        a - b == den * c
        for y, yr, zr in zip(num, ry, z)
        for a, b, c in zip(vec_mat(y, ts), yr, zr)
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
    lat, _ = hecke_kernel_lattice(sp, [5, 7])
    assert hecke_kernel_lattice(sp, (5, 7))[0] is lat
    for bad in ([5], [5, 3], [5, 4]):
        with pytest.raises(ValueError):
            hecke_kernel_lattice(sp, bad)


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


def test_j0_30_cuspidal_group():
    cc = cuspidal_class_group(build_space(GroupSpec.gamma0(30)))
    assert cc.clcc_q == FinAbGroup([2, 4, 24])
    sp = build_space(GroupSpec.gamma0(30))
    assert jacobian_order_mod_p(sp, 7) == 2 * 2 * 4 * 48
    assert jacobian_order_mod_p(sp, 23) == 2 * 12 * 24 * 24
    assert torsion_multiple(sp, [7, 23]) == 768


def test_torsion_report_shape():
    rep = torsion_report(build_space(GroupSpec.gamma1(13)))
    js = rep.to_json()
    assert js["clcc_Q"] == [19]
    assert js["pipeline_verdict"] == "equal"
    assert js["rank_verdict"] == "rank_zero"
    assert js["primes"] == [3, 5] and js["primes_capped"] is False
    assert set(js["local_orders"]) == {"3", "5"}
