import random

import pytest

from modtors import immersion
from modtors.immersion import (
    exact_divisors,
    immersion_certificate,
    immersion_matrix,
    joint_expansion_rows,
    rank_zero_quotient,
    reduction_targets,
)
from modtors.intlinalg import rank_mod_p
from modtors.jacobian import check_good_prime
from modtors.modsym import GroupSpec, build_space


def test_rank_zero_quotient_11():
    pieces = rank_zero_quotient(build_space(GroupSpec.gamma0(11)))
    assert [(len(basis), rank_zero) for basis, rank_zero in pieces] == [(1, True)]


def test_rank_zero_quotient_65():
    pieces = rank_zero_quotient(build_space(GroupSpec.gamma0(65)))
    dims = sorted((len(basis), rank_zero) for basis, rank_zero in pieces)
    # the winding quotient has dimension 4
    assert dims == [(1, False), (2, True), (2, True)]


def test_rank_zero_quotient_121():
    pieces = rank_zero_quotient(build_space(GroupSpec.gamma0(121)))
    assert sum(len(basis) for basis, _ in pieces) == 6
    assert sum(len(basis) for basis, rank_zero in pieces if rank_zero) == 5
    rank_one = [basis for basis, rank_zero in pieces if not rank_zero]
    assert len(rank_one) == 1 and len(rank_one[0]) == 1


def test_component_dims_sum_to_genus():
    for n in (11, 30, 65, 121):
        sp = build_space(GroupSpec.gamma0(n))
        assert sum(len(basis) for basis, _ in rank_zero_quotient(sp)) == sp.genus()


def test_coefficient_rows_level11():
    sp = build_space(GroupSpec.gamma0(11))
    inf = sp.group.cusp_index_of_fraction(1, 0)
    _, blocks = joint_expansion_rows(sp, [[1]], [inf], 10)
    assert blocks[inf] == [[1, -2, -1, 2, 1, 2, -2, 0, -2, -2]]


def test_coefficient_rows_eigenline_normalized():
    # a one-dimensional eigen-line yields a row starting with a_1 = 1
    sp = build_space(GroupSpec.gamma0(11))
    inf = sp.group.cusp_index_of_fraction(1, 0)
    _, blocks = joint_expansion_rows(sp, [[1]], [inf], 1)
    assert blocks[inf] == [[1]]


def test_expansions_at_infinity_identity():
    sp = build_space(GroupSpec.gamma0(11))
    inf = sp.group.cusp_index_of_fraction(1, 0)
    ns, blocks = joint_expansion_rows(sp, [[1]], [inf], 5)
    assert ns == [1, 2, 3, 4, 5] and blocks == {inf: [[1, -2, -1, 2, 1]]}


def test_expansions_at_zero_via_fricke():
    sp = build_space(GroupSpec.gamma0(11))
    inf = sp.group.cusp_index_of_fraction(1, 0)
    zero = sp.group.cusp_index_of_fraction(0, 1)
    _, blocks = joint_expansion_rows(sp, [[1]], [inf, zero], 5)
    # level-11 newform has Fricke eigenvalue -1: transported row = -row
    assert blocks[zero] == [[-x for x in blocks[inf][0]]] == [[-1, 2, 1, -2, -1]]
    with pytest.raises(ValueError):
        check_good_prime(sp, 11)


def test_reduction_targets_121_5():
    targets = reduction_targets(build_space(GroupSpec.gamma0(121)), 5)
    assert len(targets) == 4
    degrees = sorted(tuple(m for _, m in div) for div in targets)
    assert degrees == [(1, 2), (2, 1), (3,), (3,)]


def test_reduction_targets_65_3():
    targets = reduction_targets(build_space(GroupSpec.gamma0(65)), 3)
    assert len(targets) == 4
    assert all(len(div) == 1 and div[0][1] == 3 for div in targets)


def test_reduction_targets_rejects_torsion_admitting_fields():
    with pytest.raises(ArithmeticError):
        # curves over F_27 with 7-torsion exist
        reduction_targets(build_space(GroupSpec.gamma0(7)), 3)


def test_certificate_121_5():
    cert = immersion_certificate(121, 5, rows_mode="degeneracy", refine=False)
    assert cert["all_pass"]
    assert all(t["rank"] == 3 for t in cert["per_target"])
    assert len(cert["per_target"]) == 4
    cert_full = immersion_certificate(121, 5, rows_mode="full", refine=False)
    assert cert_full["all_pass"]


def test_certificate_65_3():
    cert = immersion_certificate(65, 3)
    assert cert["all_pass"]
    assert len(cert["per_target"]) == 4
    assert all(t["rank"] == 3 for t in cert["per_target"])
    assert cert["verdict"].startswith("cubic points of X1(65)")


def test_certificate_121_3_fails():
    cert = immersion_certificate(121, 3, rows_mode="degeneracy", refine=False)
    assert not cert["all_pass"]
    failing = [t for t in cert["per_target"] if not t["formal_immersion"]]
    assert failing  # the failing set is reported, not asserted a priori


def test_each_plus_restriction_is_built_once(monkeypatch):
    # (121, 3) with degeneracy rows restricts T_q for the 7 split primes
    # q != 11, T_1 and T_4 (the other rows) and W_121 (the cusp 0) to S+:
    # 10 operators, shared by the decomposition and all 4 components' rows
    calls = []
    restrict = immersion._restrict_to_plus
    monkeypatch.setattr(immersion, "_restrict_to_plus",
                        lambda space, op: calls.append(op) or restrict(space, op))
    immersion_certificate(121, 3, rows_mode="degeneracy", refine=False)
    assert len(calls) == 10


def test_rank_invariant_under_row_and_cusp_permutations():
    sp = build_space(GroupSpec.gamma0(121))
    basis = [row for piece, rank_zero in rank_zero_quotient(sp) if rank_zero for row in piece]
    inf = sp.group.cusp_index_of_fraction(1, 0)
    zero = sp.group.cusp_index_of_fraction(0, 1)
    _, blocks = joint_expansion_rows(sp, basis, [inf, zero], 5)
    p = 5
    rows = {c: [[x % p for x in row] for row in blocks[c]] for c in (inf, zero)}
    div = [(inf, 2), (zero, 1)]
    base_rank = rank_mod_p(immersion_matrix(rows, div), p)
    rng = random.Random(3)
    for _ in range(5):
        perm = list(range(len(rows[inf])))
        rng.shuffle(perm)
        unit = rng.randrange(1, p)
        shuffled = {
            c: [[x * unit % p for x in rows[c][i]] for i in perm] for c in rows
        }
        assert rank_mod_p(immersion_matrix(shuffled, div), p) == base_rank
    # reordering the divisor blocks does not change the rank
    assert rank_mod_p(immersion_matrix(rows, [(zero, 1), (inf, 2)]), p) == base_rank


def test_exact_divisors():
    assert exact_divisors(65) == [1, 5, 13, 65]
    assert exact_divisors(121) == [1, 121]
    assert exact_divisors(12) == [1, 3, 4, 12]
