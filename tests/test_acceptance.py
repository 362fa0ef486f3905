"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; everything is exact (integer equality), no tolerances anywhere.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import curve11_ap
from modtors.abgroup import FinAbGroup, abgroup_gcd
from modtors.jacobian import (
    auxiliary_primes,
    cuspidal_class_group,
    hecke_bound_group,
    is_rank_zero,
    jacobian_order_mod_p,
    torsion_is_cuspidal,
    torsion_multiple,
)
from modtors.modsym import GroupSpec, build_space

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "src", "modtors", "golden")


def golden(name):
    with open(os.path.join(GOLDEN, name)) as fh:
        return json.load(fh)


def report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_criterion_01_rank_gamma0_up_to_100():
    s0 = set(golden("rank_sets.json")["S0"])
    mism = []
    for n in range(1, 101):
        cert = is_rank_zero(build_space(GroupSpec.gamma0(n)))
        if cert.is_rank_zero != (n in s0):
            mism.append(n)
    assert mism == [], f"Gamma0 rank mismatches at {mism}"
    report(1, "is_rank_zero(Gamma0(N)) matches S0 for all N <= 100")


def test_criterion_02_rank_gamma1_up_to_65():
    want = set(golden("rank_sets.json")["gamma1_rank0"])
    mism = []
    for n in range(1, 66):
        cert = is_rank_zero(build_space(GroupSpec.gamma1(n)))
        if cert.is_rank_zero != (n in want):
            mism.append(n)
    assert mism == [], f"Gamma1 rank mismatches at {mism}"
    # the divergence from Gamma0 at N = 63 is genuinely exercised
    assert not is_rank_zero(build_space(GroupSpec.gamma1(63))).is_rank_zero
    assert is_rank_zero(build_space(GroupSpec.gamma0(63))).is_rank_zero
    report(2, "is_rank_zero(Gamma1(N)) matches the theorem for N <= 65, "
              "including the N = 63 divergence")


def test_criterion_03_rank_x1_2_2n_up_to_21():
    s1 = set(golden("rank_sets.json")["S1"])
    mism = []
    for n in range(1, 22):
        cert = is_rank_zero(build_space(GroupSpec.x1_2_2n(n)))
        if cert.is_rank_zero != (n in s1):
            mism.append(n)
    assert mism == [], f"X1(2,2N) rank mismatches at {mism}"
    assert is_rank_zero(build_space(GroupSpec.x1_2_2n(13))).is_rank_zero  # 13 in S1
    assert is_rank_zero(build_space(GroupSpec.x1_2_2n(21))).is_rank_zero  # 21 in S1
    report(3, "is_rank_zero(X1(2,2N)) matches S1 for N <= 21")


def test_criterion_04_table1():
    table = golden("table1.json")
    mism = []
    for n in range(10, 37):
        cc = cuspidal_class_group(build_space(GroupSpec.gamma1(n)))
        want = [x for x in table[str(n)] if x > 1]
        if list(cc.clcc_q.invariants) != want:
            mism.append((n, list(cc.clcc_q.invariants), want))
    assert mism == [], f"Table 1 mismatches: {mism}"
    report(4, "Cl^cc_Q X1(N) matches Table 1 exactly for 10 <= N <= 36")


@pytest.mark.stretch
def test_criterion_04_table1_stretch_to_55():
    table = golden("table1.json")
    mism = []
    for n in range(37, 56):
        cc = cuspidal_class_group(build_space(GroupSpec.gamma1(n)))
        want = [x for x in table[str(n)] if x > 1]
        if list(cc.clcc_q.invariants) != want:
            mism.append((n, list(cc.clcc_q.invariants), want))
    assert mism == [], f"Table 1 stretch mismatches: {mism}"
    report("4s", "Cl^cc_Q X1(N) matches Table 1 for 37 <= N <= 55 (stretch)")


def test_criterion_05_table2():
    table = golden("table2.json")
    mism = []
    for two_n in range(10, 21, 2):
        cc = cuspidal_class_group(build_space(GroupSpec.x1_2_2n(two_n // 2)))
        want = [x for x in table[str(two_n)] if x > 1]
        if list(cc.clcc_q.invariants) != want:
            mism.append((two_n, list(cc.clcc_q.invariants), want))
    assert mism == [], f"Table 2 mismatches: {mism}"
    report(5, "Cl^cc_Q X1(2,2N) matches Table 2 for (2,10) through (2,20)")


@pytest.mark.stretch
def test_criterion_05_table2_stretch_to_32():
    table = golden("table2.json")
    mism = []
    for two_n in range(22, 33, 2):
        cc = cuspidal_class_group(build_space(GroupSpec.x1_2_2n(two_n // 2)))
        want = [x for x in table[str(two_n)] if x > 1]
        if list(cc.clcc_q.invariants) != want:
            mism.append((two_n, list(cc.clcc_q.invariants), want))
    assert mism == [], f"Table 2 stretch mismatches: {mism}"
    report("5s", "Cl^cc_Q X1(2,2N) matches Table 2 for (2,22) through (2,32) (stretch)")


def test_criterion_06_example_41_chain():
    sp = build_space(GroupSpec.gamma1(21))
    assert jacobian_order_mod_p(sp, 5) == 2184
    assert jacobian_order_mod_p(sp, 11) == 96824
    assert torsion_multiple(sp, [5, 11]) == 728
    assert abgroup_gcd([FinAbGroup([2184]), FinAbGroup([14, 6916])]) == FinAbGroup([364])
    mh = hecke_bound_group(sp, primes=[5, 11])
    cc = cuspidal_class_group(sp)
    assert mh == FinAbGroup([364])
    assert cc.clcc_q == FinAbGroup([364])
    report(6, "#J1(21)(F5) = 2184, #J1(21)(F11) = 96824, multiple 728, "
              "GCD [364], Hecke bound = Cl^cc_Q = [364]")


def test_criterion_07_examples_42_43():
    sp = build_space(GroupSpec.gamma1(28))
    mh = hecke_bound_group(sp, primes=[3, 5])
    cc = cuspidal_class_group(sp)
    assert mh == FinAbGroup([2, 4, 12, 936])
    assert cc.clcc_q == FinAbGroup([2, 4, 12, 936])
    sp = build_space(GroupSpec.x1_2_2n(9))
    mh = hecke_bound_group(sp, primes=[5, 7])
    cc = cuspidal_class_group(sp)
    assert mh == FinAbGroup([2, 42, 126])
    assert cc.clcc_q == FinAbGroup([2, 42, 126])
    report(7, "Hecke bound = Cl^cc_Q = [2,4,12,936] for J1(28) and "
              "[2,42,126] for J1(2,18)")


def test_criterion_08_theorem_47_pipeline():
    s0 = set(golden("rank_sets.json")["gamma1_rank0"])
    stages = {}
    for n in range(10, 37):
        if n not in s0:
            continue
        verdict, k, cc, stage = torsion_is_cuspidal(build_space(GroupSpec.gamma1(n)))
        assert verdict == "equal", (n, verdict)
        stages[n] = stage
    for n in (24, 32, 33):
        assert stages[n] == "maximal-ideal", (n, stages[n])
    report(8, "pipeline verdict 'equal' for all rank-zero 10 <= N <= 36, "
              "with the maximal-ideal stage exercised at N = 24, 32, 33")


@pytest.mark.stretch
def test_criterion_08_n54_index():
    verdict, k, cc, stage = torsion_is_cuspidal(build_space(GroupSpec.gamma1(54)))
    assert verdict == "index-divides-3" and k == 3
    report("8s", "N = 54 gives verdict index-divides-3")


@pytest.mark.stretch
def test_criterion_08_torsion_is_cuspidal_to_55():
    # the torsion theorem: generated by cusp orbits for N <= 55, N != 54,
    # at the positive-rank levels 37, 43 and 53 as well
    for n in range(37, 56):
        if n == 54:
            continue
        sp = build_space(GroupSpec.gamma1(n))
        verdict, k, cc, stage = torsion_is_cuspidal(sp)
        assert verdict == "equal", (n, verdict)
        if n == 45:
            assert auxiliary_primes(sp).primes == [7, 11, 17]
    report("8t", "pipeline verdict 'equal' for all 37 <= N <= 55, N != 54 (stretch)")


def test_criterion_09_j0_30():
    sp = build_space(GroupSpec.gamma0(30))
    cc = cuspidal_class_group(sp)
    assert cc.clcc_q == FinAbGroup([2, 4, 24])
    # local orders at 7 and 23 match the quoted group structures order-wise
    assert jacobian_order_mod_p(sp, 7) == 2 * 2 * 4 * 48
    assert jacobian_order_mod_p(sp, 23) == 2 * 12 * 24 * 24
    assert torsion_multiple(sp, [7, 23]) == 768
    assert FinAbGroup([2, 2, 4, 24]).order() == 384 and 768 % 384 == 0
    report(9, "cuspidal subgroup of J0(30) is [2,4,24]; local orders match "
              "[2,2,4,48] and [2,12,24,24] with gcd 768")


def test_criterion_10_place_counts():
    from modtors.ecff import places_of_degree

    assert [places_of_degree(22, 3, d) for d in (1, 2, 3)] == [10, 0, 0]
    assert [places_of_degree(25, 3, d) for d in (1, 2, 3)] == [10, 0, 0]
    report(10, "X1(22) mod 3 has places (10, 0, 0); X1(25) mod 3 matches "
               "the frozen regression (10, 0, 0)")


def test_criterion_11_section7_exclusions():
    from modtors.ecff import exists_point_of_order, hasse_excludes

    for i in (1, 2, 3):
        assert exists_point_of_order(5**i, 121) is False
        assert hasse_excludes(3**i, 65) is True
    report(11, "no 121-torsion over F_{5^i} (i <= 3); Hasse excludes "
               "65-torsion over F_{3^i} (i <= 3)")


def test_criterion_12_formal_immersions():
    from modtors.immersion import immersion_certificate

    cert = immersion_certificate(121, 5, rows_mode="degeneracy", refine=False)
    assert cert["all_pass"] and len(cert["per_target"]) == 4
    assert all(t["rank"] == 3 for t in cert["per_target"])
    cert_full = immersion_certificate(121, 5, rows_mode="full", refine=False)
    assert cert_full["all_pass"]
    cert = immersion_certificate(65, 3)
    assert cert["all_pass"] and len(cert["per_target"]) == 4
    assert all(t["rank"] == 3 for t in cert["per_target"])
    cert = immersion_certificate(121, 3, rows_mode="degeneracy", refine=False)
    assert not cert["all_pass"]
    failing = [t["divisor"] for t in cert["per_target"] if not t["formal_immersion"]]
    assert failing
    report(12, "rank 3 at all four test points for (121,5) and (65,3); "
               f"(121,3) fails at {len(failing)} test point(s)")


def test_criterion_13_property_suites():
    from modtors.ecff import count_X1_points, group_structure
    from modtors.intlinalg import identity
    from modtors.modsym import diamond_operator, hecke_operator
    from modtors.modsym.operators import restrict_to_lattice

    # dimension formula across kinds
    for spec in (
        GroupSpec.gamma0(49),
        GroupSpec.gamma1(27),
        GroupSpec.x1_2_2n(7),
        GroupSpec.gammaH(45, (1, 4, 16, 19, 31, 34)),
    ):
        sp = build_space(spec)
        assert sp.dim == 2 * sp.genus() + sp.ncusps - 1

    # Hecke commutation and the p^2 recursion
    sp = build_space(GroupSpec.gamma1(15))
    t2, t3 = hecke_operator(sp, 2), hecke_operator(sp, 3)
    assert np.array_equal(t2 @ t3, t3 @ t2)
    t4 = hecke_operator(sp, 4)
    d2 = diamond_operator(sp, 2)
    assert np.array_equal(t4, t2 @ t2 - 2 * d2)

    # star involution, lattice preservation
    st = sp.star_matrix()
    assert (st @ st).tolist() == identity(sp.dim)
    restrict_to_lattice(t2, sp.cuspidal)
    restrict_to_lattice(st, sp.cuspidal)

    # Hasse interval for enumerated curves
    g = group_structure(7, (1, 2, 3, 4, 5))
    n = g.order()
    assert (7 + 1 - n) ** 2 <= 4 * 7

    # genus-0 moduli counts
    for n, q in ((5, 9), (6, 49), (7, 25), (8, 27), (9, 25), (10, 81), (12, 11)):
        assert count_X1_points(n, q) == q + 1

    # level-11 a_p oracle for 3 <= p <= 97
    sp11 = build_space(GroupSpec.gamma0(11))
    from sympy import primerange

    for p in primerange(3, 98):
        if p == 11:
            continue
        tp = restrict_to_lattice(hecke_operator(sp11, int(p)), sp11.cuspidal)
        ap = curve11_ap(int(p))
        assert tp[0][0] == ap and tp[1][1] == ap
        assert jacobian_order_mod_p(sp11, int(p)) == int(p) + 1 - ap
    report(13, "dimension formula, Hecke commutation and recursion, star, "
               "lattice preservation, Hasse, genus-0 counts, level-11 a_p "
               "oracle for 3 <= p <= 97")
