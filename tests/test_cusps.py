from math import gcd

import pytest

from conftest import cusp_count_X0, cusp_count_X1
from modtors.cusps import (
    _fold,
    cusp_orbits,
    degree1_count_over_extension,
    divisors,
    mult_order,
    rational_cusp_count,
    x1_component_points,
)


def x1_cusp_points(N):
    """All folded geometric cusp points of X1(N): list of (d, i, b)."""
    return [(d, i, b) for d in divisors(N) for (i, b) in x1_component_points(N, d)]


def galois_act(s, N, points):
    """Permutation induced by sigma_s on folded X1(N) cusp points.

    points is a list of (d, i, b) triples as from x1_cusp_points; s must be
    a unit mod N.  Acts by exponent s on the mu-coordinate, fixes the Z/d
    coordinate, and commutes with the folding.
    """
    if gcd(s, N) != 1:
        raise ValueError(f"{s} is not a unit mod {N}")
    index = {pt: k for k, pt in enumerate(points)}
    perm = []
    for d, i, b in points:
        m = N // d
        img = _fold(((s * i) % m if m > 1 else i, b), m, d)
        perm.append(index[(d, img[0], img[1])])
    return perm


def test_X1_21_orbit_fields():
    orbits = cusp_orbits(21, "X1")
    rational = sum(o.count for o in orbits if o.degree == 1)
    quadratic = sum(o.count for o in orbits if o.degree == 2)
    assert rational == 6
    assert quadratic >= 2  # the quadratic cusps used for the degree-3 sweep
    assert sum(o.count * o.degree for o in orbits) == cusp_count_X1(21)


def test_X1_22_ten_rational():
    assert rational_cusp_count(22, "X1") == 10


def test_X1_65_top_component():
    orbits = [o for o in cusp_orbits(65, "X1") if o.component == 65]
    assert sum(o.count for o in orbits if o.degree == 1) == 24
    assert all(o.degree == 1 for o in orbits)


def test_X0_121_and_65():
    orbits = cusp_orbits(121, "X0")
    assert sorted(o.degree for o in orbits) == [1, 1, 10]
    assert rational_cusp_count(121, "X0") == 2

    orbits = cusp_orbits(65, "X0")
    assert [o.degree for o in orbits] == [1, 1, 1, 1]

    assert [o.degree for o in cusp_orbits(11, "X0")] == [1, 1]


def test_X0_121_mod_5_splits_in_two_quintics():
    orbits = cusp_orbits(121, "X0", 5)
    big = [o for o in orbits if o.component == 11]
    assert len(big) == 1 and big[0].count == 2 and big[0].degree == 5
    assert rational_cusp_count(121, "X0", p=5) == 2


def test_X1_65_mod_3_degrees():
    orbits = cusp_orbits(65, "X1", 3)
    # (Z/5 x mu_13)' part: d = 5 component; order of 3 mod 13 is 3
    d5 = [o for o in orbits if o.component == 5]
    assert mult_order(3, 13) == 3
    assert {o.degree for o in d5} == {3}
    # (mu_5 x Z/13)' part: d = 13 component; order of 3 mod 5 is 4
    d13 = [o for o in orbits if o.component == 13]
    assert mult_order(3, 5) == 4
    assert {o.degree for o in d13} == {4}
    # rational cusps stay rational
    d65 = [o for o in orbits if o.component == 65]
    assert {o.degree for o in d65} == {1}
    assert sum(o.count for o in d65) == 24


def test_mod_p_rejects_bad_primes():
    with pytest.raises(ValueError):
        cusp_orbits(22, "X1", 11)
    with pytest.raises(ValueError):
        cusp_orbits(21, "X1", 2)
    with pytest.raises(ValueError):
        cusp_orbits(21, "X1", 9)


@pytest.mark.parametrize("N", range(5, 66))
def test_total_counts_match_formulas(N):
    o1 = cusp_orbits(N, "X1")
    assert sum(o.count * o.degree for o in o1) == cusp_count_X1(N)
    o0 = cusp_orbits(N, "X0")
    assert sum(o.count * o.degree for o in o0) == cusp_count_X0(N)


@pytest.mark.parametrize("N,p", [(21, 5), (22, 3), (25, 3), (65, 3), (121, 3), (33, 7)])
def test_reduction_preserves_degree_totals(N, p):
    q_orbits = cusp_orbits(N, "X1")
    p_orbits = cusp_orbits(N, "X1", p)
    assert sum(o.count * o.degree for o in q_orbits) == sum(
        o.count * o.degree for o in p_orbits
    )
    # rational cusps reduce to rational cusps
    assert rational_cusp_count(N, "X1", p=p) >= rational_cusp_count(N, "X1")
    # mod-p degrees refine Q-degrees componentwise
    for d in {o.component for o in q_orbits}:
        qd = sum(o.count * o.degree for o in q_orbits if o.component == d)
        pd = sum(o.count * o.degree for o in p_orbits if o.component == d)
        assert qd == pd


def test_galois_act_basics():
    pts = x1_cusp_points(21)
    ident = galois_act(1, 21, pts)
    assert ident == list(range(len(pts)))
    # -1 is the identity at closed-point level: it maps every geometric
    # point into its own Galois orbit (the [-1] quotient pairs it with the
    # conjugate), and fixes the components with d <= 2 or N/d <= 2 pointwise
    neg = galois_act(20, 21, pts)
    full = [galois_act(s, 21, pts) for s in range(1, 21) if __import__("math").gcd(s, 21) == 1]
    orbit_of = _orbit_index(full, len(pts))
    for k, img in enumerate(neg):
        assert orbit_of[k] == orbit_of[img]
    for k, (d, i, b) in enumerate(pts):
        if d <= 2 or 21 // d <= 2:
            assert neg[k] == k
    with pytest.raises(ValueError):
        galois_act(7, 21, pts)
    # closure under all units reproduces the 6 rational + paired quadratics
    perms = [galois_act(s, 21, pts) for s in range(1, 21) if __import__("math").gcd(s, 21) == 1]
    orbit_sizes = _orbit_sizes(perms, len(pts))
    assert sorted(orbit_sizes)[:6] == [1] * 6
    assert orbit_sizes.count(2) == 3


def _orbit_index(perms, n):
    idx = [None] * n
    label = 0
    for start in range(n):
        if idx[start] is not None:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for p in perms:
                if p[x] not in orbit:
                    orbit.add(p[x])
                    frontier.append(p[x])
        for x in orbit:
            idx[x] = label
        label += 1
    return idx


def _orbit_sizes(perms, n):
    seen = [False] * n
    sizes = []
    for start in range(n):
        if seen[start]:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for p in perms:
                if p[x] not in orbit:
                    orbit.add(p[x])
                    frontier.append(p[x])
        for x in orbit:
            seen[x] = True
        sizes.append(len(orbit))
    return sizes


def test_degree1_count_over_extension():
    # a degree-e place contributes e points over F_{p^e}
    assert degree1_count_over_extension(65, "X1", 3, 1) == 24
    d3 = degree1_count_over_extension(65, "X1", 3, 3)
    # the eight cubic places over the d=5 component now contribute
    assert d3 == 24 + 3 * sum(
        o.count for o in cusp_orbits(65, "X1", 3) if o.degree == 3
    )
