import random

import pytest

from modtors.abgroup import FinAbGroup
from modtors.intlinalg import (
    det_bareiss,
    exact_product,
    hnf,
    identity,
    kernel_basis,
)
from modtors.lattice import Lattice, lattice_torsion_quotient


def test_torsion_quotient_trivia():
    z2 = Lattice(2, identity(2))
    two_z2 = Lattice(2, [[2, 0], [0, 2]])
    assert lattice_torsion_quotient(two_z2, z2) == FinAbGroup([2, 2])
    assert lattice_torsion_quotient(z2, z2) == FinAbGroup([])
    sub = Lattice(2, [[1, 1], [0, 3]])
    assert lattice_torsion_quotient(sub, z2) == FinAbGroup([3])


def test_torsion_quotient_rejects_incommensurable():
    a = Lattice(2, [[1, 0]])
    b = Lattice(2, identity(2))
    with pytest.raises(ValueError):
        lattice_torsion_quotient(a, b)
    c = Lattice(2, [[1, 0], [0, 2]])
    d = Lattice(2, [[3, 0], [0, 1]])
    with pytest.raises(ValueError):
        lattice_torsion_quotient(d, c)  # d not inside c


@pytest.mark.parametrize("seed", range(12))
def test_quotient_order_is_det_ratio(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    while True:
        over = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if det_bareiss(over) != 0:
            break
    mult = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    while det_bareiss(mult) == 0:
        mult = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    sub_rows = [
        [sum(mult[i][k] * over[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    lover = Lattice(n, over)
    lsub = Lattice(n, sub_rows)
    q = lattice_torsion_quotient(lsub, lover)
    assert q.order() == abs(det_bareiss(mult))


def test_lattice_canonical_equality():
    a = Lattice(2, [[1, 1], [0, 3]])
    b = Lattice(2, [[1, 4], [2, 5]])
    assert a == b  # same row span over Z
    assert a.contains([1, 4])
    assert not a.contains([0, 1])
    assert a.contains([1, 1])


def test_sum_and_intersection():
    a = Lattice(2, [[2, 0], [0, 3]])
    b = Lattice(2, [[3, 0], [0, 2]])
    s = a.sum(b)
    i = a.intersect(b)
    assert s == Lattice(2, identity(2))
    assert i == Lattice(2, [[6, 0], [0, 6]])
    # index multiplicativity: [s : a][a : i] = [s : b][b : i]
    index = lambda sub, over: sub.torsion_quotient_in(over).order()  # noqa: E731
    assert index(a, s) * index(i, a) == index(b, s) * index(i, b)


def test_rational_lattices():
    half = Lattice(2, [[1, 0], [0, 1]], 2)
    z2 = Lattice(2, identity(2))
    assert z2.torsion_quotient_in(half) == FinAbGroup([2, 2])
    assert half.contains([1, 1], den=2)
    assert not z2.contains([1, 1], den=2)
    assert half.contains_lattice(z2)
    assert not z2.contains_lattice(half)


def test_preimage_nonsingular():
    # {v in Z^2 : v @ A in Z^2} for A = diag(2, 3) scaled into 6 Z^2
    a = [[2, 0], [0, 3]]
    target = Lattice(2, [[6, 0], [0, 6]])
    pre = Lattice(2, identity(2)).preimage(a, target)
    assert pre == Lattice(2, [[3, 0], [0, 2]])


def test_preimage_singular_operator():
    # operator with kernel: v @ A with A = [[1, 1], [1, 1]]
    a = [[1, 1], [1, 1]]
    target = Lattice(2, [[2, 0], [0, 2]])
    pre = Lattice(2, identity(2)).preimage(a, target)
    # v @ A = (v1+v2, v1+v2): condition v1+v2 even
    assert pre.contains([1, 1])
    assert pre.contains([2, 0])
    assert not pre.contains([1, 0])


def test_saturation():
    # the saturation of a row span as `joint_expansion_rows` takes it:
    # {v : ker @ v = 0} for the kernel ker = {x : rows @ x = 0}
    s = Lattice(3, kernel_basis(kernel_basis([[2, 2, 0], [0, 0, 3]])))
    assert s.contains([1, 1, 0])
    assert s.contains([0, 0, 1])
    assert not s.contains([1, 0, 0])
    assert s.rank == 2


def test_solve_coordinates():
    l = Lattice(2, [[2, 1], [0, 5]])
    x = l.solve([4, 12])
    assert x is not None
    rows, den = l.basis, l.den
    got = [sum(xi * r[j] for xi, r in zip(x, rows)) for j in range(2)]
    assert got == [4, 12]
    assert l.solve([1, 0]) is None
    # a zero row is dropped
    assert Lattice(2, [[1, 0], [0, 0]]).solve([3, 0]) == [3]


def _rescanning_solve(lat, vec, den=1):
    """Lattice.solve as it was before the pivot cache: each row's pivot is
    found by a fresh scan on every call."""
    t = [x * lat.den for x in vec]
    if any(x % den for x in t):
        return None
    t = [x // den for x in t]
    x = [0] * len(lat.basis)
    for i, row in enumerate(lat.basis):
        j = next((k for k, v in enumerate(row) if v), None)
        if j is None:
            continue
        q, r = divmod(t[j], row[j])
        if r:
            return None
        if q:
            x[i] = q
            t = [a - q * b for a, b in zip(t, row)]
    return None if any(t) else x


def _rescanning_contains(lat, vec, den=1):
    target = [x * lat.den for x in vec]
    if any(x % den for x in target):
        return False
    target = [x // den for x in target]
    for row in lat.basis:
        j = next((k for k, x in enumerate(row) if x), None)
        if j is not None and target[j] % row[j] == 0:
            q = target[j] // row[j]
            target = [x - q * y for x, y in zip(target, row)]
    return not any(target)


def _pivot_cache_cases(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(rng.randint(1, n + 2))]
    yield Lattice(n, rows, rng.randint(1, 4))  # random, normalized to HNF
    yield Lattice(n, hnf(rows))  # hnf output, normalized again
    yield Lattice(n, identity(n))
    yield Lattice(n, [])  # rank 0


@pytest.mark.parametrize("seed", range(10))
def test_solve_and_contains_with_cached_pivots(seed):
    rng = random.Random(100 + seed)
    for lat in _pivot_cache_cases(seed):
        n = lat.ambient
        vecs = []
        for _ in range(6):
            coeffs = [rng.randint(-5, 5) for _ in lat.basis]
            member = exact_product(coeffs, lat.basis).tolist() if lat.basis else [0] * n
            d = rng.randint(1, 3)
            vecs.append((member, lat.den))  # a member
            vecs.append(([x * d for x in member], lat.den * d))  # the same, scaled
            vecs.append(([rng.randint(-9, 9) for _ in range(n)], 1))  # mostly not
            vecs.append(([rng.randint(-9, 9) for _ in range(n)], rng.randint(2, 5)))  # non-integral
        assert lat.contains(*vecs[0])
        for vec, den in vecs:
            x = lat.solve(vec, den)
            assert x == _rescanning_solve(lat, vec, den)
            assert lat.contains(vec, den) == _rescanning_contains(lat, vec, den)
            if x is not None:  # x @ basis = vec * lat.den / den
                got = [sum(c * r[j] for c, r in zip(x, lat.basis)) for j in range(n)]
                assert [y * den for y in got] == [v * lat.den for v in vec]


def _preimage_of_zero(lat, op):
    """{v in lat : v @ op = 0} as the kernel of the basis images: the
    former trivial-target branch of Lattice.preimage, kept as its oracle."""
    if not lat.basis:
        return lat
    ker = kernel_basis(exact_product(lat.basis, op).T)
    return Lattice(lat.ambient, exact_product(ker, lat.basis) if ker else [], lat.den)


@pytest.mark.parametrize("seed", range(10))
def test_preimage_of_trivial_target_is_the_kernel(seed):
    rng = random.Random(200 + seed)
    for lat in _pivot_cache_cases(seed):
        n, m = lat.ambient, rng.randint(1, 5)
        r = rng.randint(0, min(n, m))  # op of rank at most r: a kernel in most cases
        left = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(n)]
        right = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(r)]
        op = exact_product(left, right).tolist() if r else [[0] * m for _ in range(n)]
        for target in (Lattice(m, []), Lattice(m, [], rng.randint(2, 5))):
            assert lat.preimage(op, target) == _preimage_of_zero(lat, op)
