import random
from fractions import Fraction

import pytest
from sympy import Matrix as SymMatrix

from modtors.intlinalg import (
    charpoly,
    det_bareiss,
    hnf,
    identity,
    is_zero_mat,
    kernel_basis,
    mat_mul,
    mat_vec,
    minpoly,
    poly_eval_matrix,
    rank_mod_p,
    rank_rational,
    rational_reconstruct,
    smith_normal_form,
    solve_dixon,
    solve_integer,
    transpose,
)


def random_matrix(rng, r, c, lo=-10, hi=10):
    return [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)]


def solve_fraction_gauss(a, b):
    """Reference exact solver (Gauss-Jordan over Fraction), the oracle of
    the Dixon solver."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, b)]
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        m[c], m[piv] = m[piv], m[c]
        pv = m[c][c]
        m[c] = [x / pv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [m[i][n] for i in range(n)]


def test_snf_spec_examples():
    u, d, v = smith_normal_form([[2, 4], [6, 8]])
    assert [d[0][0], d[1][1]] == [2, 4]
    assert mat_mul(mat_mul(u, [[2, 4], [6, 8]]), v) == d
    assert abs(det_bareiss(u)) == 1 and abs(det_bareiss(v)) == 1

    n = 4
    u, d, v = smith_normal_form(identity(n))
    assert d == identity(n)

    u, d, v = smith_normal_form([[0, 0], [0, 0]])
    assert is_zero_mat(d)


@pytest.mark.parametrize("seed", range(25))
def test_snf_roundtrip_random(seed):
    rng = random.Random(seed)
    r = rng.randint(1, 6)
    c = rng.randint(1, 6)
    m = random_matrix(rng, r, c)
    u, d, v = smith_normal_form(m)
    assert mat_mul(mat_mul(u, m), v) == d
    assert abs(det_bareiss(u)) == 1
    assert abs(det_bareiss(v)) == 1
    diag = [d[i][i] for i in range(min(r, c))]
    # divisibility chain, off-diagonal zero
    for i in range(min(r, c) - 1):
        if diag[i + 1]:
            assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
        assert diag[i] >= 0
    for i in range(r):
        for j in range(c):
            if i != j:
                assert d[i][j] == 0


@pytest.mark.parametrize("seed", range(15))
def test_hnf_properties(seed):
    rng = random.Random(100 + seed)
    m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
    h, u = hnf(m, transform=True)
    assert abs(det_bareiss(u)) == 1
    full = mat_mul(u, m)
    assert full[: len(h)] == h
    for row in full[len(h):]:
        assert not any(row)
    # pivots positive, increasing columns, entries above reduced
    lastcol = -1
    for row in h:
        j = next(k for k, x in enumerate(row) if x)
        assert j > lastcol
        lastcol = j
        assert row[j] > 0
    for idx, row in enumerate(h):
        j = next(k for k, x in enumerate(row) if x)
        for above in h[:idx]:
            assert 0 <= above[j] < row[j]


@pytest.mark.parametrize("seed", range(15))
def test_kernel_basis_saturated(seed):
    rng = random.Random(200 + seed)
    m = random_matrix(rng, rng.randint(1, 5), rng.randint(2, 6))
    ker = kernel_basis(m)
    for k in ker:
        assert all(x == 0 for x in mat_vec(m, k))
    # saturation: kernel rank + column rank = ncols and primitive rows
    assert len(ker) == len(m[0]) - rank_rational(m)
    if ker:
        # saturated: the HNF of ker has unimodular pivot structure: any
        # rational kernel vector with integer entries must lie in the span
        sym = SymMatrix(m)
        null = sym.nullspace()
        for vec in null:
            den = 1
            for x in vec:
                den = den * Fraction(x).denominator
            target = [int(Fraction(x) * den) for x in vec]
            sol = solve_integer(ker, target)
            assert sol is not None


def test_kernel_spec_example():
    ker = kernel_basis([[1, 1]])
    assert len(ker) == 1
    assert ker[0] in ([1, -1], [-1, 1])


@pytest.mark.parametrize("seed", range(10))
def test_charpoly_matches_sympy(seed):
    rng = random.Random(300 + seed)
    n = rng.randint(1, 6)
    m = random_matrix(rng, n, n, -8, 8)
    ours = charpoly(m)
    theirs = SymMatrix(m).charpoly().all_coeffs()  # high degree first
    assert ours == [int(c) for c in reversed(theirs)]


def test_charpoly_rank_mod_p_trivia():
    assert rank_mod_p(identity(3), 5) == 3
    with pytest.raises(ValueError):
        rank_mod_p(identity(2), 6)


@pytest.mark.parametrize("seed", range(8))
def test_minpoly_divides_charpoly_and_annihilates(seed):
    rng = random.Random(400 + seed)
    n = rng.randint(1, 5)
    m = random_matrix(rng, n, n, -5, 5)
    mp = minpoly(m)
    assert mp[-1] == 1
    assert is_zero_mat(poly_eval_matrix(mp, m))
    # projection-style double root check: minpoly of diag block matrix
    blk = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            blk[i][j] = m[i][j]
            blk[n + i][n + j] = m[i][j]
    assert minpoly(blk) == mp


@pytest.mark.parametrize("seed", range(10))
def test_dixon_solver_matches_fraction_gauss(seed):
    rng = random.Random(500 + seed)
    n = rng.randint(1, 7)
    while True:
        a = random_matrix(rng, n, n, -9, 9)
        if det_bareiss(a) != 0:
            break
    b = [rng.randint(-20, 20) for _ in range(n)]
    x = solve_dixon(a, b)
    y = solve_fraction_gauss(a, b)
    assert x == y


def test_rational_reconstruct_roundtrip():
    m = 10**12 + 39
    for num, den in [(3, 7), (-22, 5), (1, 1), (100, 101)]:
        a = num * pow(den, -1, m) % m
        f = rational_reconstruct(a, m)
        assert f == Fraction(num, den)
