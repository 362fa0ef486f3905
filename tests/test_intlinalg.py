import random
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import numpy as np
import pytest
from conftest import class_lattice_folds, kernel_lattice_fold
from sympy import GF
from sympy import Matrix as SymMatrix
from sympy.polys.matrices import DomainMatrix

from modtors import intlinalg
from modtors.abgroup import FinAbGroup
from modtors.intlinalg import (
    MODP,
    ModPEchelon,
    check_int64_sum,
    charpoly,
    coordinates,
    exact_product,
    det_bareiss,
    elementary_divisors,
    hnf,
    identity,
    inverse_mod_p,
    kernel_basis,
    kernel_mod,
    max_abs,
    minpoly,
    poly_eval_matrix,
    rank_mod_p,
    rational_reconstruct,
    smith_normal_form,
    solve_dixon,
    solve_integer,
    span_mod,
    transpose,
)
from modtors.lattice import Lattice
from modtors.modsym import GroupSpec, build_space


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


def check_smith_form(m, d):
    """d is the Smith normal form of m: the r x c diagonal matrix whose
    entries d1 | d2 | ... >= 0 (zeros last) have d1 ... dk equal to the gcd
    of the k x k minors of m for every k.  The gcds of the minors are
    invariant under unimodular row and column operations, so they
    determine d completely."""
    r, c = len(m), len(m[0])
    assert len(d) == r and all(len(row) == c for row in d)
    assert all(d[i][j] == 0 for i in range(r) for j in range(c) if i != j)
    diag = [d[i][i] for i in range(min(r, c))]
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        if y:
            assert x != 0 and y % x == 0
    for k in range(1, min(r, c) + 1):
        minors = [det_bareiss([[m[i][j] for j in cols] for i in rows])
                  for rows in combinations(range(r), k)
                  for cols in combinations(range(c), k)]
        assert prod(diag[:k]) == gcd(*minors)


def test_snf_spec_examples():
    d = smith_normal_form([[2, 4], [6, 8]])
    assert d == [[2, 0], [0, 4]]
    check_smith_form([[2, 4], [6, 8]], d)
    assert smith_normal_form(identity(4)) == identity(4)
    assert smith_normal_form([[0, 0], [0, 0]]) == [[0, 0], [0, 0]]
    assert smith_normal_form([[1, 2], [2, 4]]) == [[1, 0], [0, 0]]
    assert smith_normal_form([[6, 4, 10]]) == [[2, 0, 0]]
    # diagonal inputs out of chain: the pivot must be made to divide the
    # trailing block
    assert smith_normal_form([[2, 0], [0, 3]]) == [[1, 0], [0, 6]]
    for diag in ([4, 6, 10], [12, 8, 0], [9, 6, 4]):
        m = [[x if i == j else 0 for j, x in enumerate(diag)] for i in range(len(diag))]
        check_smith_form(m, smith_normal_form(m))


@pytest.mark.parametrize("seed", range(25))
def test_snf_roundtrip_random(seed):
    rng = random.Random(seed)
    r = rng.randint(1, 6)
    c = rng.randint(1, 6)
    m = random_matrix(rng, r, c)
    check_smith_form(m, smith_normal_form(m))


@pytest.mark.parametrize("seed", range(15))
def test_hnf_properties(seed):
    rng = random.Random(100 + seed)
    m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
    h, u = hnf(m, transform=True)
    assert abs(det_bareiss(u)) == 1
    full = exact_product(u, m).tolist()
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
        assert not exact_product(m, k).any()
    # saturation: kernel rank + column rank = ncols and primitive rows; the
    # rank over Q is the Hermite row count
    assert len(ker) == len(m[0]) - len(hnf(m)) == len(m[0]) - SymMatrix(m).rank()
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


def _kernel_basis_oracle(a):
    """kernel_basis with the full final renormalization of the Hermite form
    of [a^T | I], the left-block rows included (the former route)."""
    at = transpose(a)
    if not at:
        return []
    n, m = len(at), len(at[0])
    aug = [row + [1 if k == i else 0 for k in range(n)] for i, row in enumerate(at)]
    return [row[m:] for row in hnf(aug) if not any(row[:m])]


@pytest.mark.parametrize("seed", range(20))
def test_kernel_basis_matches_full_renormalization(seed):
    rng = random.Random(900 + seed)
    r, c = rng.randint(1, 8), rng.randint(1, 10)
    bound = rng.choice([1, 10, 10**6, 10**40])
    m = random_matrix(rng, r, c, -bound, bound)
    # rank-deficient: a product through a thin middle
    k = rng.randint(1, min(r, c))
    thin = exact_product(random_matrix(rng, r, k), random_matrix(rng, k, c)).tolist()
    for a in (m, thin, transpose(thin)):
        assert kernel_basis(a) == _kernel_basis_oracle(a)


def test_kernel_basis_matches_full_renormalization_on_lattice_blocks(monkeypatch):
    # the blocks Lattice.preimage passes to kernel_basis in the folds of
    # preimages behind M_H (primes [5, 11]) and the class lattices of
    # Gamma1(21)
    from modtors import lattice
    from modtors.modsym import GroupSpec, build_space

    blocks = []

    def recording(a):
        blocks.append(a)
        return kernel_basis(a)

    monkeypatch.setattr(lattice, "kernel_basis", recording)
    sp = build_space(GroupSpec.gamma1(21))
    kernel_lattice_fold(sp, [5, 11])
    class_lattice_folds(sp)
    assert len(blocks) >= 6
    for a in blocks:
        assert kernel_basis(a) == _kernel_basis_oracle(a)


def test_kernel_basis_matches_full_renormalization_on_structured_inputs():
    # identity and zero blocks, a single row of degrees, a wide block
    # of multiples: kernels with many and with no left-block pivots
    cases = [
        identity(5),
        [[0] * 4 for _ in range(3)],
        [[1, 2, 3, 4, 6, 12]],
        [[6 * i + j for j in range(7)] for i in range(3)],
        [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(9)] for i in range(9)],
    ]
    for a in cases:
        assert kernel_basis(a) == _kernel_basis_oracle(a)


def test_kernel_spec_example():
    ker = kernel_basis([[1, 1]])
    assert len(ker) == 1
    assert ker[0] in ([1, -1], [-1, 1])


def _kernel_mod_fold(a, m, rng):
    """{x : x a = 0 mod m} as a fold of Lattice.preimage over column
    blocks of a, each pulled back to m Z^w."""
    lat = Lattice(len(a), identity(len(a)))
    start = 0
    while start < len(a[0]):
        w = rng.randint(1, len(a[0]) - start)
        block = [row[start : start + w] for row in a]
        target = Lattice(w, [[m if i == j else 0 for j in range(w)] for i in range(w)])
        lat = lat.preimage(block, target)
        start += w
    return lat.basis


# moduli with int64 local passes, and two past the int64 bound: 3^41 and
# the 2^40 of 2^40 * 97
MODULI = [1, 2, 12, 97, 2**5 * 3**3 * 7, 5**13, 3**41, 2**40 * 97]


@pytest.mark.parametrize("seed", range(40))
def test_kernel_mod_matches_preimage_fold(seed):
    rng = random.Random(1800 + seed)
    n, k = rng.randint(1, 7), rng.randint(1, 8)
    m = MODULI[seed % len(MODULI)]
    bound = rng.choice([1, 10, 10**30])
    a = random_matrix(rng, n, k, -bound, bound)
    r = rng.randint(0, min(n, k))  # singular: a product through r
    left = np.array(random_matrix(rng, n, r, -3, 3), dtype=np.int64).reshape(n, r)
    right = np.array(random_matrix(rng, r, k, -3, 3), dtype=np.int64).reshape(r, k)
    thin = (left @ right).tolist()
    deep = [[x * rng.choice([2, 3]) ** 35 for x in row] for row in a]
    zero_col = [row[:-1] + [0] for row in a]
    for b in (a, thin, deep, zero_col):
        got = kernel_mod(b, m)
        assert got == _kernel_mod_fold(b, m, rng)
        assert hnf(got) == got


def test_kernel_mod_of_trivial_inputs():
    a = [[3, -1], [4, 7], [0, 5]]
    assert kernel_mod(a, 1) == identity(3)
    assert kernel_mod([[0, 0]] * 3, 2**40 * 97) == identity(3)
    assert kernel_mod([[] for _ in range(4)], 12) == identity(4)
    assert kernel_mod([], 12) == []
    assert kernel_mod([[2]], 4) == [[2]]
    with pytest.raises(ValueError):
        kernel_mod(a, 0)


def _span_oracle(a, m):
    """The span of the rows of a mod m, as Z^n / {x : x a = 0 mod m}."""
    return FinAbGroup(elementary_divisors(kernel_mod(a, m)))


# moduli whose local Smith phases take each route: int64 (97, 2^5 3^3 7,
# 5^13), int64 mod the largest power that fits when every row pivots there
# or else Python ints (3^41, 2^40 of 2^40 * 97, 641949283^2), and Python
# ints alone (2^61 - 1, a prime whose square does not fit int64)
SPAN_MODULI = [1, 97, 2**5 * 3**3 * 7, 5**13, 3**41, 2**40 * 97, 641949283**2 * 4, 2**61 - 1]


@pytest.mark.parametrize("seed", range(32))
def test_span_mod_matches_kernel_invariants(seed):
    rng = random.Random(2700 + seed)
    n, k = rng.randint(1, 7), rng.randint(1, 8)
    m = SPAN_MODULI[seed % len(SPAN_MODULI)]
    a = random_matrix(rng, n, k, -10**30, 10**30)
    r = rng.randint(0, min(n, k))  # singular: a product through r
    left = np.array(random_matrix(rng, n, r, -3, 3), dtype=np.int64).reshape(n, r)
    right = np.array(random_matrix(rng, r, k, -3, 3), dtype=np.int64).reshape(r, k)
    deep = [[x * rng.choice([2, 3]) ** rng.randint(0, 45) for x in row] for row in a]
    for b in (a, left @ right, deep, random_matrix(rng, n, k)):
        assert FinAbGroup(span_mod(b, m)) == _span_oracle(b, m)
    assert span_mod([], m) == span_mod([[0, 0]] * 3, m) == []
    with pytest.raises(ValueError):
        span_mod(a, 0)


def test_local_routes_past_int64(monkeypatch):
    # mod 3^41 or 2^40, a wide matrix of full row rank pivots on every row
    # mod the largest power that fits int64, where its kernel and span are
    # read; a tall matrix leaves rows unpivoted and needs Python ints, and
    # so does every matrix mod 2^61 - 1, whose square does not fit int64
    calls = []
    phase = intlinalg._smith_phase

    def spy(a, l, e, dtype, track):
        calls.append((l, dtype))
        return phase(a, l, e, dtype, track)

    monkeypatch.setattr(intlinalg, "_smith_phase", spy)
    rng = random.Random(18)
    for m, l in [(3**41, 3), (2**40 * 97, 2), (2**61 - 1, 2**61 - 1), (97, 97)]:
        for rows, cols, via_object in [(4, 6, l > 97), (6, 4, l != 97)]:
            a = random_matrix(rng, rows, cols)
            fold = _kernel_mod_fold(a, m, rng)
            for fn, want in ((kernel_mod, fold), (span_mod, None)):
                calls.clear()
                got = fn(a, m)
                if want is None:
                    got, want = FinAbGroup(got), FinAbGroup(elementary_divisors(fold))
                assert got == want
                assert ((l, object) in calls) == via_object
                assert ((l, np.int64) in calls) == (l < 2**61 - 1)


@pytest.mark.parametrize("seed", range(10))
def test_charpoly_matches_sympy(seed):
    rng = random.Random(300 + seed)
    n = rng.randint(1, 6)
    m = random_matrix(rng, n, n, -8, 8)
    ours = charpoly(m)
    theirs = SymMatrix(m).charpoly().all_coeffs()  # high degree first
    assert ours == [int(c) for c in reversed(theirs)]


@pytest.mark.parametrize("n", [1, 2, 12])
def test_charpoly_past_int64_matches_sympy(n):
    # the coefficient bound runs far past int64, so the one prime does too
    rng = random.Random(310 + n)
    m = random_matrix(rng, n, n, -(2**70), 2**70)
    theirs = SymMatrix(m).charpoly().all_coeffs()
    assert charpoly(m) == charpoly(np.array(m, dtype=object)) == [int(c) for c in reversed(theirs)]


def back_substitution(basis, vec):
    """The former Lattice.solve, one vector at a time in Python ints: x with
    x @ basis = vec, or None.  The oracle of `coordinates`."""
    t = list(vec)
    x = [0] * len(basis)
    for i, row in enumerate(basis):
        j = next(k for k, b in enumerate(row) if b)
        q, r = divmod(t[j], row[j])
        if r:
            return None
        if q:
            x[i] = q
            t[j:] = [a - q * b for a, b in zip(t[j:], row[j:])]
    return None if any(t) else x


def check_coordinates(rows, basis):
    """coordinates(rows, basis) against the oracle row by row; the rows are
    solved together, so one row outside the span gives None."""
    want = [back_substitution(basis, v) for v in rows]
    got = coordinates(rows, basis)
    if None in want:
        assert got is None
    else:
        assert got.tolist() == want
        assert (got.dtype == np.int64) == (max_abs(want) < 2**63)
    return want


@pytest.mark.parametrize("seed", range(10))
def test_coordinates_match_back_substitution(seed):
    rng = random.Random(700 + seed)
    n = rng.randint(1, 7)
    basis = hnf(random_matrix(rng, rng.randint(1, n), n, -6, 6))
    if not basis:
        basis = [[0] * (n - 1) + [3]]
    for big in (1, 2**70):  # coordinates, then rows, past int64
        for b in (basis, [[big * x for x in row] for row in basis]):
            coeffs = random_matrix(rng, 5, len(b), -big, big)
            members = exact_product(coeffs, b).tolist()
            assert check_coordinates(members, b) == coeffs
            for _ in range(4):  # mostly outside the lattice
                outside = [[x + rng.randint(-1, 1) for x in row] for row in members]
                check_coordinates(outside, b)
            check_coordinates(np.array(members[:2], dtype=object), b)
            check_coordinates(members, np.array(b, dtype=object))
    # a pivot above 1 with a row outside the lattice on its column alone
    assert coordinates([[1, 0]], [[2, 0], [0, 1]]) is None
    assert coordinates([[2, 3]], [[2, 1], [0, 1]]).tolist() == [[1, 2]]
    # pivots found past leading zero columns, and on a 2^70 entry
    assert coordinates([[0, 0, 4, 2 + 2**70]], [[0, 0, 2, 1], [0, 0, 0, 2**70]]).tolist() == [
        [2, 1]]


def test_coordinates_over_an_empty_basis():
    assert coordinates([[0, 0, 0]], []).shape == (1, 0)
    assert coordinates([], []).shape == (0, 0)
    assert coordinates([[0, 1, 0]], []) is None
    assert coordinates(np.zeros((2, 4), dtype=np.int64),
                       np.zeros((0, 4), dtype=np.int64)).shape == (2, 0)


@pytest.mark.parametrize(
    "spec",
    [GroupSpec.gamma1(13), GroupSpec.gamma1(18), GroupSpec.gamma0(65), GroupSpec.x1_2_2n(9)],
    ids=lambda spec: spec.label(),
)
def test_coordinates_on_s_and_s_plus(spec):
    # S's cycle basis (unit pivots at the chords) and S+ over it, a Hermite
    # form with pivots and entries above them of its own
    sp = build_space(spec)
    rng = random.Random(spec.level)
    for basis in (sp.cuspidal.tolist(), sp.plus_cuspidal().tolist()):
        coeffs = random_matrix(rng, 6, len(basis), -50, 50)
        members = exact_product(coeffs, basis).tolist()
        assert check_coordinates(members, basis) == coeffs
        # a vector of the lattice is fixed by its pivot entries, so one
        # more off a pivot column leaves it
        pivots = [next(j for j, x in enumerate(row) if x) for row in basis]
        edge = next(j for j in range(len(basis[0])) if j not in pivots)
        members[2][edge] += 1
        assert check_coordinates(members, basis)[2] is None
        huge = [[x << 70 for x in row] for row in members[:2]]
        assert check_coordinates(huge, basis) == [[x << 70 for x in row] for row in coeffs[:2]]
    assert (sp.cuspidal_coordinates(sp.cuspidal) == np.eye(len(sp.cuspidal))).all()


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
    assert not poly_eval_matrix(mp, m).any()
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


def _four_rows_and_their_sum(seed, p, ncols=5):
    rng = random.Random(seed)
    rows = [[rng.randrange(p) for _ in range(ncols)] for _ in range(4)]
    return rows + [[sum(col) % p for col in zip(*rows)]]


def test_mod_p_echelon_rank_of_dependent_rows():
    for seed in range(20):
        ech = ModPEchelon(5, MODP)
        added = [ech.add(np.array(row, dtype=np.int64))
                 for row in _four_rows_and_their_sum(seed, MODP)]
        assert added == [True] * 4 + [False]
        assert ech.rank == 4


def test_mod_p_echelon_refuses_int64_overflow():
    # at p = 2147483629 a sum of three products (p - 1)^2 exceeds 2^63 - 1;
    # unchecked, the int64 reduction wrapped and this input, four rows and
    # their sum, came out with rank 5
    p = 2147483629
    ech = ModPEchelon(5, p)
    rows = [np.array(row, dtype=np.int64) for row in _four_rows_and_their_sum(21, p)]
    assert all(ech.add(row) for row in rows[:3])
    with pytest.raises(ArithmeticError):
        ech.add(rows[3])
    assert ech.rank == 3


def test_int64_sum_bound():
    # at MODP the echelon reduces against up to 2048 rows
    check_int64_sum(MODP - 1, 2048 * (MODP - 1), "reduction")
    with pytest.raises(ArithmeticError):
        check_int64_sum(MODP - 1, 2049 * (MODP - 1), "reduction")
    check_int64_sum(1, 2**63 - 1, "sum")
    with pytest.raises(ArithmeticError):
        check_int64_sum(2, 2**62, "sum")


def _random_square_mod_p(rng, n, p, singular):
    """A random n x n matrix with entries in [0, p); if singular, its last
    row is a combination of the others mod p."""
    rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
    if singular:
        coeffs = [rng.randrange(p) for _ in range(n - 1)]
        rows[-1] = [sum(c * row[j] for c, row in zip(coeffs, rows)) % p for j in range(n)]
    return rows


def _gf_rref(rows, p):
    """(rref rows with entries in [0, p), pivot columns) by sympy over GF(p)."""
    r, piv = DomainMatrix.from_list(rows, GF(p)).rref()
    return [[int(x) % p for x in row] for row in r.to_list()], list(piv)


@pytest.mark.parametrize("p", [3, 1000003, MODP, 2147483629, 4294967311])
def test_mod_p_helpers_match_sympy(p):
    # at 4294967311 a single product (p - 1)^2 exceeds int64, and at
    # 2147483629 three of them do: both primes take the Python-int rows
    rng = random.Random(p)
    for trial in range(12):
        n = 1 + trial % 5
        singular = n > 1 and trial % 3 == 0
        a = _random_square_mod_p(rng, n, p, singular)
        want_rank = DomainMatrix.from_list(a, GF(p)).rank()
        assert rank_mod_p(a, p) == want_rank
        inv = inverse_mod_p(np.array(a, dtype=np.int64), p)
        if want_rank < n:
            assert inv is None
            continue
        want = SymMatrix(a).inv_mod(p).tolist()
        assert [[int(x) for x in row] for row in inv] == want
        # x @ a[:k] = t for the first k rows of the nonsingular a
        k = 1 + trial % n
        mat = np.array(a[:k], dtype=np.int64)
        x0 = [rng.randrange(p) for _ in range(k)]
        t = [sum(c * y for c, y in zip(x0, col)) % p for col in zip(*a[:k])]
        x = intlinalg._solve_mod_p(mat, np.array(t, dtype=np.int64), p)
        rref, piv = _gf_rref([list(col) + [ti] for col, ti in zip(zip(*a[:k]), t)], p)
        assert piv == list(range(k))
        assert [int(v) for v in x] == [row[k] for row in rref[:k]] == x0


def test_inverse_past_int64_takes_python_ints():
    # n (p - 1)^2 > 2^63 - 1 at n = 3, though (p - 1)^2 alone fits
    p = 2147483629
    a = _random_square_mod_p(random.Random(7), 3, p, False)
    inv = inverse_mod_p(np.array(a, dtype=np.int64), p)
    assert inv.dtype == object
    assert [[int(x) for x in row] for row in inv] == SymMatrix(a).inv_mod(p).tolist()


def test_mod_p_helpers_build_one_echelon(monkeypatch):
    built = []
    init = ModPEchelon.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ModPEchelon, "__init__", counted)
    a = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    for call in (
        lambda: rank_mod_p(a, 5),
        lambda: inverse_mod_p(np.array(a, dtype=np.int64), 5),
        lambda: intlinalg._solve_mod_p(np.array(a, dtype=np.int64), np.array([1, 2, 3]), 5),
    ):
        built.clear()
        call()
        assert len(built) == 1


def test_dixon_refuses_a_singular_matrix(monkeypatch):
    from sympy import nextprime

    calls = []

    def spy(p):
        calls.append(p)
        if len(calls) > 3:
            raise AssertionError("solve_dixon keeps trying primes")
        return nextprime(p)

    monkeypatch.setattr(intlinalg, "nextprime", spy)
    for a in ([[1, 1], [1, 1]], [[2, 4, 6], [1, 2, 3], [0, 1, 5]]):
        with pytest.raises(ZeroDivisionError, match="singular matrix"):
            solve_dixon(a, [1] * len(a))
    assert calls == []
    # singular mod MODP only: the next prime solves it
    assert solve_dixon([[MODP, 0], [0, 1]], [1, 1]) == [Fraction(1, MODP), 1]
    assert len(calls) == 1


def test_int64_arrays_are_read_as_python_ints():
    # entries near 2^40: int64 Bareiss, Smith and Hermite steps would
    # overflow, so every Python-int routine converts an array on entry
    a = [[2**40 + 1, 3, 5], [7, 2**40 + 3, 11], [13, 17, 2**40 + 19]]
    wide = [row + [row[0] + row[1]] for row in a]  # a kernel of rank 1
    for m in (a, wide):
        arr, n = np.array(m, dtype=np.int64), len(m[0])
        assert elementary_divisors(arr) == elementary_divisors(m)
        assert smith_normal_form(arr) == smith_normal_form(m)
        assert hnf(arr, transform=True) == hnf(m, transform=True)
        assert kernel_basis(arr) == kernel_basis(m)
        assert Lattice(n, arr) == Lattice(n, m)
        assert all(type(x) is int for row in Lattice(n, arr).basis for x in row)
    assert det_bareiss(np.array(a, dtype=np.int64)) == det_bareiss(a) != 0
    assert len(kernel_basis(wide)) == 1


@pytest.mark.parametrize("a_bits,b_bits",
                         [(3, 3), (40, 10), (64, 10), (300, 40), (70, 62), (40, 30)])
def test_exact_product_matches_python_ints(a_bits, b_bits):
    # small entries stay in int64; a large a against a small b goes by
    # int64 products of its digits; a large b is multiplied in Python ints;
    # int64 factors whose product could overflow go by digits too
    rng = random.Random(a_bits + b_bits)
    a = [[rng.randint(-(2**a_bits), 2**a_bits) for _ in range(7)] for _ in range(5)]
    a[0][0] = -(2**a_bits)  # a negative top digit
    b = [[rng.randint(-(2**b_bits), 2**b_bits) for _ in range(4)] for _ in range(7)]
    want = np.array(a, dtype=object) @ np.array(b, dtype=object)
    got = exact_product(a, b)
    assert (got == want).all()
    assert (got.dtype == np.int64) == (a_bits + b_bits <= 50)
