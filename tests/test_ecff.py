import numpy as np
import pytest
from sympy import isprime

from conftest import curve11_ap, curve_points, group_structure, scalar
from modtors import ecff
from modtors.abgroup import FinAbGroup
from modtors.ecff import (
    count_X1_points,
    count_points_of_exact_order,
    discriminant,
    exists_point_of_order,
    finite_field,
    hasse_excludes,
    no_cubic_points_certificate,
    places_of_degree,
    tate_order_counts,
)


# 727 is the prime field of `ecscan 11 727` and 2187 is MAX_TABLE_Q; from
# q = 182 on, (q - 1) * q, the flat table index of a row, does not fit int16.
FIELD_SIZES = [4, 8, 9, 16, 25, 27, 49, 81, 121, 125, 243, 343, 727, 729, 2048, 2187]


@pytest.mark.parametrize("q", FIELD_SIZES)
def test_field_arithmetic(q):
    f = finite_field(q)
    elems = np.arange(q, dtype=np.int16)  # the codes of the field
    nz = elems[1:]
    assert (f.mul(nz, f.inv(nz)) == 1).all()
    assert f.inv(0) == 0
    a, b, c = elems[2], elems[q // 2], elems[q - 1]
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def _poly_reference(f):
    """Sum and product of codes through coefficient lists, reducing the
    product by x^k + f.modulus in pure Python."""
    p, k, mod = f.p, f.k, f.modulus

    def digits(a):
        return [a // p**i % p for i in range(k)]

    def code(coeffs):
        return sum(c % p * p**i for i, c in enumerate(coeffs))

    def add(a, b):
        return code([x + y for x, y in zip(digits(a), digits(b))])

    def mul(a, b):
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(digits(a)):
            for j, y in enumerate(digits(b)):
                prod[i + j] += x * y
        for i in range(2 * k - 2, k - 1, -1):
            top, prod[i] = prod[i], 0
            for j, m in enumerate(mod):
                prod[i - k + j] -= top * m
        return code(prod[:k])

    return add, mul


@pytest.mark.parametrize("q", FIELD_SIZES)
def test_field_tables_match_polynomial_arithmetic(q):
    import random

    f = finite_field(q)
    add, mul = _poly_reference(f)
    if q <= 81:
        pairs = [(a, b) for a in range(q) for b in range(q)]
    else:
        rng = random.Random(q)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)]
        # codes near q - 1, where a * q overflows int16 from q = 182 on
        pairs += [(q - 1 - i, q - 1 - j) for i in range(8) for j in range(8)]
    a, b = (np.array(x, dtype=np.int16) for x in zip(*pairs))
    assert f.mul(a, b).tolist() == [mul(x, y) for x, y in pairs]
    assert f.add(a, b).tolist() == [add(x, y) for x, y in pairs]
    assert f.mul(q - 1, b).tolist() == [mul(q - 1, y) for y in b.tolist()]
    assert f.add(a, q - 1).tolist() == [add(x, q - 1) for x in a.tolist()]
    assert (f.add(a, f.neg(a)) == 0).all()
    assert (f.add(f.sub(a, b), b) == a).all()
    assert (f.smul(5, a) == f.add(f.add(f.add(a, a), f.add(a, a)), a)).all()
    assert (f.smul(-1, a) == f.neg(a)).all()
    for table in (f._add, f._mul, f._neg, f._inv):
        assert table.dtype == np.int16
    for codes in (f.add(a, b), f.sub(a, b), f.mul(a, b), f.neg(a),
                  f.inv(a), f.smul(q - 1, a)):
        assert codes.dtype == np.int16


@pytest.mark.parametrize("q", FIELD_SIZES)
def test_antilog_covers_nonzero_elements(q):
    f = finite_field(q)
    assert len(f.antilog) == q - 1
    assert sorted(f.antilog.tolist()) == list(range(1, q))
    assert (f.antilog[f.log[1:]] == np.arange(1, q)).all()


# The default modulus x^k + f.modulus of F_{p^k} for every p^k <= 3^7 with
# k >= 2: element codes, and so every table, depend on it.
DEFAULT_MODULI = {
    (2, 2): (1, 1), (2, 3): (1, 0, 1), (2, 4): (1, 0, 0, 1),
    (2, 5): (1, 0, 0, 1, 0), (2, 6): (1, 0, 0, 0, 0, 1),
    (2, 7): (1, 0, 0, 0, 0, 0, 1), (2, 8): (1, 0, 0, 0, 1, 1, 0, 1),
    (2, 9): (1, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 10): (1, 0, 0, 0, 0, 0, 0, 1, 0, 0),
    (2, 11): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0),
    (3, 2): (1, 0), (3, 3): (1, 0, 2), (3, 4): (1, 0, 1, 1),
    (3, 5): (1, 0, 0, 0, 2), (3, 6): (1, 0, 0, 0, 1, 1),
    (3, 7): (1, 0, 0, 0, 0, 1, 2),
    (5, 2): (1, 1), (5, 3): (1, 0, 1), (5, 4): (1, 0, 1, 1),
    (7, 2): (1, 0), (7, 3): (1, 0, 1), (11, 2): (1, 0), (11, 3): (1, 0, 4),
    (13, 2): (1, 3), (17, 2): (1, 1), (19, 2): (1, 0), (23, 2): (1, 0),
    (29, 2): (1, 1), (31, 2): (1, 0), (37, 2): (1, 3), (41, 2): (1, 1),
    (43, 2): (1, 0),
}


def test_default_moduli_are_frozen(monkeypatch):
    # only the modulus search runs, not the tables
    monkeypatch.setattr(ecff.FiniteField, "_build_tables", lambda self: None)
    fields = {
        (p, k)
        for p in range(2, 50)
        if isprime(p)
        for k in range(2, 12)
        if p**k <= ecff.MAX_TABLE_Q
    }
    assert fields == set(DEFAULT_MODULI)
    for (p, k), modulus in DEFAULT_MODULI.items():
        assert ecff.FiniteField(p, k).modulus == modulus


def test_field_conversions():
    f = finite_field(49)
    assert scalar(f, -1) == 6 and scalar(f, (3, 2)) == 3 + 2 * 7
    assert f.coefficients(scalar(f, (3, -1))) == (3, 6)
    with pytest.raises(ValueError):
        scalar(f, (1, 2, 3))


def test_group_structure_examples():
    # the level-11 curve over F_3
    assert group_structure(3, (0, -1, 1, -10, -20)) == FinAbGroup([5])
    # full 2-torsion: y^2 = x(x-1)(x-2) over F_5
    g = group_structure(5, (0, -3, 0, 2, 0))
    assert g.invariants[0] == 2 and len(g.invariants) == 2
    # singular curve rejected
    with pytest.raises(ValueError):
        group_structure(5, (0, 0, 0, 0, 0))


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13])
def test_group_structure_invariants(q):
    import random

    rng = random.Random(q)
    f = finite_field(q)
    found = 0
    while found < 4:
        coeffs = tuple(rng.randrange(q if f.k == 1 else f.p) for _ in range(5))
        try:
            g = group_structure(q, coeffs)
        except ValueError:
            continue
        found += 1
        n = g.order()
        assert (q + 1 - n) ** 2 <= 4 * q  # Hasse
        if len(g.invariants) == 2:
            a, b = g.invariants
            assert b % a == 0 and (q - 1) % a == 0


def test_hasse_excludes():
    assert hasse_excludes(27, 65) is True
    assert hasse_excludes(125, 121) is False
    assert hasse_excludes(4, 2) is False
    assert hasse_excludes(3, 65) is True
    assert hasse_excludes(9, 65) is True


def test_exists_point_of_order():
    assert exists_point_of_order(7, 7) is True
    assert exists_point_of_order(25, 121) is False
    assert exists_point_of_order(5, 121) is False
    # Hasse-excluded shortcut
    assert exists_point_of_order(3, 65) is False
    # small orders always realizable
    for q in (3, 5, 9, 11):
        for n in (1, 2, 3):
            assert exists_point_of_order(q, n) is True
    with pytest.raises(ResourceWarning):
        exists_point_of_order(3**8, 5)


def test_small_order_existence_via_scan():
    """Cross-check the N <= 3 shortcut by scanning small general models.

    Every coefficient tuple over F_q is a lane: the singular ones are masked
    by the discriminant, and #E(F_q) is counted with one table pass per
    affine (x, y).  A few curves are checked against group_structure."""
    rng = np.random.default_rng(5)
    for q in (3, 5, 7):
        f = finite_field(q)
        lanes = np.indices((q,) * 5).reshape(5, -1)  # (a1, a2, a3, a4, a6) codes
        smooth = discriminant(f, tuple(lanes)) != 0
        a1, a2, a3, a4, a6 = lanes[:, smooth]
        orders = np.ones(len(a1), dtype=np.int64)  # the point at infinity
        for x in range(q):
            for y in range(q):
                lhs = f.add(f.mul(y, y), f.add(f.mul(a1, f.mul(x, y)), f.mul(a3, y)))
                rhs = f.add(f.mul(x, f.mul(x, x)), f.add(f.mul(a2, f.mul(x, x)),
                                                         f.add(f.mul(a4, x), a6)))
                orders += lhs == rhs
        assert ((orders - q - 1) ** 2 <= 4 * q).all()  # Hasse
        assert (orders % 2 == 0).any()
        assert (orders % 3 == 0).any()
        for k in rng.choice(len(orders), 4, replace=False):
            coeffs = [int(a[k]) for a in (a1, a2, a3, a4, a6)]
            assert group_structure(q, coeffs).order() == orders[k]
        singular = lanes[:, ~smooth][:, 0].tolist()
        with pytest.raises(ValueError, match="singular"):
            group_structure(q, singular)


def test_count_X1_points_trivia():
    # genus-0 levels: q + 1 points
    assert count_X1_points(7, 9) == 10
    with pytest.raises(ValueError):
        count_X1_points(4, 9)
    with pytest.raises(ValueError):
        count_X1_points(22, 11**2)  # 11 | 2N


@pytest.mark.parametrize(
    "N,q",
    [(5, 3), (5, 9), (5, 49), (6, 25), (7, 9), (8, 3), (8, 81), (9, 5),
     (10, 27), (12, 5), (12, 25), (5, 243), (10, 243)],
)
def test_genus0_counts(N, q):
    assert count_X1_points(N, q) == q + 1


def test_x1_11_cross_count():
    # X1(11) is the elliptic curve y^2 + y = x^3 - x^2 (Cremona 11a3);
    # counting its points over F_q is an independent oracle
    for q in (3, 5, 9, 7):
        f = finite_field(q)
        xs, _ = curve_points(f, (0, -1, 1, 0, 0))
        assert count_X1_points(11, q) == len(xs) + 1


def test_places_of_degree_paper_values():
    assert [places_of_degree(22, 3, d) for d in (1, 2, 3)] == [10, 0, 0]
    # frozen regression for X1(25) mod 3 (computed by this tool)
    assert [places_of_degree(25, 3, d) for d in (1, 2, 3)] == [10, 0, 0]


def test_degree_sum_identities():
    # points over F_{p^k} are exactly the places of degree dividing k
    for N, p in ((22, 3), (25, 3), (13, 5)):
        a1, a2, a3 = (places_of_degree(N, p, d) for d in (1, 2, 3))
        assert a1 + 2 * a2 == count_X1_points(N, p**2)
        assert a1 + 3 * a3 == count_X1_points(N, p**3)


def test_exists_consistent_with_hasse():
    for q in (3, 9, 27):
        for N in (65, 121):
            if hasse_excludes(q, N):
                assert not exists_point_of_order(q, N)


def test_no_cubic_points_certificates():
    cert = no_cubic_points_certificate(22, 3, 10)
    assert cert["certified"] and cert["verdict"] == "no new points in degree <= 3"
    cert = no_cubic_points_certificate(25, 3, 10)
    assert cert["certified"]
    # X1(21) has a genuine cubic point, so no certificate can exist
    # (p = 5 here: the analysis needs p coprime to 2N)
    cert = no_cubic_points_certificate(21, 5, 6)
    assert not cert["certified"] and cert["verdict"] == "inconclusive"


def test_exact_order_counts_match_brute_force():
    """Independent oracle: count (E, P) pairs with P of exact order N by
    enumerating all Tate curves with scalar arithmetic."""
    from itertools import product

    p = 7
    f = finite_field(p)

    def order_of_origin(b, c):
        a1, a2, a3 = (1 - c) % p, (-b) % p, (-b) % p
        # scalar addition on y^2 + a1 xy + a3 y = x^3 + a2 x^2
        def add(P, Q):
            if P is None:
                return Q
            if Q is None:
                return P
            x1, y1 = P
            x2, y2 = Q
            if x1 == x2 and (y1 + y2 + a1 * x2 + a3) % p == 0:
                return None
            if x1 == x2:
                num = (3 * x1 * x1 + 2 * a2 * x1 - a1 * y1) % p
                den = (2 * y1 + a1 * x1 + a3) % p
            else:
                num = (y2 - y1) % p
                den = (x2 - x1) % p
            lam = num * pow(den, p - 2, p) % p
            x3 = (lam * lam + a1 * lam - a2 - x1 - x2) % p
            y3 = (lam * (x1 - x3) - y1 - a1 * x3 - a3) % p
            return (x3, y3)

        # discriminant via the specialized formula
        b2 = (a1 * a1 + 4 * a2) % p
        b4 = (a1 * a3) % p
        b6 = (a3 * a3) % p
        b8 = (a2 * a3 * a3) % p
        disc = (-b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6) % p
        if disc == 0:
            return None
        q0 = (0, 0)
        acc = q0
        k = 1
        while True:
            acc = add(acc, q0)
            k += 1
            if acc is None:
                return k
            if k > 30:
                return None

    brute = {}
    for b, c in product(range(p), repeat=2):
        o = order_of_origin(b, c)
        if o:
            brute[o] = brute.get(o, 0) + 1
    for n in range(4, 14):
        assert count_points_of_exact_order(n, p) == brute.get(n, 0)


@pytest.mark.parametrize("q", [7, 8, 9, 16, 25, 27, 49])
def test_exact_order_double_and_add_matches_sequential_scan(q):
    # orders 4..40 include the prime powers 8, 9, 16, 25, 27 and 32
    f = finite_field(q)
    b, c = np.divmod(np.arange(q * q), q)
    a1, a2 = f.sub(1, c), f.neg(b)
    counts = tate_order_counts(q, 40)
    assert counts.sum() == (discriminant(f, (a1, a2, a2, 0, 0)) != 0).sum()
    for n in range(4, 41):
        assert count_points_of_exact_order(n, q) == counts[n], n


def test_exact_order_double_and_add_at_121_over_f125(monkeypatch):
    counts = tate_order_counts(125, 121)
    assert count_points_of_exact_order(121, 125) == counts[121]
    # small chunks give the same count
    monkeypatch.setattr(ecff, "_CHUNK", 1000)
    assert count_points_of_exact_order(121, 125) == counts[121]


@pytest.mark.parametrize("chunk", [200000, 40])
def test_exists_point_of_order_agrees_with_count(monkeypatch, chunk):
    monkeypatch.setattr(ecff, "_CHUNK", chunk)
    zero = 0
    for q in (5, 7, 8, 9, 11, 13, 16, 25, 27):
        for n in range(4, 31):
            count = count_points_of_exact_order(n, q)
            zero += count == 0
            assert exists_point_of_order(q, n) == (count > 0), (q, n)
    assert zero > 50  # the grid holds many orders with no point


def test_exists_point_of_order_stops_at_first_hit(monkeypatch):
    monkeypatch.setattr(ecff, "_CHUNK", 1000)
    scans = ecff._tate_curves
    chunks = []

    def counted(f):
        for lanes in scans(f):
            chunks.append(len(lanes[0]))
            yield lanes

    monkeypatch.setattr(ecff, "_tate_curves", counted)
    assert count_points_of_exact_order(11, 121) > 0
    total = len(chunks)
    assert total == 15  # 121^2 pairs in chunks of 1000
    chunks.clear()
    assert exists_point_of_order(121, 11)
    assert 1 <= len(chunks) < total


def test_field_above_table_limit_is_refused(monkeypatch):
    # refused before the modulus search and the tables
    monkeypatch.setattr(ecff.FiniteField, "_build_tables", None)
    monkeypatch.setattr(ecff.FiniteField, "_find_irreducible", None)
    for q in (3**8, 3**9, 2**12, 2203):
        with pytest.raises(ResourceWarning):
            finite_field(q)
    with pytest.raises(ResourceWarning):
        exists_point_of_order(3**8, 5)
    with pytest.raises(ResourceWarning):
        group_structure(3**8, (0, 0, 0, 1, 1))
