"""Elliptic curves over small finite fields: group structures and moduli counts.

Field elements are integer codes: c_0 + c_1 x + ... + c_{k-1} x^(k-1) in
F_q = F_p[x]/(f), q = p^k, is coded as a = c_0 + c_1 p + ... + c_{k-1}
p^(k-1), so 0 <= a < q, the codes 0 and 1 are zero and one, and F_p is
0..p-1.  Codes are carried as int16 arrays: q <= MAX_TABLE_Q < 2^15.
Each `FiniteField` builds exact tables once, from the log/antilog tables
of a primitive element (Zech's approach, Lidl and Niederreiter, *Finite
Fields*): flat int16 sum and product tables of q * q entries, read at
a * q + b, and negation and inverse tables with inv[0] = 0.  Every
operation on arrays of codes is then one gather (`sub` two, through
`neg`), with the index a * q + b computed in intp (a * q overflows int16,
silently for arrays); the arithmetic stays exact integer arithmetic.
Fields above MAX_TABLE_Q are refused with ResourceWarning before any
table is built.

Pairs (E, P) with P of exact order N >= 4 are enumerated through the Tate
normal form y^2 + (1-c) xy - b y = x^3 - b x^2 with P = (0, 0): nonsingular
parameter pairs (b, c) biject with such pairs, so counting F_q-points of
X1(N) away from the cusps is a scan over (b, c) in F_q^2, vectorized with
numpy over chunks of pairs.  The number of pairs of exact order N is found
by double-and-add: N * P = O and (N / l) * P != O for every prime l | N.
`tate_order_counts` keeps the sequential scan P, 2P, 3P, ... for the whole
order distribution.
"""

from itertools import product
from math import isqrt

import numpy as np

from .abgroup import FinAbGroup
from .arith import factorint, is_irreducible_mod_p, isprime, mobius, poly_mulmod
from .cusps import degree1_count_over_extension

# Largest field whose q x q tables are built: int16 codes, two flat
# tables of about 9.6 MB each at 3^7.
# Larger fields are refused with ResourceWarning before any allocation.
MAX_TABLE_Q = 3**7
# Tate pairs (b, c) per vectorized chunk of a scan; bounds its memory.
_CHUNK = 200000


def _check_table_size(q):
    if q > MAX_TABLE_Q:
        raise ResourceWarning(
            f"field size {q} above the arithmetic-table limit {MAX_TABLE_Q}"
        )


class FiniteField:
    """F_q with q = p^k; elements are integer codes 0 <= a < q.

    The vectorized operations take codes or integer arrays of codes,
    broadcast like numpy and return int16 codes; `scalar` and
    `coefficients` convert between codes and coefficient tuples (constant
    term first) in the basis of powers of a root of x^k + modulus.
    """

    def __init__(self, p, k=1):
        if not isprime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1:
            raise ValueError("degree must be positive")
        self.p = int(p)
        self.k = int(k)
        self.q = self.p**self.k
        _check_table_size(self.q)
        self.modulus = (0,) if k == 1 else self._find_irreducible()
        self._build_tables()

    def _find_irreducible(self):
        for tail in product(range(self.p), repeat=self.k):
            if is_irreducible_mod_p([*tail, 1], self.p):
                return tail
        raise ArithmeticError("no irreducible polynomial found")

    def _build_tables(self):
        """Exact add/mul/neg/inv tables from a primitive element g.

        antilog[i] is the code of g^i (0 <= i < q - 1) and log inverts it
        on the nonzero codes; a * b = antilog[(log a + log b) mod (q - 1)].
        Every table is int16, and so is the one q x q temporary, the sums
        of two extended logs (at most 4(q - 1)) behind the product table.
        """
        p, k, q = self.p, self.k, self.q
        place = [p**i for i in range(k)]
        modulus = [*self.modulus, 1]
        for g in range(1, q):
            g_poly = self.coefficients(g)
            powers, cur = [], [1]
            while True:
                powers.append(sum(c * w for c, w in zip(cur, place)))
                cur = poly_mulmod(cur, g_poly, modulus, p)
                if cur == [1]:
                    break
            if len(powers) == q - 1:
                break
        self.antilog = np.array(powers, dtype=np.int16)
        self.log = np.zeros(q, dtype=np.int16)
        self.log[self.antilog] = np.arange(q - 1)
        # zero gets log 2(q - 1): a sum of two logs reaches the zero tail of
        # the twice-repeated antilog exactly when a factor is zero
        ext_log = self.log.copy()
        ext_log[0] = 2 * (q - 1)
        ext_antilog = np.zeros(4 * q - 3, dtype=np.int16)
        ext_antilog[: 2 * (q - 1)] = np.tile(self.antilog, 2)
        self._mul = ext_antilog[np.add.outer(ext_log, ext_log).ravel()]
        self._inv = ext_antilog[q - 1 - self.log]
        self._inv[0] = 0
        # a code is its constant term plus p times the code of the rest, so
        # the tables for p^(i+1) come from those for p^i digit by digit
        digit = np.arange(p, dtype=np.int16)
        step = ((digit[:, None] + digit) % p)[None, :, None, :]
        add = np.zeros((1, 1), dtype=np.int16)
        self._neg = np.zeros(1, dtype=np.int16)
        for _ in range(k):
            n = len(self._neg)
            add = (p * add[:, None, :, None] + step).reshape(n * p, n * p)
            self._neg = (p * self._neg[:, None] + -digit % p).reshape(n * p)
        self._add = add.ravel()

    # -- conversions ---------------------------------------------------------

    def scalar(self, value):
        """Code of an integer (taken mod p) or of a coefficient sequence
        c_0, c_1, ... of length at most k (constant term first)."""
        if isinstance(value, (int, np.integer)):
            return int(value) % self.p
        value = [int(v) % self.p for v in value]
        if len(value) > self.k:
            raise ValueError(f"more than {self.k} coefficients")
        return sum(c * self.p**i for i, c in enumerate(value))

    def coefficients(self, a):
        """Coefficient tuple (c_0, ..., c_{k-1}) of the code a."""
        a = int(a)
        return tuple(a // self.p**i % self.p for i in range(self.k))

    def elements(self):
        """All field elements: the codes 0, ..., q - 1."""
        return np.arange(self.q, dtype=np.int16)

    # -- vectorized arithmetic on codes --------------------------------------

    def _pair(self, a, b):
        """Flat table index a * q + b, in intp: a * q overflows int16."""
        return np.multiply(a, self.q, dtype=np.intp) + b

    def add(self, a, b):
        return self._add.take(self._pair(a, b))

    def sub(self, a, b):
        return self._add.take(self._pair(a, self._neg.take(b)))

    def neg(self, a):
        return self._neg.take(a)

    def mul(self, a, b):
        return self._mul.take(self._pair(a, b))

    def smul(self, c, a):
        """The integer c times a."""
        return self._mul.take(self._pair(c % self.p, a))

    def inv(self, a):
        """Elementwise inverse; zero maps to zero."""
        return self._inv.take(a)

    def __repr__(self):
        return f"FiniteField({self.p}^{self.k})"


def prime_power(q):
    """(p, k) with q = p^k, p prime and k >= 1; ValueError otherwise."""
    fac = factorint(q) if q > 1 else {}
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    (p, k), = fac.items()
    return p, k


def finite_field(q):
    return FiniteField(*prime_power(q))


# ---------------------------------------------------------------------------
# Weierstrass arithmetic, vectorized over codes


def discriminant(f, coeffs):
    """Discriminant of y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6.

    coeffs = (a1, a2, a3, a4, a6) are codes or arrays of codes; the result
    broadcasts over them.
    """
    a1, a2, a3, a4, a6 = coeffs
    b2 = f.add(f.mul(a1, a1), f.smul(4, a2))
    b4 = f.add(f.smul(2, a4), f.mul(a1, a3))
    b6 = f.add(f.mul(a3, a3), f.smul(4, a6))
    b8 = f.add(
        f.sub(
            f.add(f.mul(f.mul(a1, a1), a6), f.smul(4, f.mul(a2, a6))),
            f.mul(a1, f.mul(a3, a4)),
        ),
        f.sub(f.mul(a2, f.mul(a3, a3)), f.mul(a4, a4)),
    )
    d = f.neg(f.mul(f.mul(b2, b2), b8))
    d = f.sub(d, f.smul(8, f.mul(b4, f.mul(b4, b4))))
    d = f.sub(d, f.smul(27, f.mul(b6, b6)))
    d = f.add(d, f.smul(9, f.mul(b2, f.mul(b4, b6))))
    return d


def _add_points(f, coeffs, x1, y1, i1, x2, y2, i2):
    """P1 + P2, lane by lane, on the curve with coefficient codes coeffs.

    Points are code arrays x, y with boolean infinity flags i; a point at
    infinity has x = y = 0.  a6 does not enter the addition law.
    """
    a1, a2, a3, a4, _ = coeffs
    neg_y2 = f.sub(f.neg(y2), f.add(f.mul(a1, x2), a3))
    xeq = x1 == x2
    is_inv = xeq & (y1 == neg_y2) & ~i1 & ~i2
    dbl = xeq & ~is_inv & ~i1 & ~i2
    # doubling slope: (3x^2 + 2 a2 x + a4 - a1 y) / (2y + a1 x + a3)
    num_dbl = f.sub(
        f.add(f.smul(3, f.mul(x1, x1)), f.add(f.smul(2, f.mul(a2, x1)), a4)),
        f.mul(a1, y1),
    )
    den_dbl = f.add(f.smul(2, y1), f.add(f.mul(a1, x1), a3))
    num = np.where(dbl, num_dbl, f.sub(y2, y1))
    den = np.where(dbl, den_dbl, f.sub(x2, x1))
    # den is zero only on lanes whose sum is replaced below; inv(0) = 0
    lam = f.mul(num, f.inv(den))
    x3 = f.sub(f.add(f.mul(lam, lam), f.mul(a1, lam)), f.add(a2, f.add(x1, x2)))
    y3 = f.sub(f.mul(lam, f.sub(x1, x3)), f.add(y1, f.add(f.mul(a1, x3), a3)))
    out_inf = (i1 & i2) | is_inv
    ox = np.where(i1, x2, np.where(i2, x1, x3))
    oy = np.where(i1, y2, np.where(i2, y1, y3))
    return np.where(out_inf, 0, ox), np.where(out_inf, 0, oy), out_inf


def _multiple(f, coeffs, x, y, inf, m):
    """m * P for m >= 1, lane by lane, by double-and-add."""
    acc = None
    base = (x, y, inf)
    while True:
        if m & 1:
            acc = base if acc is None else _add_points(f, coeffs, *acc, *base)
        m >>= 1
        if not m:
            return acc
        base = _add_points(f, coeffs, *base, *base)


# ---------------------------------------------------------------------------
# Tate-normal-form scans


def _tate_curves(f):
    """Coefficients (a1, a2, a3) of the nonsingular Tate curves
    a1 = 1 - c, a2 = a3 = -b, one triple of code arrays per chunk of
    _CHUNK (b, c) pairs."""
    q = f.q
    for start in range(0, q * q, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, q * q), dtype=np.intp)
        a1 = f.sub(1, idx % q)
        a2 = f.neg(idx // q)
        alive = discriminant(f, (a1, a2, a2, 0, 0)) != 0
        yield a1[alive], a2[alive], a2[alive]


def _origin(lanes):
    zero = np.zeros(len(lanes[0]), dtype=np.int16)
    return zero, zero, np.zeros(len(zero), dtype=bool)


def tate_order_counts(q, max_order):
    """Distribution of orders of (0,0) on nonsingular Tate curves over F_q.

    Returns an array counts[m] = number of (b, c) pairs where (0, 0) has
    exact order m, for 2 <= m <= max_order; pairs of larger order are
    counted in counts[0].  Adds P to itself up to max_order - 1 times.
    """
    f = finite_field(q)
    counts = np.zeros(max_order + 1, dtype=np.int64)
    for lanes in _tate_curves(f):
        coeffs = (*lanes, 0, 0)
        point = _origin(lanes)
        qx, qy, qinf = point
        undecided = np.ones(len(qx), dtype=bool)
        for order in range(2, max_order + 1):
            if not undecided.any():
                break
            qx, qy, qinf = _add_points(f, coeffs, qx, qy, qinf, *point)
            newly = undecided & qinf
            counts[order] += int(newly.sum())
            undecided &= ~newly
        counts[0] += int(undecided.sum())
    return counts


def count_points_of_exact_order(N, q):
    """Number of non-cuspidal F_q-points of X1(N): Tate pairs of order N.

    A pair counts when N * P = O and (N / l) * P != O for each prime
    l | N, with each multiple computed by double-and-add; a lane is
    dropped at the first test it fails.
    """
    return sum(_exact_order_chunks(N, q))


def _exact_order_chunks(N, q):
    """Number of Tate pairs of exact order N in each chunk of the scan, one
    chunk at a time, so that a caller may stop at the first hit."""
    if N < 4:
        raise ValueError("Tate normal form needs order >= 4")
    f = finite_field(q)
    tests = [(N, True)] + [(N // ell, False) for ell in factorint(N)]
    for lanes in _tate_curves(f):
        for m, killed in tests:
            inf = _multiple(f, (*lanes, 0, 0), *_origin(lanes), m)[2]
            lanes = tuple(a[inf == killed] for a in lanes)
        yield len(lanes[0])


# ---------------------------------------------------------------------------
# single-curve structure


def curve_points(f, coeffs):
    """All affine points (x, y) of a long Weierstrass curve, as code arrays.

    coeffs are (a1, a2, a3, a4, a6), each an integer or coefficient tuple.
    """
    a1, a2, a3, a4, a6 = (f.scalar(c) for c in coeffs)
    xs = np.repeat(f.elements(), f.q)
    ys = np.tile(f.elements(), f.q)
    lhs = f.add(f.mul(ys, ys), f.add(f.mul(a1, f.mul(xs, ys)), f.mul(a3, ys)))
    rhs = f.add(
        f.mul(xs, f.mul(xs, xs)),
        f.add(f.mul(a2, f.mul(xs, xs)), f.add(f.mul(a4, xs), a6)),
    )
    on = lhs == rhs
    return xs[on], ys[on]


def group_structure(q, coeffs):
    """Group invariants of E(F_q) by exhaustive enumeration.

    coeffs are the long Weierstrass coefficients (a1, a2, a3, a4, a6), each
    an integer or coefficient tuple.  Exact: points are enumerated and the
    l-torsion counted for each prime l dividing the order.
    """
    f = finite_field(q)
    coded = tuple(f.scalar(c) for c in coeffs)
    if discriminant(f, coded) == 0:
        raise ValueError("singular curve")
    xs, ys = curve_points(f, coeffs)
    n = len(xs) + 1
    if not (q + 1 - isqrt(4 * q) <= n <= q + 1 + isqrt(4 * q)):
        raise ArithmeticError("point count outside Hasse interval")
    a_part, b_part = 1, 1
    for ell, v_n in factorint(n).items():
        # E[l^j] has l^(min(j, alpha) + min(j, beta)) points with
        # alpha <= beta the l-valuations of the invariants; alpha is the
        # largest j with a full l^(2j) of l^j-torsion
        alpha = 0
        for j in range(1, v_n // 2 + 1):
            cnt = _count_killed(f, coded, xs, ys, ell**j) + 1
            if cnt == ell ** (2 * j):
                alpha = j
            else:
                break
        a_part *= ell**alpha
        b_part *= ell ** (v_n - alpha)
    if (q - 1) % a_part:
        raise ArithmeticError("first invariant must divide q - 1")
    return FinAbGroup([x for x in (a_part, b_part) if x > 1])


def _count_killed(f, coeffs, xs, ys, m):
    """Number of affine points P with m * P = infinity."""
    inf = np.zeros(len(xs), dtype=bool)
    return int(_multiple(f, coeffs, xs, ys, inf, m)[2].sum())


# ---------------------------------------------------------------------------
# the scans the certificates rely on


def hasse_excludes(q, N):
    """True iff no E/F_q can have a point of order N: N > q + 1 + 2 sqrt(q).

    Exact integer comparison: N > q + 1 and (N - q - 1)^2 > 4q.
    """
    if N <= q + 1:
        return False
    return (N - q - 1) ** 2 > 4 * q


def exists_point_of_order(q, N):
    """Whether some elliptic curve over F_q has a point of exact order N.

    For N >= 4 this scans the Tate parameter pairs (covering every curve
    with a point of order N up to isomorphism and twist) chunk by chunk,
    up to the first chunk holding a pair of exact order N.  For N <= 3 a
    curve always exists: any curve for N = 1; every ordinary curve over
    F_{2^k} and any full-2-torsion model for odd q when N = 2; the Hasse
    interval contains a realizable multiple of 3 when N = 3.  A q that is
    not a prime power (ValueError) or is above MAX_TABLE_Q
    (ResourceWarning) is refused before either shortcut.
    """
    prime_power(q)
    _check_table_size(q)
    if N <= 0:
        raise ValueError("order must be positive")
    if hasse_excludes(q, N):
        return False
    if N <= 3:
        return True
    return any(_exact_order_chunks(N, q))


def count_X1_points(N, q):
    """#X1(N)(F_q): degree-one cusp points plus Tate pairs of order N."""
    if N < 5:
        raise ValueError("N must be at least 5")
    p, k = prime_power(q)
    if (2 * N) % p == 0:
        raise ValueError(f"char {p} divides 2N")
    cusps = degree1_count_over_extension(N, "X1", p, k)
    return cusps + count_points_of_exact_order(N, q)


def places_of_degree(N, p, d):
    """Number of degree-d places of X1(N) over F_p, for small d.

    Moebius inversion of the point counts over F_{p^e} for e | d.
    """
    if d < 1:
        raise ValueError("degree must be positive")
    total = 0
    for e in range(1, d + 1):
        if d % e:
            continue
        total += mobius(d // e) * count_X1_points(N, p**e)
    if total % d:
        raise ArithmeticError(f"X1({N}) over F_{p}: {total} points do not make degree-{d} places")
    return total // d


def no_cubic_points_certificate(N, p, known_rational_count):
    """Local certificate that X1(N) has no unknown points of degree <= 3.

    Embeds the caller-asserted hypotheses (gonality >= 4, Mordell-Weil rank
    zero); certifies when the degree-1 places match the known rational
    count and no places of degree 2 or 3 exist.
    """
    a1, a2, a3 = (places_of_degree(N, p, d) for d in (1, 2, 3))
    certified = a1 == known_rational_count and a2 == 0 and a3 == 0
    return {
        "level": N,
        "prime": p,
        "places": [a1, a2, a3],
        "known_rational_count": known_rational_count,
        "assumptions": ["gonality >= 4", "rank J_1(N)(Q) = 0"],
        "verdict": "no new points in degree <= 3" if certified else "inconclusive",
        "certified": certified,
    }
