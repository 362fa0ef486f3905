"""Elliptic curves over small finite fields: moduli counts by Tate scans.

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
normal form E(b, c): y^2 + (1-c) xy - b y = x^3 - b x^2 with P = (0, 0)
(Kubert, Proc. LMS 33, 1976): nonsingular parameter pairs (b, c) biject
with such pairs, so counting F_q-points of X1(N) away from the cusps is a
scan over (b, c) in F_q^2, vectorized with numpy over chunks of pairs.  A
pair is nonsingular when b != 0 and 16b^2 + b(1 - 20c - 8c^2) - c(1 - c)^3
!= 0, the discriminant being b^3 times that quartic over Z.  Multiples of
P come from arithmetic on the Tate curve alone (a1 = 1 - c, a2 = a3 = -b,
a4 = a6 = 0): a left-to-right ladder starts at 2P = (b, bc) or
3P = (c, b - c) and goes on by doublings and additions of P.  Exact
masks set the exceptional lanes: an input at O, a 2-torsion point on a
doubling, Q = -P = (0, b) on an addition; Q = P needs none, as inv(0) = 0
gives slope 0, the tangent slope at P.
P has exact order N when N * P = O and (N / l) * P != O for every prime
l < N dividing N.  `tate_order_counts` adds P step by step, P, 2P, 3P,
..., for the whole order distribution.
"""

from itertools import product

import numpy as np

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
    broadcast like numpy and return int16 codes; `coefficients` gives the
    coefficient tuple of a code (constant term first) in the basis of
    powers of a root of x^k + modulus.
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

    def coefficients(self, a):
        """Coefficient tuple (c_0, ..., c_{k-1}) of the code a."""
        a = int(a)
        return tuple(a // self.p**i % self.p for i in range(self.k))

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
# Tate-normal-form scans


def _tate_curves(f):
    """The nonsingular Tate pairs (b, c), two code arrays per chunk of
    _CHUNK pairs: over Z the discriminant of E(b, c) is b^3 times
    16b^2 + b(1 - 20c - 8c^2) - c(1 - c)^3, so a pair is kept when b and
    that quartic are nonzero in F_q."""
    q = f.q
    for start in range(0, q * q, _CHUNK):
        b, c = np.divmod(np.arange(start, min(start + _CHUNK, q * q)), q)
        b, c = b.astype(np.int16), c.astype(np.int16)
        a1 = f.sub(1, c)
        inner = f.sub(f.add(f.smul(16, b), 1), f.mul(c, f.add(f.smul(8, c), 20 % f.p)))
        quartic = f.sub(f.mul(b, inner), f.mul(c, f.mul(a1, f.mul(a1, a1))))
        alive = (b != 0) & (quartic != 0)
        yield b[alive], c[alive]


def _tate_lanes(f, b, c):
    """Per-lane constants (b, a1, a3, 2 a3) of E(b, c): a1 = 1 - c and
    a2 = a3 = -b."""
    a3 = f.neg(b)
    return b, f.sub(1, c), a3, f.add(a3, a3)


def _tate_double(f, t, x, y, inf):
    """2Q, lane by lane, on the Tate curves t (see `_tate_lanes`).

    Points are code arrays x, y with boolean infinity flags; a point at
    infinity has x = y = 0.  2Q = O where Q = O or 2y + a1 x + a3 = 0.
    """
    b, a1, a3, two_a3 = t
    # tangent slope (3x^2 + 2 a2 x - a1 y) / (2y + a1 x + a3), a2 = a3
    num = f.sub(f.mul(x, f.add(f.smul(3, x), two_a3)), f.mul(a1, y))
    den = f.add(f.add(y, y), f.add(f.mul(a1, x), a3))
    out_inf = inf | (den == 0)
    # inv(0) = 0: the lanes with den = 0 are replaced below
    lam = f.mul(num, f.inv(den))
    s = f.add(lam, a1)
    x3 = f.sub(f.add(f.mul(lam, s), b), f.add(x, x))
    # y3 = lam (x - x3) - y - a1 x3 - a3, and -a3 = b
    y3 = f.sub(f.add(f.mul(lam, x), b), f.add(y, f.mul(s, x3)))
    return np.where(out_inf, 0, x3), np.where(out_inf, 0, y3), out_inf


def _tate_add(f, t, x, y, inf):
    """Q + P, lane by lane, on the Tate curves t with P = (0, 0).

    The chord through P has slope y / x and no constant term.  The only
    affine points with x = 0 are P and -P = (0, b): there inv(0) = 0 gives
    slope 0, the tangent slope at P, so Q = P comes out as 2P = (b, bc);
    Q = -P gives O and Q = O gives P.
    """
    b, a1 = t[:2]
    lam = f.mul(y, f.inv(x))
    s = f.add(lam, a1)
    x3 = f.sub(f.add(f.mul(lam, s), b), x)
    y3 = f.sub(b, f.mul(s, x3))  # -((lam + a1) x3 + a3)
    out_inf = (x == 0) & (y == b)
    zeroed = inf | out_inf  # to P or to O, both stored as (0, 0)
    return np.where(zeroed, 0, x3), np.where(zeroed, 0, y3), out_inf


def _tate_multiple(f, b, c, m):
    """m P for m >= 1 on the Tate curves E(b, c), lane by lane, left to
    right: from 2P = (b, bc) or 3P = (c, b - c) by the top two bits of m,
    then one doubling per further bit and one addition of P per set bit."""
    inf = np.zeros(len(b), dtype=bool)
    if m == 1:
        zero = np.zeros(len(b), dtype=np.int16)
        return zero, zero, inf
    t = _tate_lanes(f, b, c)
    bits = bin(m)[3:]
    x, y = (c, f.sub(b, c)) if bits[0] == "1" else (b, f.mul(b, c))
    for bit in bits[1:]:
        x, y, inf = _tate_double(f, t, x, y, inf)
        if bit == "1":
            x, y, inf = _tate_add(f, t, x, y, inf)
    return x, y, inf


def tate_order_counts(q, max_order):
    """Distribution of orders of (0,0) on nonsingular Tate curves over F_q.

    Returns an array counts[m] = number of (b, c) pairs where (0, 0) has
    exact order m, for 2 <= m <= max_order; pairs of larger order are
    counted in counts[0].  Adds P to itself up to max_order - 1 times.
    """
    f = finite_field(q)
    counts = np.zeros(max_order + 1, dtype=np.int64)
    for b, c in _tate_curves(f):
        t = _tate_lanes(f, b, c)
        qx, qy, qinf = _tate_multiple(f, b, c, 1)
        undecided = np.ones(len(b), dtype=bool)
        for order in range(2, max_order + 1):
            if not undecided.any():
                break
            qx, qy, qinf = _tate_add(f, t, qx, qy, qinf)
            newly = undecided & qinf
            counts[order] += int(newly.sum())
            undecided &= ~newly
        counts[0] += int(undecided.sum())
    return counts


def count_points_of_exact_order(N, q):
    """Number of non-cuspidal F_q-points of X1(N): Tate pairs of order N.

    A pair counts when N * P = O and (N / l) * P != O for each prime
    l < N dividing N, each multiple by the ladder `_tate_multiple`; a lane
    is dropped at the first test it fails.
    """
    return sum(_exact_order_chunks(N, q))


def _exact_order_chunks(N, q):
    """Number of Tate pairs of exact order N in each chunk of the scan, one
    chunk at a time, so that a caller may stop at the first hit."""
    if N < 4:
        raise ValueError("Tate normal form needs order >= 4")
    f = finite_field(q)
    # (N / N) P = P != O always holds, so a prime N has one test
    tests = [(N, True)] + [(N // ell, False) for ell in factorint(N) if ell < N]
    for b, c in _tate_curves(f):
        for m, killed in tests:
            keep = _tate_multiple(f, b, c, m)[2] == killed
            b, c = b[keep], c[keep]
        yield len(b)


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

    Moebius inversion of the point counts over F_{p^e} for e | d; p must
    be prime.
    """
    if d < 1:
        raise ValueError("degree must be positive")
    if not isprime(p):
        raise ValueError(f"{p} is not prime")
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
