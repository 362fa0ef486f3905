"""Exact dense linear algebra over Z and Q.

A matrix is a 2-d integer array (int64, or object for Python ints) or a
list of row lists of Python ints; everything here is exact, no floating
point anywhere.  `exact_product` is the one integer product: int64 where
a bound proves it exact, Python ints otherwise, an int64 or object array
either way.  The eliminations over Z (Hermite, Smith, Bareiss, kernels)
take either format, convert it once on entry (`int_rows`) and return row
lists.  `coordinates` is the one solve over a triangular basis (S and its
sublattices): forward substitution on the pivot columns, checked by one
exact product.  `charpoly` works mod one prime above its coefficient bound,
in Python ints.  numpy int64 carries the word-sized modular arithmetic of
the mod-p and p-adic routines, whose results are reconstructed and/or
verified exactly.
"""

from fractions import Fraction
from itertools import count
from math import gcd, isqrt, lcm
from operator import index

import numpy as np

from .arith import factorint, isprime, lcm_mod_p, nextprime


# ---------------------------------------------------------------------------
# basic dense helpers


def zeros(r, c):
    return [[0] * c for _ in range(r)]


def identity(n):
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = 1
    return m


def int_rows(a):
    """Fresh row lists of Python ints from a 2-d integer array or row lists
    (TypeError on a non-integer entry, such as a Fraction)."""
    rows = a.tolist() if isinstance(a, np.ndarray) else a
    return [list(map(index, row)) for row in rows]


def int_array(a):
    """a, an integer array or row lists, as an int64 array if its entries
    fit, else as an object array of Python ints."""
    if isinstance(a, np.ndarray) and a.dtype == np.int64:
        return a
    try:
        return np.asarray(a, dtype=np.int64)
    except OverflowError:
        return np.array(a, dtype=object)


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def max_abs(a):
    """max |entry| of a list of rows, or of an array without a copy."""
    if isinstance(a, np.ndarray):
        return max(int(a.max(initial=0)), -int(a.min(initial=0)))
    return max((abs(x) for row in a for x in row), default=0)


def integer_rows(rows):
    """(int_rows, den): Fraction rows as integer rows over their least
    common denominator."""
    den = lcm(1, *(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def vec_gcd(v):
    g = 0
    for x in v:
        g = gcd(g, x)
        if g == 1:
            return 1
    return g


# ---------------------------------------------------------------------------
# determinant / fraction-free elimination


def det_bareiss(a):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    m = int_rows(a)
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = m[k][k]
        for i in range(k + 1, n):
            mi = m[i]
            mik = mi[k]
            mk = m[k]
            for j in range(k + 1, n):
                mi[j] = (pk * mi[j] - mik * mk[j]) // prev
            mi[k] = 0
        prev = pk
    return sign * m[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Hermite normal form


def hnf(a, transform=False):
    """Row Hermite normal form.

    Returns H (and U with U*a == H when transform=True); H has pivots > 0,
    entries above each pivot reduced into [0, pivot).  Zero rows are dropped
    from H but kept in U's row count (U stays square unimodular), so
    len(hnf(a)) is the rank of a over Q.

    Entry growth is controlled by re-reducing the echelon whenever entries
    pass an adaptive bit threshold (Kannan-Bachem style), so nasty inputs
    stay polynomial without slowing down the common sparse case.
    """
    return _hermite(int_rows(a), transform, 0)


def _hermite(a, transform, reduced_from):
    """hnf(a, transform) for fresh row lists a of Python ints, except that
    the final renormalization reduces only the rows whose pivot column is
    at least `reduced_from`.  A row is reduced only by rows with later
    pivots, so those rows come out as in hnf; the rows before them are left
    as the growth control left them."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    u = identity(nrows) if transform else None
    pivots = {}  # col -> index into echelon list
    echelon = []  # list of [row, urow, pivcol]
    kernel_rows = []
    in_bits = max((abs(x) for row in a for x in row), default=1).bit_length()
    threshold = 1 << max(256, 8 * in_bits + 64)

    def renormalize(first=0):
        order = sorted(pivots)
        ech = [echelon[pivots[j]] for j in order]
        for i in range(len(ech) - 2, -1, -1):
            rrow, rurow, pivcol = ech[i]
            if pivcol < first:
                break
            for k in range(i + 1, len(ech)):
                row, urow, j = ech[k]
                q = rrow[j] // row[j]
                if q:
                    rrow = [t - q * s for t, s in zip(rrow, row)]
                    if transform:
                        rurow = [t - q * s for t, s in zip(rurow, urow)]
            ech[i][0] = rrow
            ech[i][1] = rurow

    def reduce_in(row, urow):
        j = 0
        big = False
        while j < ncols:
            x = row[j]
            if x == 0:
                j += 1
                continue
            p = pivots.get(j)
            if p is None:
                if row[j] < 0:
                    row = [-t for t in row]
                    if urow is not None:
                        urow = [-t for t in urow]
                pivots[j] = len(echelon)
                echelon.append([row, urow, j])
                return big
            prow, purow, _ = echelon[p]
            pv = prow[j]
            if x % pv == 0:
                q = x // pv
                row = [t - q * s for t, s in zip(row, prow)]
                if urow is not None:
                    urow = [t - q * s for t, s in zip(urow, purow)]
            else:
                g, s, t = xgcd(pv, x)
                nb, na = pv // g, x // g
                newp = [s * e + t * f for e, f in zip(prow, row)]
                newpu = (
                    [s * e + t * f for e, f in zip(purow, urow)]
                    if urow is not None
                    else None
                )
                row = [nb * f - na * e for e, f in zip(prow, row)]
                if urow is not None:
                    urow = [nb * f - na * e for e, f in zip(purow, urow)]
                echelon[p][0] = newp
                echelon[p][1] = newpu
                if any(abs(t) > threshold for t in newp):
                    big = True
        # fully reduced to zero: remember urow as kernel row
        if urow is not None:
            kernel_rows.append(urow)
        return big

    for i, row in enumerate(a):
        if reduce_in(row, u[i] if transform else None):
            renormalize()

    renormalize(reduced_from)
    order = sorted(pivots)
    ech_sorted = [echelon[pivots[j]] for j in order]
    h = [e[0] for e in ech_sorted]
    if not transform:
        return h
    umat = [e[1] for e in ech_sorted] + kernel_rows
    return h, umat


def xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) = a*x + b*y, g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def kernel_basis(a):
    """Saturated basis of the right kernel {x : a @ x = 0} over Z.

    The result spans the full integer kernel (the Q-kernel intersected with
    Z^n), i.e. it equals its own saturation.  Computed as the HNF of the
    block [a^T | I]: rows whose left block vanished carry kernel vectors in
    the right block, and the HNF's own reduction keeps their entries small.
    Only those rows are returned, so the final reduction skips the rows
    with a pivot in the left block.
    """
    at = transpose(int_rows(a))
    if not at:
        return []
    n = len(at)
    m = len(at[0])
    aug = [row + [1 if k == i else 0 for k in range(n)] for i, row in enumerate(at)]
    h = _hermite(aug, False, m)
    out = []
    for row in h:
        if any(row[:m]):
            continue
        out.append(row[m:])
    return out


def solve_integer(a, b):
    """One integer solution x of x @ a = b (row convention), or None.

    a is m x n, b length n; solves over Z exactly: `coordinates` over the
    Hermite form H = U a, then x = y U.
    Nothing in the package calls it; the tests do, and the traced benchmark
    (bench/spans.py) looks it up by name.
    """
    h, u = hnf(a, transform=True)
    y = coordinates([b], h)
    if y is None:
        return None
    return exact_product(y, u[: len(h)])[0].tolist() if h else [0] * len(a)


# ---------------------------------------------------------------------------
# Smith normal form


def _min_pivot(m, s):
    best = None
    pos = None
    for i in range(s, len(m)):
        row = m[i]
        for j in range(s, len(row)):
            x = row[j]
            if x and (best is None or abs(x) < best):
                best = abs(x)
                pos = (i, j)
                if best == 1:
                    return pos
    return pos


def _rdiv(x, y):
    """Nearest-integer quotient: remainder magnitude at most |y|/2.

    divmod's remainder has the sign of y, so shifting the quotient up by
    one always flips it to the smaller symmetric representative.
    """
    q, r = divmod(x, y)
    if 2 * abs(r) > abs(y):
        q += 1
    return q


def smith_normal_form(a, transform=True):
    """Smith normal form: returns (U, D, V) with U*a*V = D.

    D is diagonal with d1 | d2 | ..., all >= 0; U, V unimodular.  Pivoting
    always picks a least-magnitude entry and reduces with nearest-integer
    quotients, which controls coefficient growth; the pivot is forced to
    divide the whole trailing submatrix before recursing, so the
    divisibility chain holds by construction.
    """
    m = int_rows(a)
    nr = len(m)
    nc = len(m[0]) if nr else 0
    u = identity(nr) if transform else None
    v = identity(nc) if transform else None
    for s in range(min(nr, nc)):
        pos = _min_pivot(m, s)
        if pos is None:
            break
        while True:
            i, j = pos
            if i != s:
                m[s], m[i] = m[i], m[s]
                if transform:
                    u[s], u[i] = u[i], u[s]
            if j != s:
                for row in m:
                    row[s], row[j] = row[j], row[s]
                if transform:
                    for row in v:
                        row[s], row[j] = row[j], row[s]
            piv = m[s][s]
            cleared = True
            for i in range(s + 1, nr):
                x = m[i][s]
                if x:
                    q = _rdiv(x, piv)
                    if q:
                        m[i] = [t - q * p for t, p in zip(m[i], m[s])]
                        if transform:
                            u[i] = [t - q * p for t, p in zip(u[i], u[s])]
                    if m[i][s]:
                        cleared = False
            for j in range(s + 1, nc):
                x = m[s][j]
                if x:
                    q = _rdiv(x, piv)
                    if q:
                        for row in m:
                            row[j] -= q * row[s]
                        if transform:
                            for row in v:
                                row[j] -= q * row[s]
                    if m[s][j]:
                        cleared = False
            if not cleared:
                pos = _min_pivot(m, s)
                continue
            # pivot must divide the whole trailing block before recursing
            piv = m[s][s]
            bad = None
            for i in range(s + 1, nr):
                row = m[i]
                for j in range(s + 1, nc):
                    if row[j] % piv:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            m[s] = [t + p for t, p in zip(m[s], m[bad])]
            if transform:
                u[s] = [t + p for t, p in zip(u[s], u[bad])]
            pos = (s, s)
        if m[s][s] < 0:
            m[s] = [-t for t in m[s]]
            if transform:
                u[s] = [-t for t in u[s]]
    d = zeros(nr, nc)
    for i in range(min(nr, nc)):
        d[i][i] = abs(m[i][i])
    if not transform:
        return d
    return u, d, v


def elementary_divisors(a):
    """Nontrivial invariant factors (> 1) of the integer matrix a, ascending."""
    d = smith_normal_form(a, transform=False)
    divs = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    return sorted(x for x in divs if x > 1)


# ---------------------------------------------------------------------------
# modular arithmetic (numpy int64 where n (p - 1)^2 fits, else Python ints)

MODP = 67108859  # prime just below 2^26
INT64_MAX = 2**63 - 1


def check_int64_sum(row_max, weight, what):
    """ArithmeticError unless row_max * weight <= 2^63 - 1.

    A sum of int64 rows with entries at most row_max in absolute value,
    taken with integer coefficients of total absolute value at most weight,
    has every partial sum at most row_max * weight in absolute value; the
    int64 product is exact when that bound fits.
    """
    if row_max * weight > INT64_MAX:
        raise ArithmeticError(f"{what} could overflow int64")


def exact_product(a, b):
    """a @ b for integer arrays or row lists (a 1-d vector on either side
    too), exact: an int64 array when max |b| times the largest row sum of
    |a| fits int64 (the bound of check_int64_sum), taken directly from
    int64 inputs.  Else, if b is small, |a| is cut into base-2^s digits, s
    as large as keeps each (sign a * digit) @ b in int64, and those
    products are shifted together in Python ints; else the whole product
    is taken in Python ints.  Both give an object array."""
    a, b = int_array(a), int_array(b)
    amax, bmax, n = max_abs(a), max(1, max_abs(b)), a.shape[-1]
    # the row sums of |a| are exact in int64 while amax * n fits
    weight = np.abs(a if amax * n <= INT64_MAX else a.astype(object)).sum(axis=-1)
    weight = max(1, int(np.max(weight, initial=0)))
    if a.dtype == b.dtype == np.int64 and bmax * weight <= INT64_MAX:
        return a @ b
    s = (INT64_MAX // (bmax * n)).bit_length() - 1
    if s < 16:
        return a.astype(object) @ b.astype(object)
    sign, mag, b = np.sign(a), np.abs(a.astype(object)), b.astype(np.int64)
    return sum(((sign * (mag >> t & (1 << s) - 1)).astype(np.int64) @ b).astype(object) << t
               for t in range(0, amax.bit_length(), s))


def coordinates(rows, basis):
    """x with x @ basis = rows, or None if some row is not an integer
    combination of the basis rows: an integer array, int64 where it fits.

    basis is triangular (row Hermite form): the pivot of row i, its first
    nonzero column, lies right of the pivot of row i - 1.  On the pivot
    columns the system is triangular and is solved by forward
    substitution, where only a column with a pivot other than 1 or an entry
    above it needs a step: over a basis of unit pivots alone (the chords
    of S) x is a gather.  Either way x is checked by one exact product.
    """
    t = int_array(rows)
    if not len(basis):
        return None if t.any() else np.zeros((len(t), 0), dtype=np.int64)
    b = int_array(basis)
    t = t.reshape(len(t), b.shape[1])
    pivots = (b != 0).argmax(axis=1)
    tri, x = b[:, pivots], t[:, pivots]
    steps = np.flatnonzero((np.count_nonzero(tri, axis=0) > 1) | (tri.diagonal() != 1))
    if len(steps):
        x, tri = x.astype(object), tri.astype(object)
        for j in steps:  # an inexact quotient fails the product check
            x[:, j] = (x[:, j] - x[:, :j] @ tri[:j, j]) // tri[j, j]
        x = int_array(x)
    return x if (exact_product(x, b) == t).all() else None


def _as_modp(a, p=MODP):
    """a mod p as an int64 array."""
    return (int_array(a) % p).astype(np.int64, copy=False)


def rank_mod_p(a, p):
    """Rank of an integer matrix modulo a prime p (exact)."""
    if not isprime(p):
        raise ValueError(f"{p} is not prime")
    a = _as_modp(a, p)
    return ModPEchelon.from_rows(a, p).rank if a.size else 0


class ModPEchelon:
    """Incremental reduced row echelon mod p: the one elimination mod p.

    Rows are stored fully reduced (rref, rows in the order their pivots
    were found), so reducing an incoming vector is a single matrix product,
    a sum of rank products each below p^2.  The rows are int64 by default:
    each reduction then checks that max(rank, 1) * (p - 1)^2 fits int64,
    which also bounds the single products of `add`, and raises
    ArithmeticError otherwise: at MODP that allows rank up to 2048.
    `from_rows` echelons a whole matrix, in int64 when its largest possible
    rank times (p - 1)^2 fits and in Python ints (dtype object) otherwise.
    """

    def __init__(self, ncols, p=MODP, dtype=np.int64):
        self.p = p
        self.ncols = ncols
        self.dtype = dtype
        self.mat = np.zeros((0, ncols), dtype=dtype)
        self.piv = []

    @classmethod
    def from_rows(cls, rows, p):
        """The echelon of the rows (a 2-d array or row lists, entries in
        [0, p)), added in order."""
        rows = np.asarray(rows)
        nr, nc = rows.shape
        fits = max(1, min(nr, nc)) * (p - 1) ** 2 <= INT64_MAX
        ech = cls(nc, p, np.int64 if fits else object)
        for row in rows:
            ech.add(row)
        return ech

    @property
    def rank(self):
        return len(self.piv)

    def reduce(self, vec):
        """Reduce vec against the echelon; returns the residue."""
        if self.dtype is not object:
            check_int64_sum(self.p - 1, max(1, self.rank) * (self.p - 1), "mod-p reduction")
        v = np.asarray(vec, dtype=self.dtype) % self.p
        if self.piv:
            coeffs = v[self.piv]
            if coeffs.any():
                v = (v - coeffs @ self.mat) % self.p
        return v

    def add(self, vec):
        """Insert vec; returns True if it increased the rank."""
        v = self.reduce(vec)
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return False
        c = int(nz[0])
        inv = pow(int(v[c]), self.p - 2, self.p)
        v = (v * inv) % self.p
        if self.piv:
            col = self.mat[:, c].copy()
            if col.any():
                self.mat = (self.mat - np.outer(col, v)) % self.p
        self.mat = np.vstack([self.mat, v[None, :]])
        self.piv.append(c)
        return True


def inverse_mod_p(a_np, p=MODP):
    """Inverse of a square matrix mod p, or None if singular: the reduced
    echelon of [A | I] is [I | A^-1]."""
    n = a_np.shape[0]
    aug = np.concatenate([a_np % p, np.eye(n, dtype=np.int64)], axis=1)
    ech = ModPEchelon.from_rows(aug, p)
    if sorted(ech.piv) != list(range(n)):
        return None
    return ech.mat[np.argsort(ech.piv), n:]


# ---------------------------------------------------------------------------
# spans and kernels modulo m, one prime power at a time (Smith, then Howell)


def span_mod(a, m):
    """Invariants of the span of the rows of a in (Z/m)^k, a n x k: one
    cyclic order l^(e - v) for each prime power l^e of m and each pivot
    valuation v of the local Smith phase (`_local_smith`).  The span is
    Z^n / {x : x a = 0 mod m}, so their product is the index of
    `kernel_mod(a, m)` in Z^n."""
    a = _int_block(a, m)
    return [l ** (e - v) for l, e in factorint(m).items() for v in _local_smith(a, l, e, False)[1]]


def kernel_mod(a, m):
    """Row Hermite basis of K = {x in Z^n : x a = 0 mod m}, a n x k: the
    rows hnf gives, n of them since K contains m Z^n.

    K is solved one prime power q = l^e of m at a time: the Smith phase
    (`_local_smith`, which picks int64 or Python ints) gives rows that span
    K mod q, and `_local_hermite` puts them in Howell form.  The diagonal
    entry of K at column j is the product of the local ones; each row is
    glued from the local rows by the Chinese remainder theorem, then
    reduced above the pivots by the rows below it, in Python ints.
    """
    a = _int_block(a, m)
    n = len(a)
    local, diag = [], [1] * n
    for l, e in factorint(m).items():
        q, (f, _, pool) = l**e, _local_smith(a, l, e, True)
        vals, h = _local_hermite(pool, l, f)
        if f < e:  # every row pivoted mod l^f: K mod q is l^(e - f) times K mod l^f
            vals, h = [v + e - f for v in vals], h.astype(object) * l ** (e - f)
        diag = [d * l**v for d, v in zip(diag, vals)]
        local.append((l, e, vals, h, m // q * pow(m // q, -1, q)))  # 1 mod q, 0 mod m/q
    rows, support = [None] * n, [None] * n
    for j in range(n - 1, -1, -1):
        row = [0] * n
        for l, e, vals, h, unit in local:
            if vals[j] < e:
                c = diag[j] // l ** vals[j] * unit
                row[j + 1 :] = [x + c * y for x, y in zip(row[j + 1 :], h[j, j + 1 :].tolist())]
        row = [x % m for x in row]
        row[j] = diag[j]
        for k in range(j + 1, n):
            t = row[k] // diag[k]
            if t:
                for c in support[k]:
                    row[c] -= t * rows[k][c]
        rows[j], support[j] = row, [k for k in range(j, n) if row[k]]
    return rows


def _int_block(a, m):
    """The n x k matrix a as an int64 (or object) array, for a modulus m >= 1."""
    if m < 1:
        raise ValueError("modulus must be positive")
    n = len(a)
    return int_array(a).reshape(n, len(a[0]) if n else 0)


def _local_smith(a, l, e, track):
    """(f, vals, pool): `_smith_phase` of a mod l^f, on the route that
    suits q = l^e, chosen here alone.  In int64 with f = e when (q - 1)^2 + q
    fits int64.  Else in int64 mod l^f, the largest power that fits, if
    every row of a pivots there: the valuations of a over Z_l are then all
    below f, so they are exact mod q, and the kernel mod q is l^(e - f)
    times the kernel mod l^f.  Else in Python ints, with f = e."""
    f = e
    while f and (l**f - 1) ** 2 + l**f > INT64_MAX:
        f -= 1
    if f:
        vals, pool = _smith_phase(a, l, f, np.int64, track)
        if f == e or len(vals) == len(a):
            return f, vals, pool
    return e, *_smith_phase(a, l, e, object, track)


def _smith_phase(a, l, e, dtype, track):
    """(vals, pool): the pivot valuations of a mod q = l^e and, if track,
    rows that span {x : x a = 0 mod q} with q Z^n.

    Each step pivots on an entry of least valuation v and clears its
    column by row operations; the column operations that would clear its
    row change nothing else, so the row and the column are dropped.  The
    span of the rows mod q is thus the sum of the Z/l^(e - v).  Only the
    row transform p is tracked, as column operations keep the kernel: the
    kernel is spanned by l^(e - v) p_t over the pivots t, the rows of p
    never pivoted and q Z^n.
    """
    q = l**e
    b = (a % q if q <= INT64_MAX else a.astype(object) % q).astype(dtype, copy=False)
    p = np.eye(len(b), dtype=dtype)
    vals, pool = [], []
    while (found := _least_valuation(b, l, e))[1] is not None:
        v, mask = found
        i, j = np.unravel_index(mask.argmax(), mask.shape)
        piv = b[i]
        f = np.delete(b[:, j], i) // l**v * pow(int(piv[j]) // l**v, -1, q) % q
        b = (np.delete(np.delete(b, i, 0), j, 1) - np.outer(f, np.delete(piv, j))) % q
        vals.append(v)
        if track:
            if v:
                pool.append(p[i] * l ** (e - v) % q)
            p = (np.delete(p, i, 0) - np.outer(f, p[i])) % q
    return vals, np.vstack([*pool, p]) if track else None


def _local_hermite(pool, l, e):
    """(vals, h): the Howell form mod q = l^e of the rows of pool with
    q Z^n.  Row j of h is zero before column j and has l^vals[j] there (the
    zero row q e_j if vals[j] = e).  The rows are put in Hermite form
    column by column; the Howell step puts l^(e - v) times each pivot row
    back."""
    q, n = l**e, pool.shape[1]
    vals, h = [e] * n, np.zeros((n, n), dtype=pool.dtype)
    for j in range(n):
        col = pool[:, j]
        v, mask = _least_valuation(col, l, e)
        if mask is not None:
            i = mask.argmax()
            r = pool[i] * pow(int(col[i]) // l**v, -1, q) % q
            pool = (pool - np.outer(col // l**v, r)) % q  # clears column j and row i
            pool[i] = r * l ** (e - v) % q
            vals[j], h[j] = v, r
    return vals, h


def _least_valuation(a, l, e):
    """(v, mask): the least l-valuation v < e of an entry of a (all in
    [0, l^e)) and where it is attained, or (e, None) when a is zero."""
    for v in range(e):
        mask = a % l ** (v + 1) != 0
        if mask.any():
            return v, mask
    return e, None


# ---------------------------------------------------------------------------
# characteristic / minimal polynomials (multimodular)


def _charpoly_mod_p(a, p):
    """Characteristic polynomial mod p via Hessenberg reduction, in Python
    ints, of an integer array or row lists a.

    Returns coefficient list [c0, ..., cn] with cn = 1 (monic), of
    det(x*I - A) mod p.
    """
    h = [[x % p for x in row] for row in int_rows(a)]
    n = len(h)
    for m in range(1, n):  # zero out column m-1 below row m
        piv = next((i for i in range(m, n) if h[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            h[piv], h[m] = h[m], h[piv]
            for row in h:
                row[piv], row[m] = row[m], row[piv]
        inv = pow(h[m][m - 1], p - 2, p)
        for i in range(m + 1, n):
            x = h[i][m - 1]
            if x:
                t = x * inv % p
                hm = h[m]
                hi = h[i]
                for j in range(m - 1, n):
                    hi[j] = (hi[j] - t * hm[j]) % p
                for rrow in h:
                    rrow[m] = (rrow[m] + t * rrow[i]) % p
    # charpoly of Hessenberg matrix by recurrence
    polys = [[1]]  # p_0 = 1
    for m in range(1, n + 1):
        # p_m(x) = (x - h[m-1][m-1]) p_{m-1}(x) - sum over lower terms
        prev = polys[m - 1]
        cur = [0] + prev
        d = h[m - 1][m - 1]
        cur = [(c - d * e) % p for c, e in zip(cur, prev + [0])]
        t = 1
        for i in range(m - 1, 0, -1):
            t = t * h[i][i - 1] % p
            if h[i - 1][m - 1]:
                coef = t * h[i - 1][m - 1] % p
                pi = polys[i - 1]
                cur = [
                    (c - coef * (pi[k] if k < len(pi) else 0)) % p
                    for k, c in enumerate(cur)
                ]
        polys.append(cur)
    return polys[n]


def _crt_pair(r1, m1, r2, m2):
    """(r, m1 m2) with r = r1 mod m1 and r = r2 mod m2, for coprime m1, m2
    (ValueError otherwise); r1 and r2 may be arrays."""
    m = m1 * m2
    return (r1 + (r2 - r1) * pow(m1, -1, m2) % m2 * m1) % m, m


def charpoly(a):
    """Characteristic polynomial of an integer matrix, coefficients exact.

    Returns [c0, c1, ..., cn] (cn = 1) for det(x*I - A): its residues mod
    one prime p above twice a Hadamard-style bound on the coefficients,
    lifted to the symmetric range.
    """
    n = len(a)
    if n == 0:
        return [1]
    ma = max(1, max_abs(a))
    # |c_{n-k}| <= binom(n,k) k^{k/2} ma^k <= 2^n (sqrt(n) ma)^n
    p = nextprime(2 ** (n + 2) * (isqrt(n) + 1) ** n * ma**n)
    return [c - p if c > p // 2 else c for c in _charpoly_mod_p(a, p)]


def poly_eval_matrix(coeffs, a):
    """Evaluate a polynomial (coeff list, low degree first) at a square
    integer matrix, as an array: Horner steps out <- out a + c I, each the
    one exact product [out | I] [a; c I]."""
    eye = np.eye(len(a), dtype=object)  # c * eye is exact for any int c
    out = coeffs[-1] * eye
    for c in reversed(coeffs[:-1]):
        out = exact_product(np.hstack([out, eye]), np.vstack([a, c * eye]))
    return out


def minpoly(a):
    """Minimal polynomial of an integer matrix (monic, exact).

    A candidate is computed mod p as the lcm of the minimal polynomials of
    Krylov sequences and then verified exactly by evaluating at the
    matrix.  If the candidate fails that check, the
    characteristic polynomial is returned instead: it annihilates the
    matrix but need not be minimal.  Nothing in the package calls it: the
    tests' reference Manin-Drinfeld route does, and the traced benchmark
    (bench/spans.py) looks it up by name, so it goes at the next change to
    the benchmark.
    """
    n = len(a)
    if n == 0:
        return [1]
    import random

    p = MODP
    a_np = _as_modp(a, p)
    rng = random.Random(12345)
    mp = [1]
    for _ in range(4):
        v = np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64)
        loc = _local_minpoly_mod_p(a_np, v, p)
        mp = lcm_mod_p(mp, loc, p)
        if len(mp) == n + 1:
            break
    half = p // 2
    cand = [c - p if c > half else c for c in mp]
    if not poly_eval_matrix(cand, a).any():
        return cand
    return charpoly(a)


def _local_minpoly_mod_p(a_np, v, p):
    """Minimal polynomial of v under a_np over F_p (monic coefficient list)."""
    n = a_np.shape[0]
    ech = ModPEchelon(n, p)
    seq = [np.asarray(v, dtype=np.int64) % p]
    cur = seq[0]
    while ech.add(cur):
        cur = a_np.dot(cur) % p
        seq.append(cur)
    if len(seq) == 1:  # v == 0
        return [1]
    mat = np.stack(seq[:-1], axis=0)
    sol = _solve_mod_p(mat, seq[-1], p)
    return [(-int(s)) % p for s in sol] + [1]


def _solve_mod_p(mat, target, p):
    """Solve x @ mat = target mod p (mat k x n, full row rank): the
    reduced echelon of [mat^T | target] has x[c] in its row with pivot c."""
    k = mat.shape[0]
    aug = np.concatenate([mat.T % p, (target % p).reshape(-1, 1)], axis=1)
    ech = ModPEchelon.from_rows(aug, p)
    x = np.zeros(k, dtype=ech.dtype)
    for row, c in zip(ech.mat, ech.piv):
        if c < k:
            x[c] = row[k]
    return x


# ---------------------------------------------------------------------------
# exact rational solving (Dixon p-adic lifting)


def rational_reconstruct(a, m):
    """Reconstruct n/d = a mod m with |n|, d <= sqrt(m/2); None if impossible."""
    a %= m
    bound = isqrt(m // 2)
    r0, r1 = m, a
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or r1 > bound:
        return None
    if t1 < 0:
        r1, t1 = -r1, -t1
    if t1 == 0 or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def solve_dixon(a, b, p=MODP):
    """Solve A x = b exactly for square nonsingular integer A (x rational).

    p-adic lifting with adaptive rational reconstruction; the final candidate
    is verified exactly, so the result is unconditionally correct.  If A is
    singular mod p, its rank over Q (`hnf`) decides: ZeroDivisionError if A is
    singular, else the next prime is tried.
    """
    a = int_array(a)
    n = len(a)
    if n == 0:
        return []
    a_np = _as_modp(a, p)
    ainv = inverse_mod_p(a_np, p)
    if ainv is None and len(hnf(a)) < n:
        raise ZeroDivisionError("singular matrix")
    while ainv is None:
        p = nextprime(p)
        a_np = _as_modp(a, p)
        ainv = inverse_mod_p(a_np, p)
    b = np.array(b, dtype=object)
    r, x_mod, pk = b, 0, 1
    for k in count(1):
        # A x_mod = b - pk r throughout, and A y = r mod p
        y = ainv.dot(_as_modp(r, p)) % p
        x_mod = x_mod + pk * y.astype(object)
        r = (r - exact_product(a, y)) // p
        pk *= p
        if k % 8 == 0 or not r.any():
            cand = [rational_reconstruct(int(t), pk) for t in x_mod]
            if None not in cand:
                (xs,), den = integer_rows([cand])
                if (exact_product(a, xs) == den * b).all():
                    return cand
            if k > 4 * n * 64 + 64:
                raise ArithmeticError("dixon lifting failed to converge")


def invert_rational(a):
    """Exact inverse of a nonsingular integer/rational matrix as Fractions.

    One Gauss-Jordan pass on [a | I] with partial pivoting by fraction
    simplicity (smallest combined numerator/denominator size first).  This
    is the reference rational route that the tests compare the integer
    routes against; nothing in the package calls it.  The traced benchmark
    (bench/spans.py) looks it up by name, so it goes at the next change to
    the benchmark.
    """
    rows = a.tolist() if isinstance(a, np.ndarray) else a  # Python ints, not int64
    n = len(rows)
    m = [
        [Fraction(x) for x in row]
        + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for c in range(n):
        piv = None
        best = None
        for i in range(c, n):
            x = m[i][c]
            if x:
                size = x.numerator.bit_length() + x.denominator.bit_length()
                if best is None or size < best:
                    best, piv = size, i
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        m[c], m[piv] = m[piv], m[c]
        pv = m[c][c]
        m[c] = [x / pv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                row_c = m[c]
                m[i] = [x - f * y for x, y in zip(m[i], row_c)]
    return [row[n:] for row in m]
