"""Exact dense linear algebra over Z and Q.

Matrices are lists of row lists of Python ints (or Fractions where stated);
everything here is exact, no floating point anywhere.  numpy is used only
for word-sized modular arithmetic inside multimodular and p-adic routines,
with results reconstructed and/or verified exactly.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm

import numpy as np
from sympy import isprime, nextprime


# ---------------------------------------------------------------------------
# basic dense helpers


def zeros(r, c):
    return [[0] * c for _ in range(r)]


def identity(n):
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = 1
    return m


def copy_mat(a):
    return [row[:] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def mat_mul(a, b):
    return [vec_mat(row, b) for row in a]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def vec_mat(v, a):
    n = len(a[0]) if a else 0
    out = [0] * n
    for x, row in zip(v, a):
        if x:
            for j, y in enumerate(row):
                if y:
                    out[j] += x * y
    return out


def mat_sub(a, b):
    return [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)]


def mat_scale(a, c):
    return [[c * x for x in row] for row in a]


def is_zero_mat(a):
    return all(all(x == 0 for x in row) for row in a)


def max_abs(a):
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
    n = len(a)
    if n == 0:
        return 1
    m = copy_mat(a)
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


def rank_rational(a):
    """Exact rank over Q via fraction-free elimination with row-gcd control."""
    if not a or not a[0]:
        return 0
    rows = [row[:] for row in a if any(row)]
    ncols = len(a[0])
    rank = 0
    col = 0
    while rows and col < ncols:
        piv = None
        best = None
        for i, row in enumerate(rows):
            x = row[col]
            if x and (best is None or abs(x) < best):
                best = abs(x)
                piv = i
                if best == 1:
                    break
        if piv is None:
            col += 1
            continue
        prow = rows.pop(piv)
        pv = prow[col]
        nxt = []
        for row in rows:
            x = row[col]
            if x:
                g = gcd(pv, x)
                ca, cb = pv // g, x // g
                row = [ca * u - cb * v for u, v in zip(row, prow)]
                g = vec_gcd(row)
                if g > 1:
                    row = [u // g for u in row]
            if any(row):
                nxt.append(row)
        rows = nxt
        rank += 1
        col += 1
    return rank


# ---------------------------------------------------------------------------
# Hermite normal form


def hnf(a, transform=False):
    """Row Hermite normal form.

    Returns H (and U with U*a == H when transform=True); H has pivots > 0,
    entries above each pivot reduced into [0, pivot).  Zero rows are dropped
    from H but kept in U's row count (U stays square unimodular).

    Entry growth is controlled by re-reducing the echelon whenever entries
    pass an adaptive bit threshold (Kannan-Bachem style), so nasty inputs
    stay polynomial without slowing down the common sparse case.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    u = identity(nrows) if transform else None
    pivots = {}  # col -> index into echelon list
    echelon = []  # list of [row, urow, pivcol]
    kernel_rows = []
    in_bits = max((abs(x) for row in a for x in row), default=1).bit_length()
    threshold = 1 << max(256, 8 * in_bits + 64)

    def renormalize():
        order = sorted(pivots)
        ech = [echelon[pivots[j]] for j in order]
        for i in range(len(ech) - 2, -1, -1):
            rrow, rurow, _ = ech[i]
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
        if reduce_in(row[:], u[i][:] if transform else None):
            renormalize()

    renormalize()
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
    """
    at = transpose(a)
    if not at:
        return []
    n = len(at)
    m = len(at[0])
    aug = [row + [1 if k == i else 0 for k in range(n)] for i, row in enumerate(at)]
    h = hnf(aug)
    out = []
    for row in h:
        if any(row[:m]):
            continue
        out.append(row[m:])
    return out


def solve_integer(a, b):
    """One integer solution x of x @ a = b (row convention), or None.

    a is m x n, b length n; solves over Z exactly via HNF transform.
    Nothing in the package calls it; the tests do, and the traced benchmark
    (bench/spans.py) looks it up by name.
    """
    h, u = hnf(a, transform=True)
    x = [0] * len(a)
    r = list(b)
    for row, urow in zip(h, u):
        j = next((k for k, t in enumerate(row) if t), None)
        if j is None:
            continue
        q, rem = divmod(r[j], row[j])
        if rem != 0:
            return None
        if q:
            r = [t - q * s for t, s in zip(r, row)]
            x = [t + q * s for t, s in zip(x, urow)]
    if any(r):
        return None
    return x


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
    m = copy_mat(a)
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
# word-sized modular arithmetic (numpy int64; p^2 * n must stay below 2^63)

MODP = 67108859  # prime just below 2^26


def _as_modp(a, p=MODP):
    m = np.array([[x % p for x in row] for row in a], dtype=np.int64)
    return m


def echelon_mod_p(a_np, p=MODP):
    """In-place-free row echelon mod p.  Returns (rref, pivot_cols)."""
    m = a_np % p
    nr, nc = m.shape
    piv_cols = []
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + nz[0]
        if i != r:
            m[[r, i]] = m[[i, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = (m[r] * inv) % p
        col = m[:, c].copy()
        col[r] = 0
        m = (m - np.outer(col, m[r])) % p
        piv_cols.append(c)
        r += 1
    return m[:r], piv_cols


def rank_mod_p(a, p):
    """Rank of an integer matrix modulo a prime p (exact)."""
    if not isprime(p):
        raise ValueError(f"{p} is not prime")
    if not a or not a[0]:
        return 0
    if p < 2**26:
        _, piv = echelon_mod_p(_as_modp(a, p), p)
        return len(piv)
    # big p: plain python elimination
    m = [[x % p for x in row] for row in a]
    rank = 0
    nc = len(m[0])
    rows = [r for r in m if any(r)]
    for c in range(nc):
        piv = next((i for i, r in enumerate(rows) if r[c]), None)
        if piv is None:
            continue
        prow = rows.pop(piv)
        inv = pow(prow[c], p - 2, p)
        prow = [x * inv % p for x in prow]
        rows = [
            [(x - r[c] * y) % p for x, y in zip(r, prow)] if r[c] else r
            for r in rows
        ]
        rows = [r for r in rows if any(r)]
        rank += 1
    return rank


class ModPEchelon:
    """Incremental reduced row echelon mod p for streaming rank computations.

    Rows are stored fully reduced (rref), so reducing an incoming vector is
    a single matrix product; safe for p < 2^26 and dimension < 2^10.
    """

    def __init__(self, ncols, p=MODP):
        self.p = p
        self.ncols = ncols
        self.mat = np.zeros((0, ncols), dtype=np.int64)
        self.piv = []

    @property
    def rank(self):
        return len(self.piv)

    def reduce(self, vec):
        """Reduce vec (np.int64 array) against the echelon; returns residue."""
        v = np.asarray(vec, dtype=np.int64) % self.p
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
    """Inverse of a square matrix mod p, or None if singular."""
    n = a_np.shape[0]
    m = np.concatenate([a_np % p, np.eye(n, dtype=np.int64)], axis=1)
    r, piv = echelon_mod_p(m, p)
    if piv != list(range(n)):
        return None
    return r[:, n:]


# ---------------------------------------------------------------------------
# characteristic / minimal polynomials (multimodular)


def _charpoly_mod_p(a_np, p):
    """Characteristic polynomial mod p via Hessenberg reduction.

    Returns coefficient list [c0, ..., cn] with cn = 1 (monic), of
    det(x*I - A) mod p.
    """
    n = a_np.shape[0]
    h = (a_np % p).astype(object)  # python ints avoid overflow in p~2^26 ops
    h = [[int(x) for x in row] for row in h]
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
    g, s, _ = xgcd(m1, m2)
    assert g == 1
    m = m1 * m2
    r = (r1 + (r2 - r1) * s % m2 * m1) % m
    return r, m


def charpoly(a):
    """Characteristic polynomial of an integer matrix, coefficients exact.

    Returns [c0, c1, ..., cn] (cn = 1) for det(x*I - A), computed
    multimodularly with a Hadamard-style coefficient bound.
    """
    n = len(a)
    if n == 0:
        return [1]
    ma = max(1, max_abs(a))
    # |c_{n-k}| <= binom(n,k) k^{k/2} ma^k <= 2^n (sqrt(n) ma)^n
    bound = 2 ** (n + 1) * (isqrt(n) + 1) ** n * ma**n
    residues = None
    modulus = 1
    p = MODP
    while modulus <= 2 * bound:
        a_np = _as_modp(a, p)
        cp = _charpoly_mod_p(a_np, p)
        if residues is None:
            residues, modulus = cp, p
        else:
            residues = [_crt_pair(r1, modulus, r2, p)[0] for r1, r2 in zip(residues, cp)]
            modulus *= p
        p = int(nextprime(p))
    half = modulus // 2
    return [c - modulus if c > half else c for c in residues]


def poly_eval_matrix(coeffs, a):
    """Evaluate a polynomial (coeff list, low degree first) at a matrix."""
    n = len(a)
    out = mat_scale(identity(n), coeffs[-1])
    for c in reversed(coeffs[:-1]):
        out = mat_mul(out, a)
        for i in range(n):
            out[i][i] += c
    return out


def minpoly(a):
    """Minimal polynomial of an integer matrix (monic, exact).

    A candidate is computed mod p from Krylov sequences and then verified
    exactly by evaluating at the matrix; falls back to charpoly on failure.
    Nothing in the package calls it: the tests' reference Manin-Drinfeld
    route does, and the traced benchmark (bench/spans.py) looks it up by
    name, so it and its mod-p helpers go at the next change to the
    benchmark.
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
        mp = _poly_lcm_mod_p(mp, loc, p)
        if len(mp) == n + 1:
            break
    half = p // 2
    cand = [c - p if c > half else c for c in mp]
    if is_zero_mat(poly_eval_matrix(cand, a)):
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
    """Solve x @ mat = target mod p (mat k x n, full row rank)."""
    k = mat.shape[0]
    if k == 0:
        return np.zeros(0, dtype=np.int64)
    aug = np.concatenate([mat.T % p, (target % p).reshape(-1, 1)], axis=1)
    r, piv = echelon_mod_p(aug, p)
    x = np.zeros(k, dtype=np.int64)
    for row, c in zip(r, piv):
        if c < k:
            x[c] = row[k]
    return x


def _poly_lcm_mod_p(f, g, p):
    q = _poly_div_mod_p(g, _poly_gcd_mod_p(f, g, p), p)
    return _poly_mul_mod_p(f, q, p)


def _poly_gcd_mod_p(f, g, p):
    f, g = f[:], g[:]
    while any(g):
        f, g = g, _poly_mod_mod_p(f, g, p)
    lead = next(c for c in reversed(f) if c)
    inv = pow(lead, p - 2, p)
    f = [c * inv % p for c in f]
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_mod_mod_p(f, g, p):
    f = [c % p for c in f]
    g = [c % p for c in g]
    while g and g[-1] == 0:
        g.pop()
    dg = len(g) - 1
    inv = pow(g[-1], p - 2, p)
    while len(f) - 1 >= dg and any(f):
        while f and f[-1] == 0:
            f.pop()
        if len(f) - 1 < dg:
            break
        c = f[-1] * inv % p
        shift = len(f) - 1 - dg
        for i, gc in enumerate(g):
            f[shift + i] = (f[shift + i] - c * gc) % p
    while f and f[-1] == 0:
        f.pop()
    return f or [0]


def _poly_mul_mod_p(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] = (out[i + j] + a * b) % p
    return out


def _poly_div_mod_p(f, g, p):
    f = [c % p for c in f]
    g = [c % p for c in g]
    while g and g[-1] == 0:
        g.pop()
    dg = len(g) - 1
    inv = pow(g[-1], p - 2, p)
    q = [0] * max(1, len(f) - dg)
    while len(f) - 1 >= dg and any(f):
        while f and f[-1] == 0:
            f.pop()
        if len(f) - 1 < dg:
            break
        c = f[-1] * inv % p
        shift = len(f) - 1 - dg
        q[shift] = c
        for i, gc in enumerate(g):
            f[shift + i] = (f[shift + i] - c * gc) % p
    return q


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
    is verified exactly, so the result is unconditionally correct.
    """
    n = len(a)
    if n == 0:
        return []
    a_np = _as_modp(a, p)
    ainv = inverse_mod_p(a_np, p)
    while ainv is None:
        p = int(nextprime(p))
        a_np = _as_modp(a, p)
        ainv = inverse_mod_p(a_np, p)
    x_digits = []
    r = list(b)
    pk = 1
    k = 0
    while True:
        rp = np.array([t % p for t in r], dtype=np.int64)
        y = ainv.dot(rp) % p
        y_list = [int(t) for t in y]
        x_digits.append(y_list)
        ay = mat_vec(a, y_list)
        r = [(ri - ayi) // p for ri, ayi in zip(r, ay)]
        pk *= p
        k += 1
        if k % 8 == 0 or not any(r):
            # try reconstruction
            x_mod = [0] * n
            mult = 1
            for dig in x_digits:
                for i in range(n):
                    x_mod[i] += mult * dig[i]
                mult *= p
            cand = [rational_reconstruct(t, pk) for t in x_mod]
            if all(c is not None for c in cand):
                (xs,), den = integer_rows([cand])
                if mat_vec(a, xs) == [den * t for t in b]:
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
    n = len(a)
    m = [
        [Fraction(x) for x in row]
        + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
        for i, row in enumerate(a)
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
