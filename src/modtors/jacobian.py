"""Rank and torsion of modular Jacobians through modular symbols.

Contents: Sturm-type generation bounds, rank-zero certification via the
winding element, point counts #J(F_p) from the Eichler-Shimura operator,
local torsion multiples, the Hecke kernel bound M_H on rational torsion,
Manin-Drinfeld projections of cuspidal divisors, rational cuspidal class
groups, and the three-stage equality pipeline comparing them.  Each
group between Z^(2g) and M_H is a span of integer rows mod m or den:
M_H = (1/m) K is span(K mod m), Cl^cc and Cl^cc_Q are the spans of their
classes phi / den, and a group of classes given by a divisor kernel mod
den has order [Z^(c-1) : kernel], the order of a span too.  `span_mod`
reads every invariant and order off the pivots of one local Smith
elimination; `kernel_mod` gives rows only where rows are read: the
kernel K of M_H, the divisors of the cut, the dual of Cl^cc_Q and, in
the class group's cross-check, the principal divisors.  The pipeline,
computed once per level and prime list, reads orders: the sandwich and
stage (iii) are an index, stage (ii) compares orders of p-torsion (see
`_pipeline`).

Mod-p linear algebra is used for speed, but every reported verdict is
backed by an exact integer certificate: rank-zero claims bound the
cuspidal dimension of the winding span by the exact rank of its boundary
image, positive-rank claims exhibit an exact functional that kills every
T_n e up to the Sturm bound while not vanishing on the cuspidal plus part.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count
from math import gcd, isqrt, prod

import numpy as np

from .abgroup import FinAbGroup
from .arith import factorint, isprime, nextprime, orbits, primitive_root
from .intlinalg import (
    INT64_MAX,
    MODP,
    ModPEchelon,
    _as_modp,
    _charpoly_mod_p,
    _crt_pair,
    check_int64_sum,
    det_bareiss,
    elementary_divisors,
    exact_product,
    hnf,
    int_array,
    integer_rows,
    inverse_mod_p,
    kernel_basis,
    kernel_mod,
    max_abs,
    rational_reconstruct,
    solve_dixon,
    span_mod,
)
from .lattice import Lattice
from .modsym import diamond_operator, hecke_operator
from .modsym.presentation import forest_cycles


def sturm_bound(spec):
    """Generation bound for the weight-2 Hecke algebra: ceil(index / 6)."""
    return -(-spec.sl2_index() // 6)


@dataclass
class RankCertificate:
    """A rank verdict with how it was decided: `certificate` holds
    `hecke_range_used`, the last n swept, for rank zero, and
    `functional_support`, the number of nonzero coordinates of the
    functional, for positive rank."""

    spec: object
    verdict: str  # "rank_zero" | "positive_rank"
    sturm_bound: int
    span_dim: int
    plus_dim: int
    certificate: dict = field(default_factory=dict)

    @property
    def is_rank_zero(self):
        return self.verdict == "rank_zero"

    def to_json(self):
        return {
            "group": self.spec.label(),
            "verdict": self.verdict,
            "sturm_bound": self.sturm_bound,
            "span_dim": self.span_dim,
            "plus_dim": self.plus_dim,
            **self.certificate,
        }


# Cap on the lanes (b, n) of one Euclid walk in winding_sweep: it bounds the
# walk's arrays and the block of S_n counts it fills.
_LANES = 1 << 12


def winding_sweep(space, bound):
    """T_n {0, oo} for n = 1..bound, as (n, terms) pairs.

    `terms` is an integer array of rows (symbol index, count) with
    T_n {0, oo} = sum of count * symbol, read off the upper-triangular
    coset representatives of T_n:

        T_n {0, oo} = sum over d | n with gcd(n/d, N) = 1 of <n/d> S_d,
        S_d = sum over 0 <= b < d of {b/d, oo},

    where {b/d, oo} = -{oo, b/d} is the continued-fraction path of b/d
    and <a> scales symbol pairs (c, d) to (a c, a d).  The n are swept in
    blocks of consecutive n, and one `path_symbols` walk over the lanes
    (b, n) of a block gives S_n for the whole block.  A block has one n at
    least; beyond that, at most _LANES lanes and at most as many as all
    blocks before it, so a caller that stops early has had at most twice
    the lanes it used walked.  S_n is copied out of its block for later n
    only if 2n <= bound.  The divisors d come from one sieve.
    """
    nlev = space.level
    nsym = space.group.nsym
    symbols = np.array(space.group.symbols, dtype=np.int64).reshape(-1, 2)
    divs = _coprime_divisors(bound, nlev)
    scaled = {}  # unit a mod N -> index of <a> applied to each symbol
    # row d: S_d as counts over the symbols, for 2d <= bound.  np.zeros
    # maps a large array's pages lazily, so rows an early stop never writes
    # cost no memory.
    sums = np.zeros((bound // 2 + 1, nsym), dtype=np.int64)
    first, walked = 1, 0
    while first <= bound:
        last, lanes = first + 1, first  # the block is first..last - 1
        while last <= bound and lanes + last <= min(_LANES, walked):
            lanes += last
            last += 1
        walked += lanes
        ns = np.arange(first, last)
        dens = np.repeat(ns, ns)
        residues = np.arange(lanes) - np.repeat(np.cumsum(ns) - ns, ns)
        sym, lane = space.path_symbols(residues, dens)
        # row n - first of the block: S_n as counts over the symbols
        block = -np.bincount((dens[lane] - first) * nsym + sym,
                             minlength=len(ns) * nsym).reshape(len(ns), nsym)
        for n, s_n in zip(range(first, last), block):
            if 2 * n <= bound:
                sums[n] = s_n
            total = np.zeros(nsym, dtype=np.int64)
            for d in divs[n]:
                a = n // d % nlev
                s_d = s_n if d == n else sums[d]
                if a not in scaled:
                    scaled[a] = space.symbol_indices(a * symbols[:, 0], a * symbols[:, 1])
                total[scaled[a]] += s_d  # <a> permutes the symbols
            idx = np.flatnonzero(total)
            yield n, np.stack((idx, total[idx]), axis=1)
        first = last


def _coprime_divisors(bound, nlev):
    """divs[n], for 1 <= n <= bound: the d | n with gcd(n/d, nlev) = 1,
    ascending, by a sieve over d."""
    coprime = [gcd(a, nlev) == 1 for a in range(bound + 1)]
    divs = [[] for _ in range(bound + 1)]
    for d in range(1, bound + 1):
        for a, n in enumerate(range(d, bound + 1, d), 1):
            if coprime[a]:
                divs[n].append(d)
    return divs


def _proj_columns(proj):
    """The columns of `proj` in CSC form (colptr, rows, data), all int64:
    column j has the entries data[k] at the rows rows[k] for colptr[j] <=
    k < colptr[j + 1].  ArithmeticError unless colptr increases strictly:
    every column holds its own free symbol's 1, and np.add.reduceat would
    read an empty column as the next entry, not as 0."""
    rows, cols = np.nonzero(proj)
    by_col = np.argsort(cols, kind="stable")  # faster than np.nonzero(proj.T)
    rows, cols = rows[by_col], cols[by_col]
    colptr = np.zeros(proj.shape[1] + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=proj.shape[1]), out=colptr[1:])
    if not (np.diff(colptr) > 0).all():
        raise ArithmeticError("proj has a zero column")
    return colptr, rows.astype(np.int64, copy=False), proj[rows, cols]


def _winding_vector(columns, nsym, proj_max, terms):
    """sum of count * proj[symbol] over the terms of a T_n {0, oo}, as an
    exact int64 vector: the symbol counts, one dense vector of length nsym,
    dotted with each column of `proj` (columns in CSC form, see
    _proj_columns; proj_max max |proj|).  ArithmeticError unless proj_max *
    sum |count| fits int64, which bounds every column sum (see
    check_int64_sum)."""
    colptr, rows, data = columns
    idx, cnt = terms.T
    check_int64_sum(proj_max, int(np.abs(cnt).sum()), "winding vector")
    counts = np.zeros(nsym, dtype=np.int64)
    np.add.at(counts, idx, cnt)
    return np.add.reduceat(data * counts[rows], colptr[:-1])


def winding_span_mod_p(space, bound, p):
    """Sweep T_n {0, oo} for n up to bound, tracking its span and the
    boundary image of the span mod p; stop once the cuspidal part of the
    span has dimension genus.

    Returns (swept, kept, echelon, s_dim, stopped_at): the terms of every
    swept T_n {0, oo} (index n - 1), the exact vectors of the T_n {0, oo}
    that increased the span, the ModPEchelon of those vectors mod p, the
    dimension of its cuspidal part, and the last n swept.
    """
    g = space.genus()
    proj_max = max_abs(space.proj)
    columns = _proj_columns(space.proj)
    bnd_np = np.array(space.boundary, dtype=np.int64) % p
    full_ech = ModPEchelon(space.dim, p)
    bnd_ech = ModPEchelon(space.ncusps, p)
    swept = []
    kept = []
    s_dim = 0
    stopped_at = bound
    for n, terms in winding_sweep(space, bound):
        swept.append(terms)
        x = _winding_vector(columns, len(space.proj), proj_max, terms)
        v = x % p
        if full_ech.add(v):
            kept.append(x.tolist())
            bnd_ech.add(v @ bnd_np % p)
            s_dim = full_ech.rank - bnd_ech.rank
            if s_dim >= g:
                stopped_at = n
                break
    return swept, kept, full_ech, s_dim, stopped_at


def is_rank_zero(space):
    """Decide whether the Jacobian of the space's curve has rank zero over
    Q, via the winding span.

    Sweeps T_n {0, oo} for n up to the Sturm bound, tracking the span and
    its boundary image mod p, from p = MODP on; the verdict is then
    certified exactly in integer arithmetic (see module docstring).  A
    prime whose certificate fails is replaced by the next one, three
    primes at most.
    """
    bound = sturm_bound(space.spec)
    g = space.genus()
    if g == 0:
        return RankCertificate(
            space.spec, "rank_zero", bound, 0, 0, {"hecke_range_used": 0}
        )

    p = MODP
    for _ in range(3):
        cert = _try_rank_certificate(space, bound, p)
        if cert is not None:
            return cert
        p = nextprime(p)
    raise ArithmeticError(f"rank certification failed for {space.spec.label()}")


def _try_rank_certificate(space, bound, p):
    g = space.genus()
    swept, kept_vecs, echelon, s_dim, stopped_at = winding_span_mod_p(space, bound, p)
    if s_dim >= g:
        if not _certify_rank_zero(space, kept_vecs, g):
            return None
        return RankCertificate(space.spec, "rank_zero", bound, g, g,
                               {"hecke_range_used": stopped_at})
    cert = _certify_positive(space, kept_vecs, echelon, swept)
    if cert is None:
        return None
    return RankCertificate(space.spec, "positive_rank", bound, s_dim, g, cert)


def _certify_rank_zero(space, kept_vecs, g):
    """Exact certificate that span V cap ker d has dimension at least g,
    V the k kept winding vectors and d the boundary map.

    Each kept vector raised the rank mod p, so V is independent mod p and
    hence over Q: a rational dependence, scaled to coprime integers, would
    stay a nonzero dependence mod p.  So x |-> x V is injective on Q^k, and
    it maps the kernel of x |-> x V d, of dimension k - rank_Q(V d), onto
    span V cap ker d.  V d is a small k x c integer matrix.
    """
    dv = [space.boundary_image(v) for v in kept_vecs]
    return len(kept_vecs) - len(hnf(dv)) >= g


def _plus_spanning_rows(space):
    """W = B_S (I + star), B_S the cycle basis of S: 2g rows in S+ that span
    S+ over Q (see _certify_positive).  The entries of star are entries of
    `proj`, all in {-1, 0, 1}, so adding I to it is exact."""
    return exact_product(space.cuspidal, space.star_matrix() + np.eye(space.dim, dtype=np.int64))


def _certify_positive(space, kept_vecs, echelon, swept):
    """Exact functional phi with phi(T_n e) = 0 for all n, phi|S+ != 0,
    from the sweep's ModPEchelon of the kept vectors mod p (their unique
    reduced echelon form, rows in the order their pivots were found).

    S+ is met through the 2g rows W = B_S (I + star), not through a basis
    of S+.  Star is an involution keeping S invariant, so W lies in S+,
    and x (I + star) = 2x for x in S+, so 2 S+ lies in the row span of W:
    W spans S+ over Q, and phi|S+ != 0 exactly when W phi != 0.  S+ / W is
    killed by 2, so for the odd prime p the rows of W mod p span S+ mod p,
    and the mod-p screen below sees what a basis of S+ would.
    """
    dim, p = space.dim, echelon.p
    ech, piv = echelon.mat, echelon.piv
    w = _plus_spanning_rows(space)
    k = len(kept_vecs)
    kept = np.array(kept_vecs, dtype=np.int64).reshape(k, dim)
    pivset = set(piv)
    nonpiv = [j for j in range(dim) if j not in pivset]
    sub = kept[:, piv]
    # screen candidate kernel directions by their S+ pairing mod p: the
    # kernel vector for a non-pivot column j0 is e_j0 minus the echelon
    # column at j0 spread over the pivot columns
    w_p = _as_modp(w, p)
    pairing = w_p[:, nonpiv]
    if piv:
        check_int64_sum(p - 1, len(piv) * (p - 1), "S+ pairing mod p")
        pairing = (pairing - w_p[:, piv] @ ech[:, nonpiv]) % p
    good = [j0 for j0, col in zip(nonpiv, pairing.T) if col.any()]
    tried = 0
    for j0 in good + nonpiv:
        tried += 1
        if tried > 24:
            break
        rhs = -kept[:, j0]
        if k:
            try:
                y = solve_dixon(sub, rhs)
            except (ArithmeticError, ZeroDivisionError):
                continue
        else:
            y = []
        (num,), den = integer_rows([y])
        # phi is den at j0 and num on the pivot columns; the exact kill of
        # the kept span is automatic, check W phi != 0
        phi = {col: x for col, x in zip(piv, num) if x} | {j0: den}
        support = sorted(phi)
        phi_s = np.array([phi[j] for j in support], dtype=object)
        if not (w[:, support].astype(object) @ phi_s).any():
            continue
        # exact verification against every swept vector: phi on every
        # symbol as one product in Python integers, then one dot per T_n
        phiproj = space.proj[:, support].astype(object) @ phi_s
        if not any(phiproj[idx].dot(cnt) for idx, cnt in (t.T for t in swept)):
            return {"functional_support": len(support)}
    return None


# ---------------------------------------------------------------------------
# local orders and torsion bounds


def frobenius_kill_operator(space, q):
    """K_q = T_q|_S - q <q>|_S - 1, the operator annihilating rational
    torsion prime to q on the cuspidal lattice S, built once per space: an
    int64 array, or an object array where an entry could leave int64."""

    def build():
        t = space.restrict_to_cuspidal(hecke_operator(space, q))
        d = space.restrict_to_cuspidal(diamond_operator(space, q))
        if max_abs(t) + q * max_abs(d) >= INT64_MAX:  # the sum may leave int64
            t, d = t.astype(object), d.astype(object)
        return t - q * d - np.eye(len(t), dtype=np.int64)

    return space.memo(("kill", q), build)


def jacobian_order_mod_p(space, p):
    """#J(F_p) = |det(1 + p <p> - T_p)| on the cuspidal plus part, as the
    root of det K, memoised, for the kill operator K on S: S tensor Q = S+ +
    S- with S+ and S- isomorphic Hecke modules, so det K = det(K|S+)^2."""
    check_good_prime(space, p)
    det = space.memo(("kill det", p), lambda: det_bareiss(frobenius_kill_operator(space, p)))
    if det < 0 or isqrt(det) ** 2 != det:
        raise ArithmeticError(f"det of the kill operator at p = {p} is {det}, not a square")
    return isqrt(det)


def check_good_prime(space, p):
    """ValueError unless p is a prime not dividing 2N."""
    if not isprime(p):
        raise ValueError(f"{p} is not prime")
    if (2 * space.level) % p == 0:
        raise ValueError(f"p = {p} divides 2N for N = {space.level}")


def good_primes(level, count, start=3):
    """The first `count` primes >= start not dividing 2 * level.

    good_primes(N, 2) is where the default choice of auxiliary primes
    starts; see `auxiliary_primes`.
    """
    out = []
    p = start - 1
    while len(out) < count:
        p = nextprime(p)
        if (2 * level) % p != 0:
            out.append(p)
    return out


# Most primes the default rule keeps for one level, and skips in a row.
MAX_AUXILIARY_PRIMES = 5
# Names the rule of `auxiliary_primes` where results are stored (sweep
# checkpoints); change it whenever the rule changes, so that results of an
# older rule are not read back.
AUXILIARY_PRIMES_RULE = f"skip-until-sandwich-max{MAX_AUXILIARY_PRIMES}"


@dataclass
class AuxiliaryPrimes:
    """The auxiliary primes used for a level and the bound they give, M_H =
    {x : x block integral} = (1/m) kernel (see `_hecke_kernel`); `capped` is
    true when the default rule had kept MAX_AUXILIARY_PRIMES primes while
    the sandwich was still open."""

    primes: list
    block: object
    kernel: list
    m: int
    capped: bool = False


def auxiliary_primes(space, primes=None):
    """The auxiliary primes of the Hecke bound M_H for one level.

    An explicit `primes` list (at least two distinct good primes) is used
    exactly as given.  By default the search starts from good_primes(N, 2)
    and, while the sandwich M_H within Cl^cc is still open (`_cut_index`),
    tries the next good prime: it is kept if it strictly shrinks M_H, else
    skipped, until MAX_AUXILIARY_PRIMES are kept (`capped`) or skipped in a
    row.  Each kept prime only intersects M_H with one more kernel, so M_H
    stays an upper bound for the rational torsion; its kill operator is
    appended to the block of `_kill_block`.  With M_H = (1/m) K, q leaves
    M_H as it is exactly when K A_q = 0 mod m: a skipped prime costs one
    product.  Memoised on the space under `_primes_key`.
    """
    if primes is not None:
        if len(primes) < 2:
            raise ValueError("need at least two auxiliary primes")
        if len(set(primes)) < len(primes):
            raise ValueError(f"repeated auxiliary primes: {list(primes)}")
        for q in primes:
            check_good_prime(space, q)
    cap = MAX_AUXILIARY_PRIMES

    def build():
        chosen = good_primes(space.level, 2) if primes is None else list(primes)
        if len(space.cuspidal) == 0:
            return AuxiliaryPrimes(chosen, [], [], 1)
        block, m = _kill_block(space, chosen)
        aux = AuxiliaryPrimes(chosen, block, *_hecke_kernel(block, m))
        q = chosen[-1]
        while primes is None and _cut_index(space, aux)[0] > 1:
            if len(aux.primes) == cap:
                aux.capped = True
                break
            for q in good_primes(space.level, cap, start=q + 1):
                a = frobenius_kill_operator(space, q)
                if (exact_product(aux.kernel, a) % aux.m).any():
                    break  # q shrinks M_H
            else:
                break  # cap primes in a row left M_H as it is
            block = np.hstack([aux.block, a])
            aux = AuxiliaryPrimes(aux.primes + [q], block, *_hecke_kernel(block, aux.m))
        return aux

    return space.memo(("auxiliary primes", _primes_key(primes)), build)


def _primes_key(primes):
    """The memo key of a choice of auxiliary primes: the explicit primes,
    or the cap of the default rule."""
    return MAX_AUXILIARY_PRIMES if primes is None else tuple(primes)


def hecke_kernel_lattice(space, primes=None):
    """The kernel bound M_H of Eq-4.1 type as a lattice over the cuspidal
    basis: elements of H1(Q)/H1(Z) killed by every T_q - q<q> - 1 and by
    star - 1.  Returns (L, space) with M_H = L / Z^(2g).

    The primes, explicit or by default, are those of `auxiliary_primes`;
    L is built on demand from its kernel, which is what the pipeline reads.
    """
    aux = auxiliary_primes(space, primes)
    return Lattice(len(aux.kernel), aux.kernel, aux.m), space


def _kill_block(space, primes):
    """([A_q1 | A_q2 | ... | star - 1], m), A_q the kill operators on S and
    m the gcd of their determinants det A_q = #J(F_q)^2.

    If x A_q is integral and A_q is nonsingular, then x = (x A_q) adj(A_q)
    / det A_q lies in (1/|det A_q|) Z^(2g).  So M_H = {x : x A_q integral
    for every q, x (star - 1) integral} lies in (1/m) Z^(2g), and M_H =
    (1/m) K for the kernel K = {x : x block = 0 mod m}; singular A_q only
    add their columns.
    """
    m = gcd(*(jacobian_order_mod_p(space, q) for q in primes)) ** 2
    if m == 0:
        raise ArithmeticError("all Hecke kill operators singular; add primes")
    # |star| <= 2^63 - 1 on S (see exact_product), so star - I is exact
    star = space.restrict_to_cuspidal(space.star_matrix())
    eye = np.eye(len(star), dtype=np.int64)
    return np.hstack([*(frobenius_kill_operator(space, q) for q in primes), star - eye]), m


def _hecke_kernel(block, m):
    """(K, e) with {x : x block integral} = (1/e) K, for a group inside
    (1/m) Z^(2g): K = kernel_mod(block, m) and m, both divided by the gcd of
    m and the entries, so e is the exponent of the group mod Z^(2g)."""
    kernel = kernel_mod(block, m)
    g = gcd(m, *(x for row in kernel for x in row))
    return [[x // g for x in row] for row in kernel], m // g


def _cut_index(space, aux):
    """(k, phi B mod den, M_H), k = [M_H : M'] for M_H = (1/m) K = {x : x B
    integral} of `aux` and M' = M_H cap Cl^cc.  M_H is span(K mod m), as a
    FinAbGroup.  A class D phi / den lies in M_H when D phi B = 0 mod den,
    so M' is the classes of the kernel K' of phi B mod den; K' holds the
    principal divisors, and #M' = #Cl^cc / [Z^(c-1) : K'], where the index
    is #span(phi B mod den).  Memoised under the primes."""

    def build():
        proj = _projector(space)
        phib = exact_product(proj.phi, aux.block) % proj.den
        order = cuspidal_class_group(space).clcc.order()
        mh = FinAbGroup(span_mod(aux.kernel, aux.m))
        return mh.order() * prod(span_mod(phib, proj.den)) // order, phib, mh

    return space.memo(("cut index", tuple(aux.primes)), build)


def _dual(rows, n, den):
    """Y = {y in Z^n : rows y^T = 0 mod den} for integer rows of length n:
    the span S = rows / den + Z^n is {x : x Y^T integral}, so Y tests
    membership in S (stage (ii) reads C by it)."""
    return kernel_mod(np.array(rows, dtype=object).reshape(-1, n).T, den)


# ---------------------------------------------------------------------------
# Manin-Drinfeld projection and cuspidal class groups


class ManinDrinfeldProjector:
    """Classes in H1(Q)/H1(Z) of the degree-0 cuspidal divisors of a level,
    all c - 1 basis classes from one exact Sylvester solve.

    T = T_q for the least prime q >= 7 not dividing N; gamma_i are integral
    lifts of d_i = e_i - e_{c-1} through the boundary map, read off the
    cusp forest (see `boundary_lifts`).  In the basis
    [S-basis; Gamma], T is [[T_S, 0], [Z, R]], with R the matrix of T on the
    d-basis and Z the cuspidal coordinates of Gamma T - R Gamma.  The
    Eisenstein complement has the rows [-Y | I] with Y T_S - R Y = Z, and
    row i of Y = phi / den is the class of d_i over the cuspidal basis
    (modulo Z^(2g) it does not depend on the lifts).  The Eisenstein
    eigenvalues of T_q exceed 2 sqrt(q) in absolute value and the cuspidal
    ones do not, so Y is unique; `_solve_sylvester` certifies both this
    and Y.
    """

    def __init__(self, space):
        c = space.ncusps
        self.q = next(q for q in filter(isprime, count(7)) if space.level % q)
        t = hecke_operator(space, self.q)
        gammas = int_array(boundary_lifts(space)).reshape(c - 1, space.dim)
        images = exact_product(gammas, t)
        r = int_array([space.boundary_image(w)[: c - 1] for w in images.tolist()])
        r = r.reshape(c - 1, c - 1)
        # Z = Gamma T - R Gamma = [I | -R] [Gamma T; Gamma]
        eye = np.eye(c - 1, dtype=np.int64)
        z = space.cuspidal_coordinates(exact_product(np.hstack([eye, -r]),
                                                     np.vstack([images, gammas])))
        self.phi, self.den = _solve_sylvester(space.restrict_to_cuspidal(t), r, z)

    def class_of_divisor(self, divisor):
        """Class coordinates (Fractions over the cuspidal basis) of an
        integral degree-0 cuspidal divisor; the class is this vector mod
        Z^(2g)."""
        if len(divisor) != len(self.phi) + 1 or sum(divisor) != 0:
            raise ValueError(f"need a degree-0 divisor on the {len(self.phi) + 1} cusps")
        return [Fraction(x, self.den) for x in exact_product(divisor[:-1], self.phi).tolist()]


def boundary_lifts(space):
    """Integral gamma_i with gamma_i @ boundary = e_i - e_(c-1), i < c - 1.

    The boundary is the incidence matrix of the cusp graph.  The forest of
    `fundamental_cycles` (real edges, last to first) then takes one virtual
    edge (c - 1 -> i) for each i; each is a chord, whose fundamental cycle
    minus its own step is a path x of real edges with x @ boundary =
    e_i - e_(c-1).  ValueError if a virtual edge joins two trees.
    """
    c, dim = space.ncusps, space.dim
    edges = space.edges + [(c - 1, i) for i in range(c - 1)]
    order = [*range(dim - 1, -1, -1), *range(dim, dim + c - 1)]
    paths = [dict(cycle[1:]) for chord, cycle in forest_cycles(edges, order, c) if chord >= dim]
    if len(paths) < c - 1:
        raise ValueError("divisor not in the boundary image lattice")
    return [[path.get(e, 0) for e in range(dim)] for path in paths]


def _solve_sylvester(ts, r, z):
    """(Ynum, den): the unique rational Y = Ynum / den with Y ts - r Y = z.

    For f the characteristic polynomial of r mod p, f([[ts, 0], [z, r]]) is
    [[f(ts), 0], [G, 0]], so Y = G f(ts)^-1 mod p wherever f(ts) is
    invertible mod p; then det f(ts) != 0, ts and r have disjoint spectra
    and Y is unique.  The residues are combined by CRT and rebuilt by
    rational reconstruction, and Y is returned once it satisfies the
    equation in integers.
    """
    g2, k = len(ts), len(r)
    if not g2 or not k:
        return [[0] * g2 for _ in range(k)], 1
    eye = np.eye(g2 + k, dtype=np.int64)
    res = m = None
    # primes downward from MODP, small enough that (g2 + k) p^2 fits int64
    for p in filter(isprime, count(min(MODP, isqrt(2**62 // (g2 + k))), -1)):
        block = np.block([[_as_modp(ts, p), np.zeros((g2, k), dtype=np.int64)],
                          [_as_modp(z, p), _as_modp(r, p)]])
        acc = eye  # Horner; f is monic
        for coef in reversed(_charpoly_mod_p(block[g2:, g2:], p)[:-1]):
            acc = (acc @ block + coef * eye) % p
        inv = inverse_mod_p(acc[:g2, :g2], p)
        if inv is None:
            continue
        yp = (acc[g2:, :g2] @ inv % p).astype(object)
        res, m = (yp, p) if res is None else _crt_pair(res, m, yp, p)
        cand = []
        for row in res:
            cand.append([rational_reconstruct(int(a), m) for a in row])
            if None in cand[-1]:
                break
        else:
            num, den = integer_rows(cand)
            ynum = int_array(num)  # num ts - r num = [num | -r] [ts; num]
            lhs = exact_product(np.hstack([ynum, -r]), np.vstack([ts, ynum]))
            if (lhs == den * z.astype(object)).all():
                return num, den


def _projector(space):
    """The level's Manin-Drinfeld projector, built once per space.  The
    class of sum D_i d_i is sum D_i phi_i / den modulo Z^(2g), since a
    class is linear in the divisor up to an integral vector."""
    return space.memo("manin-drinfeld projector", lambda: ManinDrinfeldProjector(space))


# Always empty: the benchmark's fresh-process guard (bench/child.py) reads
# it.  The projector lives in the space memo, see _projector.
_MD_CACHE = {}


def unit_group_gens(n):
    """Generators of (Z/n)^*: one per odd prime power, {-1, 5} at 2^k."""
    if n <= 2:
        return []
    fac = factorint(n)
    gens = []
    for p, e in fac.items():
        pe = p**e
        rest = n // pe
        if p == 2:
            locals_ = [-1 % pe, 5 % pe] if e >= 3 else ([-1 % pe] if e == 2 else [])
        else:
            locals_ = [primitive_root(pe)]
        gens += [_crt_pair(gloc, pe, 1, rest)[0] for gloc in locals_]
    return sorted(set(g for g in gens if g % n != 1))


@dataclass
class CuspidalClassGroup:
    """Cl^cc and Cl^cc_Q, with, over the projector's den: the classes of the
    degree-0 Galois-invariant divisors as rows / den (`classes_q`) and B_G
    (`galois_block`): D B_G = 0 mod den exactly when the divisor D has a
    Galois-invariant class."""

    spec: object
    clcc: FinAbGroup
    clcc_q: FinAbGroup
    surjective: bool  # (Div^0cc)^G -> (Cl^cc)^G surjective
    classes_q: object
    galois_block: list

    def to_json(self):
        return {
            "group": self.spec.label(),
            "clcc": self.clcc.to_json(),
            "clcc_Q": self.clcc_q.to_json(),
            "invariants_surjective": self.surjective,
        }


def galois_cusp_permutation(space, s):
    """Permutation of cusp classes under sigma_s in Gal(Q(zeta_N)/Q).

    A cusp class key (c, d0) with g = gcd(c, N) matches the scheme point
    with polygon coordinate c/g and root-of-unity exponent d0 mod g.  On
    the model where the curve classifies (E, P) with P a point of order N,
    sigma_s raises the mu-coordinate: (c, d0) -> (c, s d0).
    """
    gd = space.group
    n = space.level
    if gcd(s, n) != 1:
        raise ValueError(f"{s} is not a unit mod {n}")
    idx = {key: i for i, key in enumerate(gd.cusp_classes)}
    return [idx[gd.cusp_key(c, s * d)] for c, d in gd.cusp_classes]


def cuspidal_class_group(space):
    """Cl^cc and Cl^cc_Q of the modular curve, with the Prop-4.4 check.

    Works in two coordinate systems at once: divisor coordinates (to take
    Galois invariants, which are only group-linear on divisors) and
    cuspidal-basis coordinates (to compare against the Hecke bound M_H).
    Every class comes from the classes of the divisor basis d_i, solved
    once per space; the group is memoised on the space.
    """
    return space.memo("class group", lambda: _class_group(space))


def _class_group(space):
    g2 = len(space.cuspidal)
    c = space.ncusps
    if g2 == 0:
        triv = FinAbGroup([])
        return CuspidalClassGroup(space.spec, triv, triv, True, [], [])
    proj = _projector(space)  # phi: (c-1) x 2g
    phi, den = proj.phi, proj.den
    clcc = FinAbGroup(span_mod(phi, den))
    # cross-check: Div^0 / principal must reproduce Cl^cc, the principal
    # divisors being the kernel of the class map on Div^0
    if FinAbGroup(elementary_divisors(kernel_mod(phi, den))) != clcc:
        raise ArithmeticError(f"{space.spec.label()}: Div^0 / principal does not reproduce Cl^cc")

    # Galois structure
    gens = unit_group_gens(space.level)
    perms = [galois_cusp_permutation(space, s) for s in gens]
    orbs = orbits(range(c), [s.__getitem__ for s in perms])
    orbit_sums = [[int(i in orbit) for i in range(c)] for orbit in map(set, orbs)]
    combos = kernel_basis([list(map(len, orbs))])  # {a : sum a_j deg_j = 0}
    # degree-0 G-invariant divisors, divisor-basis coords (tail entry implied)
    inv_divs = int_array(combos).reshape(-1, len(orbs))
    inv_divs = exact_product(inv_divs, orbit_sums)[:, : c - 1]
    classes_q = exact_product(inv_divs, phi)
    clcc_q = FinAbGroup(span_mod(classes_q, den))

    # (Cl^cc)^G in divisor coordinates: D B = 0 mod den, where B has one
    # column block per generator sigma (cusp permutation s), the classes of
    # (sigma - 1) d_i = d_s[i] - d_s[c-1] - d_i with d_(c-1) = 0
    phi = phi + [[0] * g2]
    block = [
        [x - y - z for s in perms for x, y, z in zip(phi[s[i]], phi[s[c - 1]], phi[i])]
        for i in range(c - 1)
    ]
    # (Cl^cc)^G, the classes of ker B (which holds the principal divisors),
    # contains Cl^cc_Q, and has order #Cl^cc / [Z^(c-1) : ker B]
    if (exact_product(inv_divs, block) % den).any():
        raise ArithmeticError(f"{space.spec.label()}: a Galois-invariant divisor class "
                              "lies outside (Cl^cc)^G")
    surjective = clcc.order() == prod(span_mod(block, den)) * clcc_q.order()
    return CuspidalClassGroup(space.spec, clcc, clcc_q, surjective, classes_q, block)


# ---------------------------------------------------------------------------
# the equality pipeline (is all rational torsion cuspidal?)


@dataclass
class TorsionReport:
    spec: object
    rank: RankCertificate
    local_orders: dict
    torsion_multiple: int
    hecke_bound: FinAbGroup
    clcc: FinAbGroup
    clcc_q: FinAbGroup
    verdict: str
    index_bound: int = 1
    sturm: int = 0
    primes: list = field(default_factory=list)
    primes_capped: bool = False

    def to_json(self):
        return {
            "group": self.spec.label(),
            "rank_verdict": self.rank.verdict,
            "sturm_bound": self.sturm,
            "primes": self.primes,
            "primes_capped": self.primes_capped,
            "local_orders": {str(p): o for p, o in self.local_orders.items()},
            "torsion_multiple": self.torsion_multiple,
            "hecke_bound": self.hecke_bound.to_json(),
            "clcc": self.clcc.to_json(),
            "clcc_Q": self.clcc_q.to_json(),
            "pipeline_verdict": self.verdict,
            "index_bound": self.index_bound,
        }


def _pipeline(space, primes):
    """(Hecke bound, verdict, k, stage) for one choice of auxiliary primes,
    memoised on the space under `_primes_key`.

    Write M = M_H, Cl = Cl^cc and C = Cl^cc_Q, and M' = M cap Cl, all as
    groups modulo Z^(2g), each read as a span mod m or den (`span_mod`):
    M = (1/m) K is span(K mod m), and #M' comes from `_cut_index`.  Stage
    (ii) reads C by its dual rows (`_dual`, memoised on the space), to test
    membership in p^-1 C; no other stage builds them.
    ArithmeticError unless C lies in M, one product mod den: rational
    cuspidal torsion lies in every bound on rational torsion.  Then Z^(2g) <= C <= M' <= M, k = #M / #M' =
    [M : M'], and:
    - (i) if k = 1, M lies in Cl, and the verdict is "equal" when
      (Div^0cc)^G -> (Cl^cc)^G is surjective;
    - (ii) (M'/C)[p] lies in (M/C)[p].  For p not dividing k the two are
      equal, as (M/C)[p] maps into M/M' of order k; for p | k they are
      equal exactly when M cap p^-1 C and M' cap p^-1 C have the same
      order (`p_torsion_agrees`, two spans).  "equal" when that holds for
      every p | k and the map above is surjective;
    - (iii) otherwise k = [M : M'], which is [M + Cl : Cl] by the second
      isomorphism theorem.
    The Hecke bound is M cap (Cl^cc)^G when M lies in Cl (rational torsion
    then lies in M and is Galois-fixed inside Cl^cc, so the cut is sound),
    and M otherwise; the cut is the span of the classes of the divisors in
    the kernel of [phi B | B_G] mod den.  If the map above is surjective as
    well, (Cl^cc)^G = C lies in M and the bound is C itself, with no cut
    built.
    """

    def build():
        aux = auxiliary_primes(space, primes)
        if not aux.kernel:
            return FinAbGroup([]), "equal", 1, "trivial"
        cc = cuspidal_class_group(space)
        proj = _projector(space)
        g2, den = len(aux.kernel), proj.den
        if (exact_product(cc.classes_q, aux.block) % den).any():
            raise ArithmeticError(f"{space.spec.label()}: Cl^cc_Q is not inside M_H")
        k, phib, mh = _cut_index(space, aux)
        if k == 1 and cc.surjective:
            return cc.clcc_q, "equal", 1, "sandwich"
        if k == 1:
            # the divisors whose class lies in M and is Galois-invariant
            cut = kernel_mod(np.hstack([phib, np.array(cc.galois_block, dtype=object)]), den)
            bound = FinAbGroup(span_mod(exact_product(cut, proj.phi), den))
        else:
            bound = mh

        def p_torsion_agrees(p):
            # sup = M cap p^-1 C: the v / (p den) with v B = 0 and p v dual_t
            # = 0 mod p den; sub = M' cap p^-1 C: the D phi / den with D phi B
            # = 0 and p D phi dual_t = 0 mod den.  Over C both are p-groups,
            # so only the p-parts q of p den and q / p of den are read
            dual = space.memo("class dual", lambda: _dual(cc.classes_q, g2, den))
            dual_t = np.array(dual, dtype=object).T  # C = {x : x dual_t integral}
            q = p * gcd(den, p**den.bit_length())
            sup = span_mod(np.hstack([aux.block, dual_t * p]), q)
            sub = span_mod(np.hstack([phib, exact_product(proj.phi, dual_t) % den * p]), q // p)
            return q**g2 * prod(sub) == prod(sup) * gcd(cc.clcc.order(), (q // p) ** g2)

        if cc.surjective and all(p_torsion_agrees(p) for p in factorint(k)):
            return bound, "equal", 1, "maximal-ideal"
        return bound, f"index-divides-{k}", k, "index"

    return space.memo(("pipeline", _primes_key(primes)), build)


def hecke_bound_group(space, primes=None):
    """The Hecke bound on rational torsion as a FinAbGroup: M_H cut by
    (Cl^cc)^G when M_H lies in Cl^cc, else M_H (see `_pipeline`).

    An explicit `primes` list is used exactly as given; primes=None takes
    the default choice of `auxiliary_primes`.
    """
    return _pipeline(space, primes)[0]


def torsion_is_cuspidal(space, primes=None):
    """Three-stage equality test between M_H and the cuspidal classes.

    Returns (verdict, k, cc, stage): verdict is "equal" or
    "index-divides-k", k is 1 for "equal", cc is the level's
    CuspidalClassGroup and stage names the stage that decided: "trivial"
    (genus 0), "sandwich" (stage (i): M_H inside Cl^cc), "maximal-ideal"
    (stage (ii): the maximal-ideal torsion comparison of Lemma-4.6 type) or
    "index" (stage (iii): the index [M_H + Cl^cc : Cl^cc]).  The stages
    are those of `_pipeline`.

    An explicit `primes` list is used exactly as given; primes=None takes
    the default choice of `auxiliary_primes`.
    """
    _, verdict, k, stage = _pipeline(space, primes)
    return verdict, k, cuspidal_class_group(space), stage


def torsion_report(space, primes=None):
    """Full per-level report: rank, local orders, bounds, class groups.

    An explicit `primes` list is used exactly as given; primes=None takes
    the default choice of `auxiliary_primes`.  The local orders, the
    torsion multiple, the Hecke bound and the pipeline all use the same
    primes, and the kernel of M_H, class group and pipeline they share
    are built once, in the space memo.
    """
    cc = cuspidal_class_group(space)
    aux = auxiliary_primes(space, primes)
    rank = is_rank_zero(space)
    orders = {p: jacobian_order_mod_p(space, p) for p in aux.primes}
    mh = hecke_bound_group(space, primes)
    verdict, k, _, _stage = torsion_is_cuspidal(space, primes)
    return TorsionReport(
        spec=space.spec,
        rank=rank,
        local_orders=orders,
        torsion_multiple=gcd(*orders.values()),
        hecke_bound=mh,
        clcc=cc.clcc,
        clcc_q=cc.clcc_q,
        verdict=verdict,
        index_bound=k,
        sturm=sturm_bound(space.spec),
        primes=aux.primes,
        primes_capped=aux.capped,
    )
