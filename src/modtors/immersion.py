"""Formal-immersion rank tests at cuspidal divisors of X0(N).

The pipeline behind the positive-rank levels: decompose the cuspidal plus
part of a Gamma0(N) space into Hecke-isotypic components, flag the ones the
winding element sees (these assemble the analytic-rank-zero quotient),
build an integral basis of coefficient rows for the corresponding forms,
transport expansions to other cusps through Atkin-Lehner involutions, and
test the rank of the resulting matrices at degree-3 cuspidal divisors.
"""

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import gcd

from .arith import factor_monic, poly_mul, poly_str
from .cusps import cusp_orbits
from .ecff import exists_point_of_order, hasse_excludes
from .intlinalg import (
    MODP,
    charpoly,
    coordinates,
    exact_product,
    hnf,
    identity,
    kernel_basis,
    poly_eval_matrix,
    rank_mod_p,
    transpose,
)
from .jacobian import check_good_prime, sturm_bound, winding_span_mod_p
from .modsym import (
    GroupSpec,
    atkin_lehner,
    atkin_lehner_cusp_action,
    build_space,
    hecke_operator,
    restrict_to_lattice,
)

SPLIT_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


@dataclass
class IsotypicComponent:
    basis: list  # rows over the basis `plus_cuspidal()` of S+
    charpoly_label: str
    rank_zero: bool

    @property
    def dim(self):
        return len(self.basis)


@dataclass
class RankZeroQuotient:
    spec: object
    components: list
    winding_dim: int

    @property
    def rank_zero_dim(self):
        return sum(c.dim for c in self.components if c.rank_zero)

    def rank_zero_basis(self):
        rows = []
        for c in self.components:
            if c.rank_zero:
                rows.extend(c.basis)
        return rows

    def to_json(self):
        return {
            "group": self.spec.label(),
            "components": [
                {"dim": c.dim, "rank_zero": c.rank_zero, "charpoly": c.charpoly_label}
                for c in self.components
            ],
            "rank_zero_dim": self.rank_zero_dim,
        }


def cuspidal_span(space, vecs):
    """Integer vectors spanning the integer combinations of vecs that the
    boundary map kills."""
    dv = [space.boundary_image(v) for v in vecs]
    ker = kernel_basis(transpose(dv)) if vecs else []  # {x : x @ dv = 0}
    return exact_product(ker, vecs).tolist() if ker else []


def _winding_span_vectors(space):
    """Exact integer vectors spanning (Hecke span of {0,oo}) cap cuspidal."""
    _, kept, _, _, _ = winding_span_mod_p(space, sturm_bound(space.spec), MODP)
    return cuspidal_span(space, kept)


def _restrict_to_plus(space, op):
    """An operator on the space restricted to S+, over its basis
    `plus_cuspidal()`: first to S, then to S+ in S's coordinates."""
    return restrict_to_lattice(space.restrict_to_cuspidal(op), space.plus_cuspidal())


def rank_zero_quotient(space):
    """Hecke-isotypic decomposition of the cuspidal plus part of a Gamma0
    space with winding flags; the flagged components assemble the
    analytic-rank-zero quotient.  A component is a basis of rows over the
    basis of S+; a restriction to it runs over its Hermite form.
    """
    if space.spec.kind != "gamma0":
        raise ValueError("quotient decompositions are built on Gamma0 spaces")
    plus = space.plus_cuspidal()
    g = len(plus)
    if g == 0:
        return RankZeroQuotient(space.spec, [], 0)
    n = space.level

    comps = [identity(g)]
    labels = [""]
    # T_q on S+, once per q: the splitting and the isotypy check share it
    t_plus = {q: _restrict_to_plus(space, hecke_operator(space, q))
              for q in SPLIT_PRIMES if n % q}
    for q, tq in t_plus.items():
        new_comps = []
        new_labels = []
        for basis, label in zip(comps, labels):
            sub = hnf(basis)
            tq_sub = restrict_to_lattice(tq, sub)
            factors = factor_monic(charpoly(tq_sub))
            if len(factors) == 1:
                new_comps.append(basis)
                new_labels.append(label or _fmt_factor(q, factors[0]))
                continue
            for fac, mult in factors:
                coeffs = [1]
                for _ in range(mult):
                    coeffs = poly_mul(coeffs, fac)
                mat = poly_eval_matrix(coeffs, tq_sub)
                ker = kernel_basis(mat.T)  # left kernel rows, over sub
                piece = exact_product(ker, sub).tolist() if ker else []
                new_comps.append(piece)
                new_labels.append(_fmt_factor(q, (fac, mult)))
        comps, labels = new_comps, new_labels
    if sum(len(c) for c in comps) != g:
        raise ArithmeticError("decomposition incomplete")
    # each surviving block must be isotypic for every operator used
    for basis in comps:
        sub = hnf(basis)
        for tq in t_plus.values():
            if len(factor_monic(charpoly(restrict_to_lattice(tq, sub)))) > 1:
                raise ArithmeticError("decomposition incomplete")

    winding = space.cuspidal_coordinates(_winding_span_vectors(space))
    wcoords = coordinates(winding, plus)
    if wcoords is None:
        raise ArithmeticError(f"{space.spec.label()}: a winding vector lies outside S+")
    wcoords = wcoords.tolist()
    components = []
    for basis, label in zip(comps, labels):
        stacked = wcoords + basis
        meets = len(hnf(stacked)) < len(wcoords) + len(basis)
        components.append(
            IsotypicComponent(basis=basis, charpoly_label=label, rank_zero=meets)
        )
    return RankZeroQuotient(space.spec, components, len(wcoords))


def _fmt_factor(q, fac_mult):
    fac, mult = fac_mult
    s = f"T{q}:{poly_str(fac)}"
    return s + (f"^{mult}" if mult > 1 else "")


def _coprime_range(n_level, count):
    """1..count truncated before the first index sharing a factor with N.

    Only T_n with n coprime to the level commute with the Atkin-Lehner
    involutions, which is what keeps expansion rows at different cusps
    attached to the same form.
    """
    out = []
    for n in range(1, count + 1):
        if gcd(n, n_level) != 1:
            break
        out.append(n)
    return out


def joint_expansion_rows(space, basis, cusp_classes, count):
    """Consistent coefficient rows of an integral basis of the dual forms,
    at several cusps at once; basis lists the rows of a Hecke-stable
    sublattice of the plus part.

    Returns (ns, blocks) where ns lists the coefficient indices used and
    blocks maps each requested cusp class to an e x len(ns) integer matrix;
    row i of every block describes the SAME form omega_i.  Functionals are
    the matrix entries of T_n (restricted to the sublattice), transported
    to other cusps by composing with the Atkin-Lehner matrix that carries
    infinity there; the combined rows are saturated jointly, so unimodular
    changes of basis act on all cusps together and ranks are well defined.
    """
    sub = hnf(basis)
    d = len(sub)
    ns = _coprime_range(space.level, count)
    inf_class = space.group.cusp_index_of_fraction(1, 0)
    tn_mats = {n: _restrict_to_plus(space, hecke_operator(space, n)) for n in ns}
    per_cusp_mats = {}
    for cusp in cusp_classes:
        if cusp == inf_class:
            per_cusp_mats[cusp] = [
                restrict_to_lattice(tn_mats[n], sub) for n in ns
            ]
            continue
        found = None
        for q in exact_divisors(space.level):
            if q == 1:
                continue
            perm = atkin_lehner_cusp_action(space, q)
            if perm[inf_class] == cusp:
                found = q
                break
        if found is None:
            raise ValueError(
                f"cusp class {cusp} is not in the Atkin-Lehner orbit of oo"
            )
        w = _restrict_to_plus(space, atkin_lehner(space, found))
        per_cusp_mats[cusp] = [
            restrict_to_lattice(exact_product(w, tn_mats[n]), sub) for n in ns
        ]
    order = list(per_cusp_mats)
    func_rows = []
    for i in range(d):
        for j in range(d):
            row = []
            for cusp in order:
                row.extend(m[i][j] for m in per_cusp_mats[cusp])
            func_rows.append(row)
    # the saturation of the rows, {v : ker @ v = 0} for their kernel ker
    # {x : rows @ x = 0}: all of Z^width with no rows, none at full rank
    width = len(ns) * len(order)
    ker = kernel_basis(func_rows) if func_rows else identity(width)
    sat = kernel_basis(ker) if ker else identity(width)
    if not sat:
        raise ValueError("non-integral system: empty coefficient space")
    blocks = {}
    for k, cusp in enumerate(order):
        blocks[cusp] = [row[k * len(ns):(k + 1) * len(ns)] for row in sat]
    return ns, blocks


def exact_divisors(n):
    return [q for q in range(1, n + 1) if n % q == 0 and gcd(q, n // q) == 1]


def immersion_matrix(rows_at_cusp, divisor):
    """The block matrix of leading expansion coefficients at the divisor.

    rows_at_cusp maps each cusp class to the rows mod p of the forms there;
    divisor lists (cusp class, multiplicity) pairs, and each cusp of
    multiplicity m contributes the first m coefficients of every row.
    """
    return [
        [x for cusp, mult in divisor for x in rows_at_cusp[cusp][i][:mult]]
        for i in range(len(rows_at_cusp[divisor[0][0]]))
    ]


def _x0_rational_cusp_classes(space, p):
    """Group-side cusp classes of the degree-1 places of X0(N) mod p.

    Rational places are the fixed points of the Frobenius sigma_p acting on
    cusp classes; the count is cross-checked against the scheme-side
    bookkeeping, and widths must match per class (ambiguity is flagged
    rather than guessed away).
    """
    from .jacobian import galois_cusp_permutation

    perm = galois_cusp_permutation(space, p % space.level)
    fixed = [i for i, j in enumerate(perm) if i == j]
    scheme = [o for o in cusp_orbits(space.level, "X0", p) if o.degree == 1]
    expected = sum(o.count for o in scheme)
    if len(fixed) != expected:
        raise ArithmeticError(
            f"cusp matching mismatch mod {p}: {len(fixed)} fixed classes vs "
            f"{expected} rational scheme places"
        )
    widths_group = sorted(space.group.cusp_width(i) for i in fixed)
    widths_scheme = sorted(
        w for o in scheme for w in [o.width] * o.count
    )
    if widths_group != widths_scheme:
        raise ArithmeticError("cusp matching mismatch: widths disagree")
    return fixed


def reduction_targets(space, p, refine="auto"):
    """Degree-3 cuspidal divisors on X0(N) mod p that a cubic point of
    X1(N) can reduce to, for the Gamma0(N) space and a prime p not
    dividing 2N (ValueError otherwise).

    First certifies that no elliptic curve over F_{p^i} (i <= 3) carries a
    point of order N (Hasse bound where it applies, Tate scans otherwise);
    raises if the scan finds one.  With refine="auto", the finer X1-side
    bookkeeping restricts the targets to the divisors 3[c] over rational
    cusps whenever every admissible degree-3 cuspidal pattern on X1 has
    single-cusp support; refine=False keeps every degree-3 divisor
    supported on the low-degree cusps (the coarse X0-side set).
    """
    N = space.level
    if space.spec.kind != "gamma0":
        raise ValueError("reduction targets are divisors on X0(N)")
    check_good_prime(space, p)
    hasse_all = all(hasse_excludes(p**i, N) for i in (1, 2, 3))
    if not hasse_all:
        for i in (1, 2, 3):
            if exists_point_of_order(p**i, N):
                raise ArithmeticError(
                    f"reduction not forced to cusps: curve over F_{p**i} "
                    f"with {N}-torsion exists"
                )
    rational = _x0_rational_cusp_classes(space, p)
    if refine == "auto" and hasse_all and _x1_patterns_single_support(N, p):
        return [[(c, 3)] for c in rational]
    # coarse mode: all degree-3 divisors supported on cusps of degree <= 3
    low = list(rational)  # degrees 2,3 would enter here; see below
    extra = [
        o
        for o in cusp_orbits(N, "X0", p)
        if o.degree in (2, 3)
    ]
    if extra:
        raise ArithmeticError(
            "degree-2/3 cusp places on X0 lack a class matching; "
            "only rational-support divisors are implemented"
        )
    targets = []
    for combo in combinations_with_replacement(low, 3):
        div = {}
        for c in combo:
            div[c] = div.get(c, 0) + 1
        targets.append(sorted(div.items()))
    return targets


def _degeneracy_scale(N):
    """Pullback scale of the second degeneracy 1-form: M for level M^2.

    The form f(Mz) d z on X0(M^2) is (1/M) of the pullback of f(z) dz, so
    the integral combination pairs the visible row with M times the shadow.
    """
    from math import isqrt

    m = isqrt(N)
    if m * m != N:
        raise ValueError("degeneracy rows implemented for square levels only")
    return m


def _x1_patterns_single_support(N, p):
    """Lemma-7.1-style hypothesis: every admissible degree-3 cuspidal
    pattern on X1(N) mod p is supported over a single X0 cusp."""
    orbits = cusp_orbits(N, "X1", p)
    rational_components = {o.component for o in orbits if o.degree == 1}
    has_degree2 = any(o.degree == 2 for o in orbits)
    return len(rational_components) == 1 and not has_degree2


def immersion_certificate(N, p, count=5, refine="auto", rows_mode="full"):
    """Full certificate: reduction targets plus rank tests at each target.

    rows_mode "full" uses an integral basis of all forms on the rank-zero
    quotient (old directions carry their expansions at every cusp);
    "degeneracy" takes one form per visible row of each rank-zero
    component, folding an old component's shadow row in through the
    degeneracy 1-form scaling.
    """
    space = build_space(GroupSpec.gamma0(N))
    targets = reduction_targets(space, p, refine=refine)
    quotient = rank_zero_quotient(space)
    cusps_needed = sorted({c for div in targets for c, _ in div})
    inf_class = space.group.cusp_index_of_fraction(1, 0)
    all_cusps = sorted(set(cusps_needed) | {inf_class})
    if rows_mode == "full":
        _, blocks = joint_expansion_rows(
            space, quotient.rank_zero_basis(), all_cusps, count
        )
        rows = {c: [[x % p for x in row] for row in blocks[c]] for c in cusps_needed}
    elif rows_mode == "degeneracy":
        rows = {c: [] for c in cusps_needed}
        for comp in quotient.components:
            if not comp.rank_zero:
                continue
            _, blocks = joint_expansion_rows(space, comp.basis, all_cusps, count)
            visible = [i for i in range(len(blocks[inf_class])) if any(blocks[inf_class][i])]
            shadows = [i for i in range(len(blocks[inf_class])) if i not in visible]
            if shadows:
                # old component: one form per visible row, with the shadow
                # direction folded in through the degeneracy 1-form scaling
                scale = _degeneracy_scale(N)
                if not len(visible) == len(shadows) == 1:
                    raise NotImplementedError("unhandled old block")
                for c in cusps_needed:
                    combined = [
                        a + scale * b
                        for a, b in zip(blocks[c][visible[0]], blocks[c][shadows[0]])
                    ]
                    rows[c].append([x % p for x in combined])
            else:
                for c in cusps_needed:
                    for i in visible:
                        rows[c].append([x % p for x in blocks[c][i]])
    else:
        raise ValueError(f"unknown rows_mode {rows_mode!r}")
    per_target = []
    all_pass = True
    for div in targets:
        rank = rank_mod_p(immersion_matrix(rows, div), p)
        degree = sum(m for _, m in div)
        ok = rank == degree
        all_pass = all_pass and ok
        per_target.append({"divisor": div, "rank": rank, "degree": degree,
                           "formal_immersion": ok})
    return {
        "level": N,
        "prime": p,
        "quotient_dims": [c.dim for c in quotient.components if c.rank_zero],
        "rank_one_dims": [c.dim for c in quotient.components if not c.rank_zero],
        "targets": [[list(t) for t in div] for div in targets],
        "per_target": per_target,
        "verdict": "cubic points of X1({}) are cuspidal".format(N)
        if all_pass
        else "immersion test failed at some target",
        "all_pass": all_pass,
    }
