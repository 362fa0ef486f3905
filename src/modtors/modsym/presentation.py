"""Weight-2 Manin-symbol presentations: relations, elimination, lattices.

Symbols are indexed by H+- orbits of unit pairs (c, d) mod N.  The two-term
relations x + x.sigma = 0 are folded away first; the remaining three-term
relations x + x.tau + x.tau^2 = 0 are solved by sparse fraction-free
Gaussian elimination with Markowitz-style pivoting.  Finally everything is
rewritten on a basis of the integral lattice (the image of the integral
symbol span), so that symbol projections, boundary maps and all operator
matrices downstream are integer matrices.
"""

from fractions import Fraction
from math import gcd

from ..intlinalg import vec_gcd


def sigma_pairing(gd):
    """Fold the two-term relations.

    Returns (rep, sign, zero): symbol i satisfies x_i = sign[i] * x_rep[i],
    or x_i = 0 when zero[i].
    """
    n = gd.level
    nsym = gd.nsym
    rep = list(range(nsym))
    sign = [1] * nsym
    zero = [False] * nsym
    for i, (c, d) in enumerate(gd.symbols):
        j = gd.pair_orbit[(d % n, (-c) % n)]
        if j == i:
            zero[i] = True
        elif j > i:
            rep[j] = i
            sign[j] = -1
    return rep, sign, zero


def tau_relations(gd, rep, sign, zero):
    """Deduplicated three-term relations in the sigma-reduced variables."""
    n = gd.level
    seen = [False] * gd.nsym
    rows = []
    row_keys = set()
    for i, (c, d) in enumerate(gd.symbols):
        if seen[i]:
            continue
        j = gd.pair_orbit[(d % n, (-c - d) % n)]
        cj, dj = gd.symbols[j]
        k = gd.pair_orbit[(dj % n, (-cj - dj) % n)]
        orbit = {i, j, k}
        for t in orbit:
            seen[t] = True
        row = {}
        for t in (i, j, k):
            if zero[t]:
                continue
            r = rep[t]
            row[r] = row.get(r, 0) + sign[t]
        row = {v: c0 for v, c0 in row.items() if c0}
        if not row:
            continue
        g = vec_gcd(list(row.values()))
        if g > 1:
            row = {v: c0 // g for v, c0 in row.items()}
        first = min(row)
        if row[first] < 0:
            row = {v: -c0 for v, c0 in row.items()}
        key = tuple(sorted(row.items()))
        if key not in row_keys:
            row_keys.add(key)
            rows.append(row)
    return rows


def eliminate(rows, variables):
    """Sparse fraction-free elimination.

    rows: list of {var: int}; variables: iterable of all variable ids.
    Returns (free_vars, expressions) where expressions maps each pivot var
    to a {free_var: Fraction} expansion.
    """
    rows = [dict(r) for r in rows]
    col_rows = {}
    for ridx, row in enumerate(rows):
        for v in row:
            col_rows.setdefault(v, set()).add(ridx)
    active = set(range(len(rows)))
    elim_order = []  # (var, row dict at elimination time)
    pivoted = set()

    while active:
        # pick the shortest active row; among its entries prefer unit
        # coefficients and low column usage
        ridx = min(active, key=lambda r: (len(rows[r]), r))
        row = rows[ridx]
        if not row:
            active.discard(ridx)
            continue
        var = min(
            row,
            key=lambda v: (abs(row[v]) != 1, len(col_rows.get(v, ())), v),
        )
        a = row[var]
        users = [r for r in col_rows.get(var, ()) if r != ridx and r in active]
        for r in users:
            other = rows[r]
            b = other.pop(var)
            col_rows[var].discard(r)
            g = gcd(a, b)
            ca, cb = a // g, b // g
            # other := ca * other - cb * row
            for v, c0 in row.items():
                if v == var:
                    continue
                nv = ca * other.get(v, 0) - cb * c0
                if nv:
                    if v not in other:
                        col_rows.setdefault(v, set()).add(r)
                    other[v] = nv
                elif v in other:
                    del other[v]
                    col_rows[v].discard(r)
            if ca != 1:
                for v in [w for w in other if w not in row]:
                    other[v] *= ca
            if other:
                g2 = vec_gcd(list(other.values()))
                if g2 > 1:
                    for v in other:
                        other[v] //= g2
            else:
                active.discard(r)
        elim_order.append((var, row))
        pivoted.add(var)
        active.discard(ridx)
        for v in row:
            col_rows.get(v, set()).discard(ridx)

    free = [v for v in variables if v not in pivoted]
    free_pos = {v: k for k, v in enumerate(free)}

    expressions = {}
    for var, row in reversed(elim_order):
        a = row[var]
        expr = {}
        for v, c0 in row.items():
            if v == var:
                continue
            coef = Fraction(-c0, a)
            if v in free_pos:
                expr[v] = expr.get(v, Fraction(0)) + coef
            else:
                for w, c1 in expressions[v].items():
                    expr[w] = expr.get(w, Fraction(0)) + coef * c1
        expressions[var] = {v: c0 for v, c0 in expr.items() if c0}
    return free, expressions


class Presentation:
    """Solved presentation of the weight-2 modular symbol space.

    Attributes:
      free: list of symbol ids forming the working basis before the
            integral change of coordinates;
      dim: dimension of the space;
      proj: list (per symbol) of integer coordinate vectors on the integral
            basis; identical-length dense rows;
      lattice_basis / lattice_den: rows B with M_Z = span_Z(B) / den in the
            working coordinates (kept for diagnostics).
    """

    def __init__(self, gd):
        self.gd = gd
        rep, sign, zero = sigma_pairing(gd)
        variables = [i for i in range(gd.nsym) if not zero[i] and rep[i] == i]
        rows = tau_relations(gd, rep, sign, zero)
        free, expressions = eliminate(rows, variables)
        self.free = free
        self.dim = len(free)
        free_pos = {v: k for k, v in enumerate(free)}

        # rational projection in working (free-symbol) coordinates
        proj_q = []
        for i in range(gd.nsym):
            if zero[i]:
                proj_q.append({})
                continue
            r, s = rep[i], sign[i]
            if r in free_pos:
                proj_q.append({free_pos[r]: Fraction(s)})
            else:
                proj_q.append(
                    {free_pos[v]: s * c for v, c in expressions[r].items()}
                )
        self._rewrite_integral(proj_q)

    def _rewrite_integral(self, proj_q):
        """Change coordinates so the symbol lattice is exactly Z^dim."""
        dim = self.dim
        den = 1
        for row in proj_q:
            for c in row.values():
                den = den * c.denominator // gcd(den, c.denominator)
        # lattice spanned by all symbol projections (contains the unit
        # vectors, since free symbols project to themselves)
        basis = [[den if i == j else 0 for j in range(dim)] for i in range(dim)]

        def reduce_vec(vec):
            for i in range(dim):
                x = vec[i]
                if x % basis[i][i]:
                    return vec, i
                q = x // basis[i][i]
                if q:
                    for j in range(i, dim):
                        vec[j] -= q * basis[i][j]
            return vec, None

        for row in proj_q:
            if not row:
                continue
            vec = [0] * dim
            for j, c in row.items():
                vec[j] = int(c * den)
            while True:
                vec, stuck = reduce_vec(vec)
                if stuck is None:
                    break
                # extend the lattice at pivot `stuck` by gcd-combination
                from ..intlinalg import xgcd

                a = basis[stuck][stuck]
                b = vec[stuck]
                g, s, t = xgcd(a, b)
                newrow = [
                    s * basis[stuck][j] + t * vec[j] for j in range(dim)
                ]
                vec = [
                    (a // g) * vec[j] - (b // g) * basis[stuck][j]
                    for j in range(dim)
                ]
                basis[stuck] = newrow
        # normalize: reduce entries above pivots
        for i in range(dim - 1, -1, -1):
            for k in range(i + 1, dim):
                q = basis[i][k] // basis[k][k]
                if q:
                    for j in range(k, dim):
                        basis[i][j] -= q * basis[k][j]
        self.lattice_basis = basis
        self.lattice_den = den

        # coordinates of every symbol on the lattice basis (exact forward
        # substitution; B is upper triangular with full pivot set)
        diag = [basis[i][i] for i in range(dim)]
        proj = []
        for row in proj_q:
            if not row:
                proj.append([0] * dim)
                continue
            w = [0] * dim
            for j, c in row.items():
                w[j] = int(c * den)
            x = [0] * dim
            for i in range(dim):
                if w[i] == 0:
                    continue
                q, r = divmod(w[i], diag[i])
                assert r == 0, "projection outside integral lattice"
                if q:
                    x[i] = q
                    for j in range(i, dim):
                        w[j] -= q * basis[i][j]
            assert not any(w)
            proj.append(x)
        self.proj = proj
