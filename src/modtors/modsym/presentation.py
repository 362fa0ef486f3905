"""Weight-2 Manin-symbol presentations: relations and their elimination.

Symbols are indexed by H+- orbits of unit pairs (c, d) mod N.  The two-term
relations x + x.sigma = 0 are folded away first; the remaining three-term
relations x + x.tau + x.tau^2 = 0 are solved by sparse Gaussian elimination
over Z with Markowitz-style pivoting.

Every pivot of that elimination is +-1, so the free symbols are a Z-basis
of the symbol lattice and every symbol projects to an integer vector on
them.  The reason is total unimodularity (Schrijver, *Theory of Linear and
Integer Programming*, ch. 19-21; Stein, *Modular Forms: A Computational
Approach*, ch. 3):

- the variable of a sigma pair {i, sigma i} enters the tau-row of i with
  sign s and the tau-row of sigma i with sign -s; when both symbols lie in
  one tau-orbit the two entries cancel;
- every other entry is +-1, except the tau-fixed row 3x = 0, which the gcd
  step turns into x = 0;
- so each column holds at most one +1 and one -1: a directed-graph
  incidence matrix, which is totally unimodular;
- negating rows, removing rows and taking the Schur complement on a +-1
  pivot keep total unimodularity, so every pivot met is +-1 again.

`eliminate` raises ArithmeticError at a pivot that is not a unit; by the
argument above that never happens.
"""

import numpy as np

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
    """Sparse elimination over Z with unit pivots.

    rows: list of {var: int}; variables: iterable of all variable ids.
    Returns (free_vars, expressions) where expressions maps each pivot var
    to a {free_var: int} expansion.  Raises ArithmeticError at a pivot
    other than +-1.
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
        # pick the shortest active row; among its entries prefer low
        # column usage
        ridx = min(active, key=lambda r: (len(rows[r]), r))
        row = rows[ridx]
        if not row:
            active.discard(ridx)
            continue
        var = min(row, key=lambda v: (len(col_rows.get(v, ())), v))
        a = row[var]
        if a not in (1, -1):
            raise ArithmeticError(f"pivot {a} on variable {var} is not a unit")
        users = [r for r in col_rows.get(var, ()) if r != ridx and r in active]
        for r in users:
            other = rows[r]
            f = other.pop(var) * a  # other := other - (b / a) * row
            col_rows[var].discard(r)
            for v, c0 in row.items():
                if v == var:
                    continue
                nv = other.get(v, 0) - f * c0
                if nv:
                    if v not in other:
                        col_rows.setdefault(v, set()).add(r)
                    other[v] = nv
                elif v in other:
                    del other[v]
                    col_rows[v].discard(r)
            if not other:
                active.discard(r)
        elim_order.append((var, row))
        pivoted.add(var)
        active.discard(ridx)
        for v in row:
            col_rows.get(v, set()).discard(ridx)

    free = [v for v in variables if v not in pivoted]
    free_set = set(free)

    expressions = {}
    for var, row in reversed(elim_order):
        a = row[var]
        expr = {}
        for v, c0 in row.items():
            if v == var:
                continue
            coef = -c0 * a
            if v in free_set:
                expr[v] = expr.get(v, 0) + coef
            else:
                for w, c1 in expressions[v].items():
                    expr[w] = expr.get(w, 0) + coef * c1
        expressions[var] = {v: c0 for v, c0 in expr.items() if c0}
    return free, expressions


def solve_presentation(gd):
    """Solve the presentation of the weight-2 modular symbol space.

    Returns (free, proj): free lists the symbol ids of the free symbols, a
    Z-basis of the symbol lattice; proj is the nsym x len(free) int64
    array whose row i is the coordinate vector of symbol i on that basis.
    Total unimodularity keeps its entries in {-1, 0, 1}; the int64
    conversion would refuse any entry that does not fit.
    """
    rep, sign, zero = sigma_pairing(gd)
    variables = [i for i in range(gd.nsym) if not zero[i] and rep[i] == i]
    rows = tau_relations(gd, rep, sign, zero)
    free, expressions = eliminate(rows, variables)
    free_pos = {v: k for k, v in enumerate(free)}

    syms, cols, vals = [], [], []  # the nonzero entries of proj
    for i in range(gd.nsym):
        if not zero[i]:
            # a free representative is its own expansion
            expr = expressions.get(rep[i], {rep[i]: 1})
            syms += [i] * len(expr)
            cols += [free_pos[v] for v in expr]
            vals += [sign[i] * c for c in expr.values()]
    proj = np.zeros((gd.nsym, len(free)), dtype=np.int64)
    proj[syms, cols] = vals
    return free, proj
