"""Weight-2 Manin-symbol presentations, solved on a graph.

Symbols are indexed by H+- orbits of unit pairs (c, d) mod N.  The two-term
relations x + x.sigma = 0 are folded away first: a symbol fixed by sigma is
0, and each other pair {v, sigma v}, v < sigma v, leaves one variable v with
x_(sigma v) = -x_v.  The three-term relations x + x.tau + x.tau^2 = 0, one
per tau-orbit, then form a directed graph (Stein, *Modular Forms: A
Computational Approach*, ch. 3; Schrijver, *Theory of Linear and Integer
Programming*, ch. 19-21):

- the vertices are the tau-orbits of symbols;
- variable v is an edge from the orbit of v, where it enters the relation
  with +1, to the orbit of sigma v, where it enters with -1; when both lie
  in one orbit the two cancel and the edge is a loop;
- the relation of an orbit is then its row of the incidence matrix.  A
  tau-fixed symbol gives 3 x = 0, which over Q is x = 0: a vertex with one
  edge.

A solution of the relations, a vector on the variables that every relation
maps to 0, is therefore an integer cycle of the graph.  `forest_cycles`
grows a spanning forest over the variables in ascending order; its chords
are the free symbols.  The fundamental cycle of chord c is +1 at c and +-1
along the forest path between its ends, and c lies in no other one, so
these cycles are a Z-basis of the solutions.  The symbol lattice is the
quotient of Z^variables by the vertex rows, which are exactly the vectors
orthogonal to every cycle, so it is Z^chords: the coordinates of variable
e on the free symbols are column e of the chord-by-variable cycle matrix.
`proj` is that matrix transposed, and its entries are in {-1, 0, 1}.
"""

from itertools import chain

import numpy as np


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


def forest_cycles(edges, order, nvertices):
    """The chords of a spanning forest of the directed graph with edges[e] =
    (head, tail), and their fundamental cycles.

    The forest grows by union-find over the edges in the given order; an
    edge whose ends it already joins is a chord.  Returns [(chord, cycle)]
    in scan order, cycle the (edge, sign) list of the chord's fundamental
    cycle x, which has x @ incidence = 0 for incidence[e] = (head) - (tail):
    (chord, 1), and the steps of the forest path from the chord's head back
    to its tail, with sign +1 where the path runs from an edge's tail to its
    head.  A loop is a chord whose cycle is itself.
    """
    root = list(range(nvertices))

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    forest = [[] for _ in range(nvertices)]  # (neighbour, edge)
    chords = []
    for e in order:
        head, tail = edges[e]
        a, b = find(head), find(tail)
        if a == b:
            chords.append(e)
        else:
            root[a] = b
            forest[head].append((tail, e))
            forest[tail].append((head, e))

    # root each tree; the step v -> parent[v] along the forest edge e is
    # climb[v] = (e, +-1), and the step back is descend[v] = (e, -+1)
    parent = [-1] * nvertices
    depth = [-1] * nvertices
    climb = [None] * nvertices
    descend = [None] * nvertices
    for r in range(nvertices):
        if depth[r] >= 0:
            continue
        depth[r] = 0
        stack = [r]
        while stack:
            v = stack.pop()
            for w, e in forest[v]:
                if depth[w] < 0:
                    parent[w], depth[w] = v, depth[v] + 1
                    s = 1 if edges[e][1] == w else -1
                    climb[w], descend[w] = (e, s), (e, -s)
                    stack.append(w)

    out = []
    for c in chords:
        a, b = edges[c]
        cycle = [(c, 1)]
        while a != b:  # walk both ends up to where they meet
            if depth[a] >= depth[b]:
                cycle.append(climb[a])
                a = parent[a]
            else:
                cycle.append(descend[b])
                b = parent[b]
        out.append((c, cycle))
    return out


def solve_presentation(gd):
    """Solve the presentation of the weight-2 modular symbol space.

    Returns (free, proj): free lists the symbol ids of the free symbols, a
    Z-basis of the symbol lattice, ascending; proj is the nsym x len(free)
    int64 array whose row i is the coordinate vector of symbol i on that
    basis, with entries in {-1, 0, 1}.
    """
    n = gd.level
    rep, sign, _ = sigma_pairing(gd)
    orbit = [-1] * gd.nsym  # the tau-orbit of each symbol: the vertices
    norbits = 0
    for i, (c, d) in enumerate(gd.symbols):
        if orbit[i] < 0:
            j = gd.pair_orbit[(d % n, (-c - d) % n)]
            cj, dj = gd.symbols[j]
            k = gd.pair_orbit[(dj % n, (-cj - dj) % n)]
            orbit[i] = orbit[j] = orbit[k] = norbits
            norbits += 1
    partner = {rep[i]: i for i in range(gd.nsym) if sign[i] < 0}  # v -> sigma v
    variables = sorted(partner)
    edges = [(orbit[v], orbit[partner[v]]) for v in variables]
    cycles = forest_cycles(edges, range(len(edges)), norbits)
    free = [variables[c] for c, _ in cycles]

    # proj[i] = sign[i] proj[rep[i]], and the row of a variable is its
    # column of the cycle matrix: +-1 at each chord whose cycle passes it
    ends = np.array([(v, partner[v]) for v in variables], dtype=np.int64).reshape(-1, 2)
    steps = np.fromiter(chain.from_iterable(chain.from_iterable(c for _, c in cycles)),
                        dtype=np.int64).reshape(-1, 2)
    col = np.repeat(np.arange(len(cycles)), [len(cycle) for _, cycle in cycles])
    proj = np.zeros((gd.nsym, len(free)), dtype=np.int64)
    proj[ends[steps[:, 0], 0], col] = steps[:, 1]
    proj[ends[steps[:, 0], 1], col] = -steps[:, 1]  # sign[sigma v] = -1
    return free, proj
