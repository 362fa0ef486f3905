"""Finite abelian groups as invariant-factor lists.

The canonical form everywhere is the ascending divisibility chain
n1 | n2 | ... | nr with every ni >= 2; the empty list is the trivial group.
"""

from math import prod

from .arith import factorint
from .intlinalg import elementary_divisors, hnf


class FinAbGroup:
    """A finite abelian group Z/n1 x ... x Z/nr in invariant-factor form.

    Accepts any list of cyclic orders and normalizes on construction:

    >>> FinAbGroup([6, 4]).invariants
    (2, 12)
    >>> FinAbGroup([]).order()
    1
    """

    __slots__ = ("invariants",)

    def __init__(self, orders):
        by_prime = {}
        for n in orders:
            n = int(n)
            if n == 0:
                raise ValueError("free rank not allowed in FinAbGroup")
            if n < 0:
                n = -n
            if n == 1:
                continue
            for p, e in factorint(n).items():
                by_prime.setdefault(int(p), []).append(int(e))
        invs = []
        for p, exps in by_prime.items():
            exps.sort(reverse=True)
            for i, e in enumerate(exps):
                while len(invs) <= i:
                    invs.append(1)
                invs[i] *= p**e
        invs.sort()
        object.__setattr__(self, "invariants", tuple(invs))

    def __setattr__(self, *a):
        raise AttributeError("FinAbGroup is immutable")

    def order(self):
        return prod(self.invariants)

    def is_trivial(self):
        return not self.invariants

    def _prime_counts(self):
        """dict p -> descending exponent tuple of the p-part cyclic factors."""
        out = {}
        for n in self.invariants:
            for p, e in factorint(n).items():
                out.setdefault(int(p), []).append(int(e))
        return {p: tuple(sorted(v, reverse=True)) for p, v in out.items()}

    def embeds_in(self, other):
        """Whether this group embeds in other.

        For abelian p-groups with exponent tuples a1 >= a2 >= ... and
        b1 >= b2 >= ..., an embedding exists iff ai <= bi for all i; this is
        checked prime by prime.
        """
        mine = self._prime_counts()
        theirs = other._prime_counts()
        for p, exps in mine.items():
            o = theirs.get(p, ())
            if len(exps) > len(o):
                return False
            if any(a > b for a, b in zip(exps, o)):
                return False
        return True

    def __eq__(self, other):
        return isinstance(other, FinAbGroup) and self.invariants == other.invariants

    def __hash__(self):
        return hash(self.invariants)

    def __repr__(self):
        return f"FinAbGroup({list(self.invariants)})"

    def __str__(self):
        if not self.invariants:
            return "[1]"
        return "[" + ", ".join(map(str, self.invariants)) + "]"

    def to_json(self):
        return list(self.invariants)


def cokernel_invariants(m, ambient_rank=None):
    """Invariant factors of Z^ambient / rowspan(m) plus its free rank.

    Returns (FinAbGroup of the torsion part, free_rank).  Callers needing a
    finite answer must reject free_rank > 0.
    """
    rows = [list(r) for r in m]
    ncols = len(rows[0]) if rows else 0
    if ambient_rank is None:
        ambient_rank = ncols
    if ncols != ambient_rank:
        raise ValueError("matrix has wrong number of columns")
    if not rows:
        return FinAbGroup([]), ambient_rank
    divs = elementary_divisors(rows)
    return FinAbGroup(divs), ambient_rank - len(hnf(rows))


def abgroup_gcd(groups):
    """Largest abelian group embedding in every input group.

    Computed per prime: the j-th largest p-exponent of the result is the
    minimum over inputs of their j-th largest p-exponent (subgroup-embedding
    criterion for abelian p-groups).
    """
    groups = list(groups)
    if not groups:
        raise ValueError("empty input")
    counts = [g._prime_counts() for g in groups]
    common = set(counts[0])
    for c in counts[1:]:
        common &= set(c)
    factors = []
    for p in common:
        tuples = [c[p] for c in counts]
        depth = min(len(t) for t in tuples)
        for j in range(depth):
            e = min(t[j] for t in tuples)
            factors.append(p**e)
    return FinAbGroup(factors)
