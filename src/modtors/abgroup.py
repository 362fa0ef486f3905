"""Finite abelian groups as invariant-factor lists.

The canonical form everywhere is the ascending divisibility chain
n1 | n2 | ... | nr with every ni >= 2; the empty list is the trivial group.
"""

from math import prod

from .arith import factorint


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
