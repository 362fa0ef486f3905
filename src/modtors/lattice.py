"""Lattices in Q^n: finitely generated subgroups of Q^n of full or partial rank.

A Lattice is stored as an integer basis matrix over a positive denominator,
normalized to row Hermite form, so equal lattices compare equal.  The pivot
column of each basis row is found once, when the lattice is built.  The
torsion layer's finite groups are kernels mod m instead (see `jacobian`):
`intersect`, `sum`, `contains_lattice`, `preimage` and
`lattice_torsion_quotient` are read only by the benchmark and the tests.
"""

from math import gcd, lcm

from .abgroup import FinAbGroup
from .intlinalg import (
    _hermite,
    elementary_divisors,
    exact_product,
    identity,
    int_rows,
    kernel_basis,
    transpose,
    vec_gcd,
)


class Lattice:
    """Subgroup of Q^n spanned by basis rows / den, in Hermite normal form.
    The rows (an integer array or row lists) are read once into row lists
    of Python ints."""

    __slots__ = ("ambient", "basis", "den", "pivots")

    def __init__(self, ambient, rows, den=1, normalize=True):
        if den <= 0:
            raise ValueError("denominator must be positive")
        self.ambient = ambient
        rows = int_rows(rows)
        if normalize:
            rows = [r for r in rows if any(r)]
            h = _hermite(rows, False, 0) if rows else []
            g = den
            for r in h:
                g = gcd(g, vec_gcd(r))
            if g > 1:
                h = [[x // g for x in r] for r in h]
                den //= g
        else:
            h = rows
        self.basis = h
        self.den = den
        # first nonzero column of each row (None for a zero row)
        self.pivots = [next((k for k, x in enumerate(r) if x), None) for r in h]

    @classmethod
    def from_rows(cls, rows, ambient=None, den=1):
        if ambient is None:
            ambient = len(rows[0]) if rows else 0
        return cls(ambient, rows, den)

    @property
    def rank(self):
        return len(self.basis)

    def __eq__(self, other):
        return (
            isinstance(other, Lattice)
            and self.ambient == other.ambient
            and self.den == other.den
            and self.basis == other.basis
        )

    def __repr__(self):
        return f"Lattice(rank {self.rank} in Q^{self.ambient}, den {self.den})"

    def contains(self, vec, den=1):
        """Membership of the rational vector vec/den."""
        return self.solve(vec, den) is not None

    def contains_lattice(self, other):
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        return all(self.contains(r, other.den) for r in other.basis)

    def sum(self, other):
        """Lattice sum self + other."""
        d = lcm(self.den, other.den)
        rows = [[x * (d // self.den) for x in r] for r in self.basis]
        rows += [[x * (d // other.den) for x in r] for r in other.basis]
        return Lattice(self.ambient, rows, d)

    def intersect(self, other):
        """Lattice intersection."""
        d = lcm(self.den, other.den)
        a = [[x * (d // self.den) for x in r] for r in self.basis]
        b = [[x * (d // other.den) for x in r] for r in other.basis]
        if not a or not b:
            return Lattice(self.ambient, [], 1)
        # x a = y b ; kernel of [a; -b] stacked gives coefficient pairs
        stacked = a + [[-x for x in r] for r in b]
        ker = kernel_basis(transpose(stacked))
        rows = exact_product([k[: len(a)] for k in ker], a) if ker else []
        return Lattice(self.ambient, rows, d)

    def preimage(self, op, target):
        """{v in self : v @ op in target} for an integer matrix op (row action).

        op maps Q^ambient -> Q^m by v |-> v @ op; target is a Lattice in Q^m.
        Returns the sublattice of self mapping into target.
        """
        if not self.basis:
            return self
        imgs = exact_product(self.basis, op).tolist()
        tb, td = target.basis, target.den
        # condition: sum x_i imgs_i / self.den  in  span(tb)/td
        # i.e. td * sum x_i imgs_i = self.den * (y @ tb): integer solve
        stacked = [[x * td for x in img] for img in imgs]
        stacked += [[-x * self.den for x in r] for r in tb]
        ker = kernel_basis(transpose(stacked))
        rows = exact_product([k[: len(imgs)] for k in ker], self.basis) if ker else []
        return Lattice(self.ambient, rows, self.den)

    def solve(self, vec, den=1):
        """Integer coordinates x with x @ basis = vec * self.den/den, or None.

        Uses the stored Hermite form and its cached pivots (ascending), so
        each call is a single back-substitution pass.  Each basis row is
        zero before its pivot, so it is subtracted from the pivot on.
        """
        t = [x * self.den for x in vec]
        if any(x % den for x in t):
            return None
        t = [x // den for x in t]
        x = [0] * len(self.basis)
        for i, (row, j) in enumerate(zip(self.basis, self.pivots)):
            if j is None:
                continue
            q, r = divmod(t[j], row[j])
            if r:
                return None
            if q:
                x[i] = q
                t[j:] = [a - q * b for a, b in zip(t[j:], row[j:])]
        if any(t):
            return None
        return x

    def saturation(self):
        """Smallest saturated lattice containing self (same Q-span)."""
        if not self.basis:
            return self
        ker = kernel_basis(self.basis)  # {x : basis @ x = 0}
        if not ker:
            return Lattice(self.ambient, identity(self.ambient), 1)
        sat = kernel_basis(ker)  # {v : ker @ v = 0}, saturated by construction
        return Lattice(self.ambient, sat, 1)

    def torsion_quotient_in(self, other):
        """Invariant factors of other/self as FinAbGroup.

        Requires span(self) = span(other) over Q (else the quotient is
        infinite and a ValueError is raised).
        """
        if self.rank != other.rank:
            raise ValueError("not commensurable: ranks differ")
        coords = []
        for r in self.basis:
            x = other.solve(r, self.den)
            if x is None:
                raise ValueError("not commensurable: sublattice not contained")
            coords.append(x)
        if not coords:
            return FinAbGroup([])
        return FinAbGroup(elementary_divisors(coords))


def lattice_torsion_quotient(sub, over):
    """Invariant factors of over/sub for commensurable lattices."""
    return sub.torsion_quotient_in(over)
