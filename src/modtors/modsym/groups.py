"""Congruence subgroups Gamma0(N), Gamma1(N), Gamma_H(N): coset combinatorics.

A group is specified by its level and a subgroup H of (Z/N)^*; cosets of
+-Gamma_H in PSL2(Z) are unit row vectors (c, d) mod N up to scaling by
H+- = H union -H, and everything downstream (Manin symbols, cusp classes,
widths, elliptic points, genus) is bookkeeping on those orbits.
"""

from dataclasses import dataclass
from math import gcd, prod

from ..arith import factorint, orbits
from ..intlinalg import xgcd


@dataclass(frozen=True)
class GroupSpec:
    """A congruence subgroup between Gamma1(N) and Gamma0(N)."""

    kind: str  # "gamma0" | "gamma1" | "gammaH"
    level: int
    h_gens: tuple = ()

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("level must be >= 1")
        if self.kind not in ("gamma0", "gamma1", "gammaH"):
            raise ValueError(f"unknown kind {self.kind!r}")
        for g in self.h_gens:
            if gcd(g, self.level) != 1:
                raise ValueError(f"H generator {g} is not a unit mod {self.level}")

    @classmethod
    def gamma0(cls, n):
        return cls("gamma0", n)

    @classmethod
    def gamma1(cls, n):
        return cls("gamma1", n)

    @classmethod
    def gammaH(cls, n, gens):
        return cls("gammaH", n, tuple(sorted(set(g % n for g in gens))))

    @classmethod
    def x1_2_2n(cls, n):
        """The group whose curve is X1(2, 2n): Gamma_Delta(4n) with
        Delta = {+-1, +-(2n+1)} inside (Z/4n)^*."""
        level = 4 * n
        return cls.gammaH(level, (level - 1, 2 * n + 1))

    def label(self):
        if self.kind == "gamma0":
            return f"Gamma0({self.level})"
        if self.kind == "gamma1":
            return f"Gamma1({self.level})"
        return f"GammaH({self.level};{','.join(map(str, self.h_gens))})"

    def h_subgroup(self):
        """Elements of H itself (generated by h_gens; trivial for gamma1)."""
        n = self.level
        if self.kind == "gamma0":
            return sorted(a for a in range(1, n) if gcd(a, n) == 1) or [0]
        if self.kind == "gamma1":
            return [1 % n]
        return sorted(orbits([1 % n], [lambda x, g=g: x * g % n for g in self.h_gens])[0])

    def hplus(self):
        """H together with -H (scaling stabilizer of weight-2 symbols)."""
        n = self.level
        h = set(self.h_subgroup())
        h |= {(-x) % n for x in h}
        return sorted(h)

    def sl2_index(self):
        """[SL2(Z) : Gamma_H(N)] = #unit pairs / |H|."""
        return num_unit_pairs(self.level) // len(self.h_subgroup())


def num_unit_pairs(n):
    """#{(c, d) in (Z/n)^2 : gcd(c, d, n) = 1} = n^2 prod (1 - p^-2)."""
    return prod(p ** (2 * e - 2) * (p * p - 1) for p, e in factorint(n).items())


class GroupData:
    """Enumerated coset data for a GroupSpec: symbols, cusps, genus."""

    def __init__(self, spec):
        self.spec = spec
        n = spec.level
        self.level = n
        hplus = spec.hplus()
        self.hplus_list = hplus

        # canonical representative of the H+- orbit of each unit pair
        pair_orbit = {}
        symbols = []
        for c in range(n):
            for d in range(n):
                if gcd(gcd(c, d), n) != 1:
                    continue
                if (c, d) in pair_orbit:
                    continue
                orbit = sorted((u * c % n, u * d % n) for u in hplus)
                rep = orbit[0]
                idx = len(symbols)
                symbols.append(rep)
                for pt in orbit:
                    pair_orbit[pt] = idx
        self.symbols = symbols
        self.pair_orbit = pair_orbit
        self.nsym = len(symbols)

        # cusp classes: orbits of (c, d mod gcd(c, N)) under H+-
        self.cusp_classes = []
        self._cusp_index = {}
        for c, d in symbols:
            key = self.cusp_key(c, d)
            if key not in self._cusp_index:
                self._cusp_index[key] = len(self.cusp_classes)
                self.cusp_classes.append(key)
        self.ncusps = len(self.cusp_classes)

        # elliptic point counts from fixed symbols of the order-4/order-6
        # rotations sigma: (c,d) -> (d,-c) and tau: (c,d) -> (d,-c-d)
        self.nu2 = sum(
            1 for i, (c, d) in enumerate(symbols)
            if pair_orbit[(d % n, (-c) % n)] == i
        )
        self.nu3 = sum(
            1 for i, (c, d) in enumerate(symbols)
            if pair_orbit[(d % n, (-c - d) % n)] == i
        )
        if n == 1:
            self.nu2, self.nu3 = 1, 1

    def cusp_key(self, c, d):
        """Canonical cusp class of the coset with bottom row (c, d)."""
        n = self.level
        c %= n
        d %= n
        g = gcd(c, n)
        best = None
        for u in self.hplus_list:
            cc = u * c % n
            dd = u * d % g if g > 1 else 0
            if best is None or (cc, dd) < best:
                best = (cc, dd)
        return best

    def cusp_index_of_fraction(self, a, c):
        """Cusp class index of the cusp a/c (c = 0 means infinity)."""
        if c < 0:
            a, c = -a, -c
        g = gcd(abs(a), c) if c else abs(a)
        if g > 1:
            a, c = a // g, c // g
        if c == 0:
            return self._cusp_index[self.cusp_key(0, a)]  # a = +-1
        # find d with a d = 1 mod c; bottom row of a matrix [a, b; c, d]
        _, d, _ = xgcd(a, c)
        return self._cusp_index[self.cusp_key(c, d)]

    def cusp_width(self, class_index):
        """Width of a cusp class: least h with the T^h-conjugate in +-Gamma_H."""
        n = self.level
        a, _, c0, _ = sl2_lift(*self.cusp_classes[class_index], n)
        # gamma T^h gamma^-1 = [1 - a c0 h, a^2 h; -c0^2 h, 1 + a c0 h]
        h0 = n // gcd(c0 * c0, n)
        hset = set(self.hplus_list)
        h = h0
        for _ in range(len(self.hplus_list) + 1):
            if (1 - a * c0 * h) % n in hset:
                return h
            h += h0
        raise ArithmeticError("width search failed")

    def genus(self):
        """Genus via the standard area/elliptic-point formula."""
        mu = self.nsym  # PSL2(Z)-index of +-Gamma_H
        if self.level == 1:
            return 0
        twelve_g = 12 + mu - 3 * self.nu2 - 4 * self.nu3 - 6 * self.ncusps
        if twelve_g % 12:
            raise ArithmeticError(f"12 g = {twelve_g} is not a multiple of 12")
        return twelve_g // 12


def lift_to_coprime(c, d, n):
    """Lift (c, d) mod n with gcd(c, d, n) = 1 to coprime integers."""
    if n == 1:
        return 0, 1
    c %= n
    d %= n
    if gcd(c, d) == 1:
        return c, d
    if c == 0:
        return n, d  # d is a unit mod n, so gcd(n, d) = 1
    # adjust d by multiples of n until coprime with c (possible since
    # gcd(c, d, n) = 1)
    dd = d
    while gcd(c, dd) != 1:
        dd += n
    return c, dd


def sl2_lift(c, d, n):
    """An SL2(Z) matrix [a, b; c0, d0] with (c0, d0) = (c, d) mod n."""
    c0, d0 = lift_to_coprime(c, d, n)
    g, a, negb = xgcd(d0, c0)
    if g != 1:
        raise ArithmeticError(f"lift ({c0}, {d0}) of ({c}, {d}) mod {n} is not coprime")
    return a, -negb, c0, d0
