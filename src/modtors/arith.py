"""Integer and polynomial arithmetic: primes, factorisation, units mod n,
and monic polynomials over F_p and over Z.

Polynomials are coefficient lists, constant term first, with no trailing
zero (the zero polynomial is []).  A modulus p selects arithmetic over
F_p, with coefficients in [0, p); p=None is arithmetic over Z, or over Q
where a leading coefficient is inverted.
"""

from fractions import Fraction
from itertools import combinations, count, zip_longest
from math import gcd, isqrt, prod

# Miller-Rabin on the first 13 primes as bases is exact below PSI_13, the
# least strong pseudoprime to all of them; above it a strong Lucas test
# makes the test Baillie-PSW.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981
# factorint divides by every integer below this before Pollard-Brent.
_TRIAL = 1 << 10


def isprime(n):
    """Primality of an integer: exact below PSI_13, Baillie-PSW above."""
    n = int(n)
    if n < 2:
        return False
    for a in _BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < PSI_13 or _strong_lucas(n)


def _jacobi(a, n):
    """Jacobi symbol (a/n) for odd n > 0."""
    a, t = a % n, 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                t = -t
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _strong_lucas(n):
    """Strong Lucas probable-prime test with Selfridge's parameters, for
    odd n without a factor below 42."""
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False
        D = -D - 2 if D > 0 else -D + 2
    P, Q = 1, (1 - D) // 4
    d, s = n + 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1

    def half(v):
        return ((v + n if v & 1 else v) >> 1) % n

    U, V, Qk = 1, P, Q % n  # U_k, V_k, Q^k at k = 1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(P * U + V), half(D * U + P * V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def nextprime(n):
    """The least prime above n."""
    return next(m for m in count(int(n) + 1) if isprime(m))


def factorint(n):
    """{prime: exponent} of an integer n >= 1, primes in increasing order."""
    n = int(n)
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out = {}
    q = 2
    while q < _TRIAL and q * q <= n:
        while n % q == 0:
            n //= q
            out[q] = out.get(q, 0) + 1
        q += 1
    stack = [(n, 1)]
    while stack:
        m, e = stack.pop()
        if m == 1:
            continue
        if m < _TRIAL**2 or isprime(m):
            out[m] = out.get(m, 0) + e
            continue
        r = isqrt(m)
        if r * r == m:
            stack.append((r, 2 * e))
        else:
            d = _pollard_brent(m)
            stack += [(d, e), (m // d, e)]
    return dict(sorted(out.items()))


def _pollard_brent(n):
    """A proper divisor of a composite n that is not a square (Brent's
    variant of Pollard rho, products of 128 differences per gcd)."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def totient(n):
    return prod((p - 1) * p ** (e - 1) for p, e in factorint(n).items())


def mobius(n):
    fac = factorint(n)
    return 0 if any(e > 1 for e in fac.values()) else (-1) ** len(fac)


def primitive_root(n):
    """The least primitive root modulo an odd prime power n."""
    fac = factorint(n)
    if len(fac) != 1 or 2 in fac:
        raise ValueError(f"{n} is not an odd prime power")
    (p, e), = fac.items()
    phi = (p - 1) * p ** (e - 1)
    qs = list(factorint(phi))
    return next(g for g in count(2)
                if g % p and all(pow(g, phi // q, n) != 1 for q in qs))


def orbits(points, moves):
    """The orbits of points under the group that moves generate, each move
    a permutation of a finite set holding them: one list per orbit, from
    its first point on, in the order of points."""
    seen, out = set(), []
    for start in points:
        if start not in seen:
            seen.add(start)
            orbit = [start]
            for x in orbit:  # the walk reads the list it appends to
                for move in moves:
                    if (y := move(x)) not in seen:
                        seen.add(y)
                        orbit.append(y)
            out.append(orbit)
    return out


def _trim(f, p=None):
    f = [c % p for c in f] if p else list(f)
    while f and not f[-1]:
        f.pop()
    return f


def poly_addmul(f, c, g, p=None):
    """f + c g."""
    return _trim([a + c * b for a, b in zip_longest(f, g, fillvalue=0)], p)


def poly_mul(f, g, p=None):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _trim(out, p)


def poly_divmod(f, g, p=None):
    """(quotient, remainder) of f by a monic g."""
    r, dg = list(f), len(g) - 1
    q = [0] * max(len(r) - dg, 0)
    for i in reversed(range(len(q))):
        c = r[i + dg] % p if p else r[i + dg]
        if c:
            q[i] = c
            for j in range(dg):
                r[i + j] -= c * g[j]
    return _trim(q), _trim(r[:dg], p)  # q is reduced already


def poly_mulmod(f, g, m, p):
    """f g modulo a monic m over F_p."""
    return poly_divmod(poly_mul(f, g), m, p)[1]


def _powmod(f, e, m, p):
    out = [1]
    while e:
        if e & 1:
            out = poly_mulmod(out, f, m, p)
        e >>= 1
        if e:
            f = poly_mulmod(f, f, m, p)
    return out


def _monic(f, p=None):
    inv = pow(f[-1], -1, p) if p else Fraction(1, f[-1])
    return _trim([c * inv for c in f], p)


def poly_gcd(f, g, p=None):
    """Monic gcd over F_p, or over Q for p=None (with Fraction
    coefficients, integers when a monic integer f is given)."""
    f, g = _trim(f, p), _trim(g, p)
    while g:
        f, g = g, poly_divmod(f, _monic(g, p), p)[1]
    return _monic(f, p) if f else []


def lcm_mod_p(f, g, p):
    """Monic lcm of monic f, g over F_p."""
    return poly_divmod(poly_mul(f, g, p), poly_gcd(f, g, p), p)[0]


def is_irreducible_mod_p(f, p):
    """Irreducibility of a monic f over F_p (Ben-Or): gcd(f, x^(p^i) - x)
    = 1 for every i <= deg f / 2, so a small factor ends the test early."""
    h = [0, 1]
    for _ in range((len(f) - 1) // 2):
        h = _powmod(h, p, f, p)
        if len(poly_gcd(f, poly_addmul(h, -1, [0, 1], p), p)) > 1:
            return False
    return True


def factor_mod_p(f, p):
    """Monic irreducible factors of a monic square-free f over F_p, p odd
    (Cantor-Zassenhaus: distinct-degree, then equal-degree splitting)."""
    out, h, d = [], [0, 1], 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _powmod(h, p, f, p)
        g = poly_gcd(f, poly_addmul(h, -1, [0, 1], p), p)
        if len(g) > 1:
            out += _split_equal_degree(g, d, p)
            f = poly_divmod(f, g, p)[0]
            h = poly_divmod(h, f, p)[1]
    return out + [f] if len(f) > 1 else out


def _split_equal_degree(g, d, p):
    """Factors of g, a product of distinct monic irreducibles of degree d.
    The splitting polynomials a run through the base-p digit lists of
    p, p + 1, ..., so the split is deterministic."""
    if len(g) - 1 == d:
        return [g]
    e = (p**d - 1) // 2
    for k in count(p):
        a = []
        while k:
            k, c = divmod(k, p)
            a.append(c)
        u = poly_gcd(g, poly_addmul(_powmod(a, e, g, p), -1, [1], p), p)
        if 1 < len(u) < len(g):
            rest = poly_divmod(g, u, p)[0]
            return _split_equal_degree(u, d, p) + _split_equal_degree(rest, d, p)


def _derivative(f):
    return [i * c for i, c in enumerate(f)][1:]


def _inverse_mod(h, g, p):
    """h^-1 modulo a monic g over F_p, for h prime to g."""
    r0, r1, t0, t1 = g, poly_divmod(h, g, p)[1], [], [1]
    while r1:
        inv = pow(r1[-1], -1, p)
        q, r = poly_divmod(r0, _trim([c * inv for c in r1], p), p)
        r0, r1 = r1, r
        t0, t1 = t1, poly_addmul(t0, -inv, poly_mul(q, t1), p)
    return _trim([c * pow(r0[0], -1, p) for c in t0], p)


def _hensel_lift(f, g, p, k):
    """The monic factor mod p^k of a monic f over Z that is g mod p, for
    a monic g with g and f/g coprime mod p (linear Hensel lifting)."""
    h = poly_divmod(f, g, p)[0]
    t = _inverse_mod(h, g, p)
    for j in range(1, k):
        pj = p**j
        e = [c // pj for c in poly_addmul(f, -1, poly_mul(g, h), pj * p)]
        dg = poly_divmod(poly_mul(t, e), g, p)[1]
        dh = poly_divmod(poly_addmul(e, -1, poly_mul(dg, h), p), g, p)[0]
        g, h = poly_addmul(g, pj, dg), poly_addmul(h, pj, dh)
    return g


def _factor_squarefree(f):
    """Irreducible factors over Z of a monic square-free f: factors mod the
    least odd prime p that keeps f square-free, lifted to p^k above twice
    the Mignotte bound, then recombined by subsets of increasing size."""
    if len(f) <= 2:
        return [f]
    df = _derivative(f)
    p = next(p for p in count(3) if isprime(p) and len(poly_gcd(f, df, p)) == 1)
    lifted = factor_mod_p(_trim(f, p), p)
    if len(lifted) == 1:
        return [f]
    bound = 2 ** (len(f) - 1) * (isqrt(sum(c * c for c in f)) + 1)
    k = next(k for k in count(1) if p**k > 2 * bound)
    pk = p**k
    lifted = [_hensel_lift(f, g, p, k) for g in lifted]
    out, s = [], 1
    while 2 * s <= len(lifted):
        for subset in combinations(range(len(lifted)), s):
            g = [1]
            for i in subset:
                g = poly_mul(g, lifted[i], pk)
            g = [c - pk if 2 * c > pk else c for c in g]
            q, r = poly_divmod(f, g)
            if not r:
                out.append(g)
                f = q
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            s += 1
    return out + [f]


def factor_monic(f):
    """Irreducible factorisation of a monic f over Z: (factor, multiplicity)
    pairs sorted by degree, then multiplicity, then coefficients from the
    top.  Square-free parts by Yun's algorithm."""
    f = _trim(f)
    df = _derivative(f)
    a = [int(c) for c in poly_gcd(f, df)]
    b, c = poly_divmod(f, a)[0], poly_divmod(df, a)[0]
    out, i = [], 1
    while len(b) > 1:
        d = poly_addmul(c, -1, _derivative(b))
        a = [int(x) for x in poly_gcd(b, d)]
        out += [(g, i) for g in _factor_squarefree(a)] if len(a) > 1 else []
        b, c, i = poly_divmod(b, a)[0], poly_divmod(d, a)[0], i + 1
    return sorted(out, key=lambda fm: (len(fm[0]), fm[1], fm[0][::-1]))

