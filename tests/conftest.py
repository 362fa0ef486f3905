from math import gcd

from sympy import divisors, totient


def curve11_ap(p):
    """a_p of the level-11 elliptic curve y^2 + y = x^3 - x^2 - 10x - 20
    by direct point counting over F_p."""
    count = 1  # infinity
    for x in range(p):
        for y in range(p):
            if (y * y + y - (x**3 - x * x - 10 * x - 20)) % p == 0:
                count += 1
    return p + 1 - count


def cusp_count_X1(N):
    """Number of geometric cusps of X1(N) by the standard formula (N >= 5)."""
    if N < 5:
        raise ValueError("formula stated for N >= 5")
    return sum(int(totient(d)) * int(totient(N // d)) for d in divisors(N)) // 2


def cusp_count_X0(N):
    """Number of cusps of X0(N): sum over d | N of phi(gcd(d, N/d))."""
    return sum(int(totient(gcd(d, N // d))) for d in divisors(N))
