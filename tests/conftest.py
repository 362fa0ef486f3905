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


def orbit_partition(perms, n):
    """The orbit label of each of 0..n-1 under the permutations perms, by
    a breadth-first walk per orbit, orbits numbered by their least point:
    the former walk of `jacobian`, kept as an oracle of `arith.orbits`."""
    label = [None] * n
    nxt = 0
    for start in range(n):
        if label[start] is not None:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for p in perms:
                y = p[x]
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        for x in orbit:
            label[x] = nxt
        nxt += 1
    return label


# The former folds of Lattice.preimage behind the Hecke bound M_H and the
# cuspidal class lattices, kept as the oracles of intlinalg.kernel_mod.


def kernel_lattice_fold(space, primes):
    """M_H as (1/m) Z^(2g) pulled back to Z^(2g) under each A_q and under
    star - 1, m the gcd of the det A_q."""
    from modtors import jacobian
    from modtors.intlinalg import det_bareiss, identity
    from modtors.lattice import Lattice
    from modtors.modsym import restrict_to_lattice

    ops = [jacobian.frobenius_kill_operator(space, q) for q in primes]
    star = restrict_to_lattice(space.star_matrix(), space.cuspidal)
    for i, row in enumerate(star):
        row[i] -= 1
    std = Lattice(space.cuspidal.rank, identity(space.cuspidal.rank), normalize=False)
    lat = Lattice(std.ambient, std.basis, gcd(*map(det_bareiss, ops)))
    for a in ops + [star]:
        lat = lat.preimage(a, std)
    return lat


def class_lattice_folds(space):
    """(principal divisors, divisors with Galois-invariant class) in the
    divisor coordinates of `cuspidal_class_group`."""
    from modtors import jacobian
    from modtors.intlinalg import identity
    from modtors.lattice import Lattice

    proj = jacobian._projector(space)
    c, g2 = len(proj.phi) + 1, len(proj.phi[0])
    target = Lattice(g2, [[proj.den if i == j else 0 for j in range(g2)] for i in range(g2)])
    l_prin = Lattice(c - 1, identity(c - 1), normalize=False).preimage(proj.phi, target)
    lam_div = Lattice(c - 1, identity(c - 1), normalize=False)
    for s in jacobian.unit_group_gens(space.level):
        perm = jacobian.galois_cusp_permutation(space, s)
        lam_div = lam_div.preimage(_perm_minus_one_matrix(perm, c), l_prin)
    return l_prin, lam_div


def _perm_minus_one_matrix(perm, c):
    """(P_sigma - 1) on Div^0 in the d_i = e_i - e_{c-1} coordinates."""
    out = [[0] * (c - 1) for _ in range(c - 1)]
    last = perm[c - 1]
    for i in range(c - 1):
        j = perm[i]
        if j < c - 1:
            out[i][j] += 1
        if last < c - 1:
            out[i][last] -= 1
        out[i][i] -= 1
    return out
