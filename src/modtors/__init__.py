"""modtors: exact-arithmetic toolkit for torsion of modular Jacobians.

Modular symbols for Gamma0/Gamma1/GammaH with Hecke, diamond, star and
Atkin-Lehner actions; rank-zero certification of modular Jacobians via the
winding element; local and Hecke torsion bounds; cuspidal class groups;
elliptic-curve scans over small finite fields; and formal-immersion rank
tests at cuspidal divisors.  Everything is exact: integers, rationals and
lattices, never floats.
"""

__version__ = "0.1.0"

from .abgroup import FinAbGroup
from .intlinalg import charpoly, smith_normal_form
from .lattice import Lattice, lattice_torsion_quotient

__all__ = [
    "FinAbGroup",
    "charpoly",
    "smith_normal_form",
    "Lattice",
    "lattice_torsion_quotient",
    "__version__",
]
