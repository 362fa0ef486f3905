from .groups import GroupData, GroupSpec
from .operators import (
    atkin_lehner,
    atkin_lehner_cusp_action,
    diamond_operator,
    hecke_operator,
    merel_family,
    restrict_to_lattice,
)
from .space import ModSymSpace, build_space


__all__ = [
    "GroupSpec",
    "GroupData",
    "ModSymSpace",
    "build_space",
    "hecke_operator",
    "diamond_operator",
    "atkin_lehner",
    "atkin_lehner_cusp_action",
    "merel_family",
    "restrict_to_lattice",
]
