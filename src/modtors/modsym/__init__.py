from .groups import GroupData, GroupSpec
from .operators import (
    OperatorMatrix,
    atkin_lehner,
    atkin_lehner_cusp_action,
    diamond_operator,
    hecke_operator,
    merel_family,
    restrict_to_lattice,
    star_involution,
)
from .space import ModSymSpace, build_space, clear_space_cache


__all__ = [
    "GroupSpec",
    "GroupData",
    "ModSymSpace",
    "build_space",
    "clear_space_cache",
    "OperatorMatrix",
    "hecke_operator",
    "diamond_operator",
    "star_involution",
    "atkin_lehner",
    "atkin_lehner_cusp_action",
    "merel_family",
    "restrict_to_lattice",
]
