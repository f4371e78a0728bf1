"""Desk-scale finite groups that the oracle, group and acceptance suites share."""

from residua.elements import Group
from residua.groups import (
    make_alternating,
    make_cyclic,
    make_perm,
    make_symmetric,
    perm_from_cycles,
)


def make_klein_four() -> Group:
    return make_perm(
        4,
        [perm_from_cycles(4, [(0, 1), (2, 3)]), perm_from_cycles(4, [(0, 2), (1, 3)])],
    )


def make_dihedral_8() -> Group:
    """Dihedral group of order 8, as symmetries of a square."""
    return make_perm(
        4,
        [perm_from_cycles(4, [(0, 1, 2, 3)]), perm_from_cycles(4, [(0, 2)])],
    )


def finite_fixtures() -> list[tuple[str, Group]]:
    """Twelve finite groups (orders 1..24) used across the oracle suites."""
    return [
        ("trivial", make_cyclic(1)),
        ("C2", make_cyclic(2)),
        ("C3", make_cyclic(3)),
        ("C4", make_cyclic(4)),
        ("C5", make_cyclic(5)),
        ("C6", make_cyclic(6)),
        ("C7", make_cyclic(7)),
        ("V4", make_klein_four()),
        ("S3", make_symmetric(3)),
        ("D8", make_dihedral_8()),
        ("A4", make_alternating(4)),
        ("S4", make_symmetric(4)),
    ]
