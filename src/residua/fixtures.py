"""Desk-scale fixture groups and documented non-computable examples."""

from __future__ import annotations

from .elements import Group
from .groups import (
    make_alternating,
    make_cyclic,
    make_perm,
    make_symmetric,
    perm_from_cycles,
)

__all__ = [
    "finite_fixtures",
    "make_klein_four",
    "make_dihedral_8",
    "HIGMAN_PRESENTATION",
    "DOCUMENTED_EXAMPLES",
]


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


# Documentation-only examples.  These groups motivate the depth hierarchy but
# are deliberately not computable objects here: no finitely presented group
# machinery (Todd-Coxeter or otherwise) is built.
HIGMAN_PRESENTATION = (
    "<a,b,c,d | a^-1 b a = b^2, b^-1 c b = c^2, c^-1 d c = d^2, d^-1 a d = a^2>"
)

DOCUMENTED_EXAMPLES = {
    "Higman": {
        "presentation": HIGMAN_PRESENTATION,
        "summary": "infinite, finitely presented, no finite quotients at all;"
        " the intersection of its finite-index subgroups is the whole group,"
        " so no ordinal depth exists",
        "computable": False,
    },
    "Deligne": {
        "summary": "a central extension of integers by a finite-index subgroup"
        " of an integral symplectic group, pulled back to the universal cover;"
        " not residually finite, with the intersection of finite-index"
        " subgroups an index-two subgroup of the central integers; claimed"
        " depth w*2, finitely presented",
        "claimed_depth": "w*2",
        "computable": False,
    },
}
