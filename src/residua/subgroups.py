"""Finite subgroups as group handles, and the derived subgroup.

A ``SubgroupHandle`` presents an explicit set of a parent group's values
as a group of its own, multiplying in the parent; ``commutator_subgroup``
builds the derived subgroup of a finite group as one.
"""

from __future__ import annotations

import zlib
from typing import Iterable

from .elements import Group, GroupError, InvalidElementError, label_sort_key, mulclose

__all__ = ["SubgroupHandle", "commutator_subgroup"]


class SubgroupHandle(Group):
    """A finite subgroup of a parent group, as its own handle."""

    def __init__(self, parent: Group, values: Iterable, generators: Iterable = ()):
        self.parent = parent
        vals = sorted({parent.validate_value(v) for v in values}, key=label_sort_key)
        self._values = tuple(vals)
        self._value_set = frozenset(vals)
        if parent.identity_value() not in self._value_set:
            raise GroupError("subgroup must contain the identity")
        gens = tuple(parent.validate_value(v) for v in generators)
        self._gens = gens or tuple(v for v in vals if v != parent.identity_value())
        self.is_residually_finite_claimed = True
        self.has_finite_abelianization_claimed = True

    @property
    def tag(self) -> str:
        digest = zlib.crc32(repr(self._values).encode())  # hash() changes with PYTHONHASHSEED
        return f"sub({self.parent.tag};{len(self._values)}:{digest:x})"

    def identity_value(self):
        return self.parent.identity_value()

    def mul_values(self, a, b):
        return self.parent.mul_values(a, b)

    def inv_value(self, a):
        return self.parent.inv_value(a)

    def validate_value(self, v):
        v = self.parent.validate_value(v)
        if v not in self._value_set:
            raise InvalidElementError(f"{v!r} is not in the subgroup")
        return v

    def _compute_order(self):
        return len(self._values)

    def _generator_values(self):
        return self._gens

    def _enumerate_values(self):
        return list(self._values)

    def value_to_jsonable(self, v):
        return self.parent.value_to_jsonable(v)


def commutator_subgroup(g: Group) -> SubgroupHandle:
    """Derived subgroup of a finite group.

    Generated by the commutators of generator pairs, closed under conjugation
    by generators (i.e. the normal closure), then under multiplication.
    """
    if g.order is None:
        raise GroupError(
            f"{g.tag} is infinite; derived subgroups are only computed for finite groups"
        )
    gens = list(g.generators)
    seeds = {g.identity_value()}
    for a in gens:
        for b in gens:
            seeds.add(a.commutator_with(b).value)
    # normal closure under conjugation by generators, then multiplicative closure
    changed = True
    current = set(seeds)
    while changed:
        closed = set(mulclose(sorted(current, key=label_sort_key), g.mul_values))
        conjugated = set(closed)
        for v in closed:
            for a in gens:
                conjugated.add(
                    g.mul_values(g.mul_values(a.value, v), g.inv_value(a.value))
                )
        changed = conjugated != closed
        current = conjugated
    return SubgroupHandle(g, current)
