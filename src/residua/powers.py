"""Chains over finite-support powers, wreath products and wreath towers.

A wreath level's chain concatenates the top chain's pullback with the base
chain lifted to the kernel, a finite-support power of the base: over
countable points coordinatewise (``power_chain``), the i-th point one base
step behind the block's step, and over finite points diagonally
(``diagonal_power_chain``).  Each power stage records how it was built
(``_Power``), and the record says how its row splits against its parent's
into base rows, one per constrained point (``stages._RowChecks``).  This
module alone builds power stages and reads that record.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional

from .chains import ChainSchema, _mapped, concat_extension, promote_to_omega
from .elements import Group
from .groups import (FinitePoints, FinSupportPowerGroup, PointSet, WreathProductGroup,
                     finite_support_power, wreath_product)
from .ordinal import ALEPH0
from .stages import (ChainError, SubgroupDescriptor, Transversal, ValueTest, _LazyRow,
                     _sourced, _value_test)

__all__ = ["power_chain", "diagonal_power_chain", "tower_chain"]


class _Power:
    """How the library built a stage of the finite-support power ``group``:
    ``coords`` pairs points with the base stages that hold their values,
    and ``free`` is the base stage that holds every supported value (none
    for a diagonal stage, which constrains every point)."""

    __slots__ = ("group", "coords", "free")

    def __init__(self, group: Group, coords, free: Optional[SubgroupDescriptor]):
        self.group, self.coords, self.free = group, coords, free

    def split(self, parent: object):
        """``_RowChecks.split`` against the parent's record ``parent``, when
        both are stages of one power with one ``free`` stage: the row of the
        base stage at each point that this stage constrains in the parent's
        there (``free`` where the parent leaves it free), which reads the
        value's (point, value) pairs.  A parent that constrains a point that
        this stage leaves free keeps the row a leaf: no part would read the
        value there, which can break descent through the row's intermediates
        (step 2 under step 3 of the power over Z, 2Z, 2Z, ... with rows of
        index 1)."""
        if (not isinstance(parent, _Power) or parent.group is not self.group
                or parent.free is not self.free):
            return None
        inner, outer = dict(self.coords), dict(parent.coords)
        if not outer.keys() <= inner.keys():
            return None
        return {x: (outer.get(x, self.free), base) for x, base in inner.items()}, tuple


def _coordinatewise_membership(grp: FinSupportPowerGroup, coords,
                               free: Optional[SubgroupDescriptor]) -> ValueTest:
    """Every supported value in ``free`` (when given), and the value at
    each point of ``coords`` (point, base stage) in that stage, tested on
    the (point, value) pairs of the support.  Only the supported points are
    read: every other point holds the identity, which each distinct stage of
    ``coords`` is tested for once, on the first call (a diagonal stage holds
    one stage object at every point, so its points share one value test)."""
    tests = {id(stage): _value_test(stage) for _, stage in coords}
    at = {x: tests[id(stage)] for x, stage in coords}
    in_free = (lambda v: True) if free is None else _value_test(free)
    identity_inside = None

    def member(value) -> bool:
        nonlocal identity_inside
        for x, v in value:
            if not in_free(v):
                return False
            inside = at.get(x)
            if inside is not None and not inside(v):
                return False
        if identity_inside is None:
            one = grp.base.identity_value()
            identity_inside = all(test(one) for test in {id(t): t for t in at.values()}.values())
        return identity_inside

    return ValueTest(member)


def _coordinatewise_stage(grp: FinSupportPowerGroup, coords, parent_coords,
                          free: Optional[SubgroupDescriptor], label: str) -> SubgroupDescriptor:
    """A finite-support power stage with the membership test of ``coords``
    and of ``free``, which holds every supported value (when given).  The
    transversal is the product of the points' ones, and the index is
    infinite when one point's is.  ``parent_coords`` constrains the parent
    stage the same way (points past its end only by ``free``).  The row
    keeps its shape (``_LazyRow``, ``_Power``), and its factors are built
    on their first read: factor j is the base transversal at the j-th point,
    embedded at that point, and the intermediate K_j takes the stage's
    constraints at the first j points and the parent's at the rest, so each
    factor moves one coordinate down one base stage; elements with disjoint
    supports commute.  A base intermediate M of factor j becomes K_(j-1)
    with the j-th point at M."""

    def between(j: int, at_j: list) -> SubgroupDescriptor:
        """The first j points as in the stage, then ``at_j``, then the parent's."""
        return SubgroupDescriptor(
            owner=grp,
            membership=_coordinatewise_membership(
                grp, [*coords[:j], *at_j, *parent_coords[j + 1:]], free),
            label=f"{label}, intermediate",
        )

    def flat() -> Transversal:
        factors = [_mapped(stage, grp.embed_at(x), grp, lambda m, j=j, x=x: between(j, [(x, m)]))
                   for j, (x, stage) in enumerate(coords)]
        return Transversal(factors=factors, intermediates=[between(j, parent_coords[j:j + 1])
                                                           for j in range(1, len(coords))])

    rows = [stage.transversal for _, stage in coords]
    infinite = any(stage.infinite_index for _, stage in coords)
    return _sourced(SubgroupDescriptor(
        owner=grp, membership=_coordinatewise_membership(grp, coords, free),
        infinite_index=infinite,
        transversal=None if infinite or not rows or None in rows
        else _LazyRow(grp, flat, lambda: math.prod(row.size for row in rows)),
        label=label,
    ), _Power(grp, coords, free))


def power_chain(base_chain: ChainSchema, points: PointSet) -> ChainSchema:
    """Chain over the finite-support power of the base, same w*q length.

    Within block b, the stage at w*b + n constrains the value at the i-th
    enumerated point to the base stage w*b + (n - i) for i < n, and every
    supported value to the base stage w*b.  Base chains with a nonzero
    finite tail are rejected: the block construction needs limit-terminated
    input, and padding a finite chain to length w first is the caller's
    explicit, sound choice.
    """
    return _power_chain(base_chain, finite_support_power(base_chain.group, points))


def _power_chain(base_chain: ChainSchema, grp: FinSupportPowerGroup) -> ChainSchema:
    """``power_chain`` over the power group ``grp`` of the base."""
    if base_chain.num_blocks < 1 or base_chain.tail:
        raise ChainError(
            "power chains need a base of length w*q; promote finite chains first "
            "and re-shape successor-tailed ones"
        )
    if grp.points.size is not None:
        raise ChainError("power chains need a countable point enumeration")
    q = base_chain.num_blocks

    def coords(b: int, n: int) -> list:
        return [(grp.points.label(i), base_chain.stage_at(b, n - i)) for i in range(n)]

    def rule(b: int, n: int) -> SubgroupDescriptor:
        return _coordinatewise_stage(grp, coords(b, n), coords(b, n - 1), base_chain.stage_at(b, 0),
                                     f"coordinatewise block {b} step {n}")

    base_exclusion = getattr(base_chain.block_rule, "exclusion", None)
    index: dict = {}  # point label -> its place in the enumeration, listed as budgets ask

    def exclusion(b: int, v, budget: int) -> Optional[int]:
        """0 when a supported value leaves base stage (b, 0), and otherwise
        the least i + max(1, base depth) over the supported points x_i with
        i < budget (the others give more than the budget)."""
        if not all(map(_value_test(base_chain.stage_at(b, 0)), (y for _, y in v))):
            return 0
        for i in range(len(index), budget):
            index[grp.points.label(i)] = i
        depths = (index[x] + max(1, k) for x, y in v if index.get(x, budget) < budget
                  and (k := base_exclusion(b, y, budget)) is not None)
        return min(depths, default=None)

    if base_exclusion is not None:
        rule.exclusion = exclusion
    final = _coordinatewise_stage(grp, [], [], base_chain.stage_at(q, 0),
                                  "supportwise final stage")
    return ChainSchema(
        group=grp, kappa=ALEPH0, num_blocks=q, block_rule=rule, final_limit=final,
        name=f"power of {base_chain.name}", flags=base_chain.flags,
    )


def diagonal_power_chain(base_chain: ChainSchema, points: FinitePoints) -> ChainSchema:
    """Same-length chain over a finite power: every coordinate in the base stage."""
    return _diagonal_power_chain(base_chain, finite_support_power(base_chain.group, points))


def _diagonal_power_chain(base_chain: ChainSchema, grp: FinSupportPowerGroup) -> ChainSchema:
    """``diagonal_power_chain`` over the power group ``grp`` of the base."""
    if not isinstance(grp.points, FinitePoints):
        raise ChainError("diagonal power chains need finite points")

    def lift(stage: SubgroupDescriptor,
             parent: Optional[SubgroupDescriptor] = None) -> SubgroupDescriptor:
        return _coordinatewise_stage(
            grp, [(x, stage) for x in grp.points.labels],
            [] if parent is None else [(x, parent) for x in grp.points.labels], None,
            f"diagonal of {stage.label}" if stage.label else "diagonal",
        )

    def rule(b: int, n: int) -> SubgroupDescriptor:
        return lift(base_chain.stage_at(b, n), base_chain.stage_at(b, n - 1) if n else None)

    q = base_chain.num_blocks
    base_exclusion = getattr(base_chain.block_rule, "exclusion", None)
    if base_exclusion is not None:  # the least base depth over the supported values
        rule.exclusion = lambda b, v, budget: min(
            (k for k in (base_exclusion(b, y, budget) for _, y in v) if k is not None),
            default=None)
    parents = (base_chain.stage_at(q, 0) if q else None, *base_chain.tail)
    return ChainSchema(
        group=grp,
        kappa=ALEPH0,
        num_blocks=q,
        block_rule=rule if q else None,
        final_limit=lift(base_chain.stage_at(q, 0)) if q else None,
        tail=tuple(lift(s, parent) for s, parent in zip(base_chain.tail, parents)),
        name=f"diagonal power of {base_chain.name}",
        flags=base_chain.flags,
    )


def _lifted_power_chain(base_chain: ChainSchema, grp: FinSupportPowerGroup) -> ChainSchema:
    """The base chain lifted to its finite-support power ``grp``:
    coordinatewise, with the base padded to length w, over countable points,
    and diagonally over finite ones."""
    if grp.points.size is not None:
        return _diagonal_power_chain(base_chain, grp)
    if base_chain.num_blocks == 0:
        base_chain = promote_to_omega(base_chain)
    return _power_chain(base_chain, grp)


def _wreath_chain(wreath: WreathProductGroup, top_chain: ChainSchema,
                  base_chain: ChainSchema) -> ChainSchema:
    """The top chain's pullback, then the base chain lifted to the kernel."""
    return concat_extension(wreath.extension(), top_chain,
                            _lifted_power_chain(base_chain, wreath.kernel))


def _tower_levels(g: Group, n: int) -> list[Group]:
    """The tower groups g, wreath(g;g), ... up to height n."""
    if n < 1:
        raise ChainError("tower height must be >= 1")
    levels = [g]
    for _ in range(2, n + 1):
        levels.append(wreath_product(levels[-1], g))
    return levels


def _tower_chain(levels: list[Group], g_chain: ChainSchema) -> ChainSchema:
    """Chain over the last of the tower ``levels``, one w block per level."""
    g = levels[0]
    if g_chain.group.tag != g.tag:
        raise ChainError("chain is over the wrong group")
    if g.order is not None:
        raise ChainError("tower bases must be infinite")
    if not g.is_residually_finite_claimed:
        raise ChainError("tower bases must carry the residually-finite claim")
    if g_chain.num_blocks != 1 or g_chain.tail:
        raise ChainError("tower bases need a chain of length exactly w")
    g.enumerate_element(0)  # must be enumerable
    flags = (
        "upper bound from the tower construction",
        f"exact-depth claim hypotheses: residually finite claimed={g.is_residually_finite_claimed}, "
        f"finite abelianization claimed={g.has_finite_abelianization_claimed}",
    )
    chain = g_chain
    for wreath in levels[1:]:
        chain = _wreath_chain(wreath, g_chain, chain)
    return replace(chain, name=f"tower({g.tag}, {len(levels)})", flags=flags)


def tower_chain(g: Group, g_chain: ChainSchema, n: int) -> ChainSchema:
    """Chain over the n-th iterated wreath tower of g, of length w*n.

    Level by level: the chain over the next tower group concatenates the
    pullback of the base chain through the top projection with the power
    chain over the previous level, adding one w block each time.  The result
    is an upper bound on depth; exactness is a claim that additionally needs
    the base's finite-abelianization hypothesis, which is echoed in flags.
    """
    return _tower_chain(_tower_levels(g, n), g_chain)

