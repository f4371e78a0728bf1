"""Ordinal-indexed descending subgroup chains.

A chain schema over a group assigns a subgroup descriptor to every ordinal
stage i <= length, where length has the shape w*q + r.  Stages inside block
b (ordinals w*b + n) come from a per-block rule; stage w*b for b >= 1 is a
limit stage whose membership test is the closed form the constructor knows,
and verification cross-checks it against the lazy intersection of the
previous block's stages on probe elements, within a budget.  Exceeding the
budget downgrades the verdict to inconclusive, never to a wrong answer.

Verification emits certificates: per-stage descent and index reports
(indices are certified by transversals when available, otherwise only
probe-counted and reported unverified), per-probe separation stages, and a
single Pass/Fail/Inconclusive verdict.  A Fail always carries a concrete
witness element and stage.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from .groups import (
    Element,
    ExtensionHandle,
    FinitePoints,
    FinSupportPowerGroup,
    Group,
    InfiniteDihedralGroup,
    IntegerGroup,
    PointSet,
    WreathProductGroup,
    finite_support_power,
    make_infinite_dihedral,
    make_integers,
    random_words,
    wreath_product,
)
from .ordinal import (
    ALEPH0,
    OMEGA,
    ZERO,
    CardinalBound,
    DepthClass,
    Ordinal,
    classify,
    format_ordinal,
    ordinal_to_jsonable,
)
from .subgroups import commutator_subgroup
from .stages import (
    ChainError,
    StepIndex,
    SubgroupDescriptor,
    Transversal,
    _certify_transversal,
)

__all__ = [
    "ChainError",
    "StepIndex",
    "SubgroupDescriptor",
    "ChainSchema",
    "ChainCertificate",
    "DepthInterval",
    "chain_at",
    "limit_membership",
    "verify_prefix",
    "concat_extension",
    "compress_successor_tail",
    "power_chain",
    "diagonal_power_chain",
    "tower_chain",
    "core_sandwich",
    "finite_chain",
    "promote_to_omega",
    "integers_chain",
    "dihedral_chain",
    "single_step_chain",
]


def _full_stage(group: Group) -> SubgroupDescriptor:
    return SubgroupDescriptor(
        owner=group,
        membership=lambda e: True,
        label="full group",
    )


@dataclass(frozen=True)
class ChainSchema:
    """A descending chain of length w*num_blocks + len(tail).

    ``block_rule(b, n)`` yields the stage at ordinal w*b + n for b below
    num_blocks; ``final_limit`` is the stage at w*num_blocks when there is at
    least one block; ``tail`` holds the finitely many stages after that.
    """

    group: Group
    kappa: CardinalBound
    num_blocks: int
    block_rule: Optional[Callable[[int, int], SubgroupDescriptor]] = None
    final_limit: Optional[SubgroupDescriptor] = None
    tail: tuple[SubgroupDescriptor, ...] = ()
    name: str = ""
    flags: tuple[str, ...] = ()
    _stage_cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.num_blocks < 0:
            raise ChainError("negative block count")
        if self.num_blocks > 0 and self.block_rule is None:
            raise ChainError("chains with blocks need a block rule")
        if self.num_blocks > 0 and self.final_limit is None:
            raise ChainError("chains with blocks need the stage at their last limit")

    @functools.cached_property
    def length(self) -> Ordinal:
        return OMEGA * self.num_blocks + len(self.tail)

    def stage_at(self, b: int, n: int) -> SubgroupDescriptor:
        """Stage at ordinal w*b + n."""
        key = (b, n)
        if key in self._stage_cache:
            return self._stage_cache[key]
        if b < 0 or n < 0:
            raise ChainError("negative stage address")
        if b < self.num_blocks:
            stage = self.block_rule(b, n)
        elif b == self.num_blocks and n == 0:
            stage = self.final_limit if self.num_blocks else _full_stage(self.group)
        elif b == self.num_blocks and n <= len(self.tail):
            stage = self.tail[n - 1]
        else:
            raise ChainError(
                f"stage {format_ordinal(OMEGA * b + n)} beyond chain length "
                f"{format_ordinal(self.length)}"
            )
        self._stage_cache[key] = stage
        return stage


def _split_stage_ordinal(i: Ordinal) -> tuple[int, int]:
    b = n = 0
    for exp, coeff in i.terms:
        if exp == ZERO:
            n = coeff
        elif exp.is_finite and exp.to_int() == 1:
            b = coeff
        else:
            raise ChainError(
                f"chain stages have shape w*q + r; {format_ordinal(i)} does not"
            )
    return b, n


def chain_at(chain: ChainSchema, i) -> SubgroupDescriptor:
    """The stage descriptor at ordinal i <= length.

    At limit ordinals this is the closed-form stage the constructor declared;
    ``limit_membership`` evaluates the underlying intersection lazily per
    element, and verification cross-checks the two on probes.
    """
    if isinstance(i, int):
        i = Ordinal.from_int(i)
    if i > chain.length:
        raise ChainError(
            f"stage {format_ordinal(i)} beyond chain length {format_ordinal(chain.length)}"
        )
    b, n = _split_stage_ordinal(i)
    return chain.stage_at(b, n)


def limit_membership(chain: ChainSchema, i, element: Element,
                     budget: int = 64) -> Optional[bool]:
    """Lazy intersection membership at the limit ordinal i = w*b.

    Evaluates the canonical cofinal sequence (the previous block's stages)
    up to ``budget`` steps: False once some stage excludes the element, True
    only if the declared limit stage also accepts it, None when the budget
    runs out undecided.
    """
    if isinstance(i, int):
        i = Ordinal.from_int(i)
    b, n = _split_stage_ordinal(i)
    if n != 0 or b == 0:
        raise ChainError(f"{format_ordinal(i)} is not a limit stage of this chain")
    if _first_excluding_step(chain, b - 1, element, budget) is not None:
        return False
    if chain.stage_at(b, 0).contains(element):
        return True
    return None


def _first_excluding_step(chain: ChainSchema, block: int, element: Element,
                          budget: int, start: int = 0) -> Optional[int]:
    """The first n in start..budget whose stage w*block + n excludes the element."""
    for n in range(start, budget + 1):
        if not chain.stage_at(block, n).contains(element):
            return n
    return None


# --- built-in chains ---------------------------------------------------------


def integers_chain(p: int = 2, group: Optional[IntegerGroup] = None) -> ChainSchema:
    """The p-adic chain over the integers: stage n holds multiples of p^n.

    The chain is over ``group`` when given, so that it shares the caller's
    group object, and over a new integers group otherwise.
    """
    if p < 2:
        raise ChainError("need p >= 2")
    z = make_integers() if group is None else group
    if not isinstance(z, IntegerGroup):
        raise ChainError(f"the p-adic chain needs the integers, not {z.tag}")

    def rule(b: int, n: int) -> SubgroupDescriptor:
        modulus = p ** n
        if n == 0:
            return _full_stage(z)
        return SubgroupDescriptor(
            owner=z,
            membership=lambda e, m=modulus: e.value % m == 0,
            index_in_parent=StepIndex.finite(p),
            transversal=lambda: Transversal(Element(z, j * p ** (n - 1)) for j in range(p)),
            label=f"multiples of {modulus}",
        )

    final = SubgroupDescriptor(
        owner=z,
        membership=lambda e: e.value == 0,
        label="zero",
    )
    return ChainSchema(
        group=z, kappa=ALEPH0, num_blocks=1, block_rule=rule, final_limit=final,
        name=f"{p}-adic",
    )


def dihedral_chain(p: int = 2, group: Optional[InfiniteDihedralGroup] = None) -> ChainSchema:
    """Translations by growing powers of p inside the infinite dihedral group.

    The chain is over ``group`` when given, and over a new copy otherwise.
    """
    if p < 2:
        raise ChainError("need p >= 2")
    d = make_infinite_dihedral() if group is None else group
    if not isinstance(d, InfiniteDihedralGroup):
        raise ChainError(f"the dihedral chain needs Dinf, not {d.tag}")

    def rule(b: int, n: int) -> SubgroupDescriptor:
        if n == 0:
            return _full_stage(d)
        if n == 1:
            return SubgroupDescriptor(
                owner=d,
                membership=lambda e: e.value[1] == 0,
                index_in_parent=StepIndex.finite(2),
                transversal=lambda: Transversal((Element(d, (0, 0)), Element(d, (0, 1)))),
                label="translations",
            )
        modulus = p ** (n - 1)
        return SubgroupDescriptor(
            owner=d,
            membership=lambda e, m=modulus: e.value[1] == 0 and e.value[0] % m == 0,
            index_in_parent=StepIndex.finite(p),
            transversal=lambda: Transversal(Element(d, (j * p ** (n - 2), 0)) for j in range(p)),
            label=f"translations by multiples of {modulus}",
        )

    final = SubgroupDescriptor(
        owner=d,
        membership=lambda e: e.value == (0, 0),
        label="identity",
    )
    return ChainSchema(
        group=d, kappa=ALEPH0, num_blocks=1, block_rule=rule, final_limit=final,
        name=f"dihedral {p}-adic",
    )


def finite_chain(group: Group, subgroups, kappa: CardinalBound = ALEPH0,
                 name: str = "") -> ChainSchema:
    """A finite chain from explicit element sets (after the full group).

    Transversals are materialized by greedy left-coset decomposition, in
    element order with the identity first, so all indices are certified.
    The cosets are read off the group's Cayley table when it has one.  The
    last set need not be trivial; verification will fail such a chain,
    which is exactly what negative tests want.
    """
    if group.order is None:
        raise ChainError("finite chains need a finite group")
    sets = [frozenset(group.validate_value(v) for v in s) for s in subgroups]
    table, values = group.cayley_table(), group.element_values()

    def coset(v, s):  # the left coset v * s
        if table is None:
            return {group.mul_values(v, h) for h in s}
        row = table.mul[table.index[v]]
        return {values[row[table.index[h]]] for h in s}

    ident = group.identity_value()
    prev = frozenset(values)
    stages = []
    for k, s in enumerate(sets, start=1):
        if not s <= prev:
            raise ChainError(f"stage {k} is not contained in stage {k - 1}")
        if len(prev) % len(s):
            raise ChainError(f"stage {k} size does not divide its parent")
        reps = []
        covered = set()
        for v in sorted([v for v in values if v in prev], key=lambda v: v != ident):
            if v not in covered:
                reps.append(v)
                covered |= coset(v, s)
        stages.append(
            SubgroupDescriptor(
                owner=group,
                membership=lambda e, ss=s: e.value in ss,
                index_in_parent=StepIndex.finite(len(reps)),
                transversal=Transversal(Element(group, v) for v in reps),
                label=f"order {len(s)}",
            )
        )
        prev = s
    return ChainSchema(
        group=group, kappa=kappa, num_blocks=0, tail=tuple(stages),
        name=name or f"finite chain over {group.tag}",
    )


def single_step_chain(group: Group, kappa: CardinalBound = ALEPH0) -> ChainSchema:
    """The one-step chain: full group, then the trivial subgroup."""
    if group.order is None:
        raise ChainError("single-step chains need a finite group")
    return finite_chain(group, [{group.identity_value()}], kappa=kappa,
                        name=f"one step over {group.tag}")


def promote_to_omega(chain: ChainSchema) -> ChainSchema:
    """Pad a finite chain to length w by repeating its last stage.

    Repetition steps have index 1, which the index condition allows.
    """
    if chain.num_blocks != 0:
        raise ChainError("only finite chains are promoted")
    r = len(chain.tail)
    last = chain.stage_at(0, r)
    identity = chain.group.identity()

    def rule(b: int, n: int) -> SubgroupDescriptor:
        if n <= r:
            return chain.stage_at(0, n)
        return SubgroupDescriptor(
            owner=chain.group,
            membership=last.membership,
            index_in_parent=StepIndex.finite(1),
            transversal=lambda: Transversal((identity,)),
            label=(last.label or "last stage") + " (repeated)",
        )

    final = SubgroupDescriptor(
        owner=chain.group,
        membership=last.membership,
        label=(last.label or "last stage") + " (limit)",
    )
    return ChainSchema(
        group=chain.group, kappa=chain.kappa, num_blocks=1, block_rule=rule,
        final_limit=final, name=f"omega-padded {chain.name}", flags=chain.flags,
    )


# --- combinators -------------------------------------------------------------


def _mapped(stage: SubgroupDescriptor, f: Callable[[Element], Element],
            stage_map: Callable[[SubgroupDescriptor], SubgroupDescriptor]):
    """A function building ``stage``'s transversal carried into another
    group, or None when the stage has none: each explicit representative
    through ``f`` and each intermediate subgroup through ``stage_map``.  A
    product stays a product of the images of its factors."""
    def build() -> Optional[Transversal]:
        t = stage.transversal
        if t is not None:
            return Transversal(factors=[Transversal(map(f, reps)) for reps in t.factor_reps()],
                               intermediates=map(stage_map, t.intermediates))
    return build


def _pullback_stage(ext: ExtensionHandle, stage: SubgroupDescriptor) -> SubgroupDescriptor:
    return SubgroupDescriptor(
        owner=ext.total,
        membership=lambda e: stage.membership(ext.projection(e)),
        index_in_parent=stage.index_in_parent,
        transversal=None if ext.section is None
        else _mapped(stage, ext.section, lambda k: _pullback_stage(ext, k)),
        label=f"pullback of {stage.label}" if stage.label else "pullback",
    )


def _embed_kernel_stage(ext: ExtensionHandle, stage: SubgroupDescriptor) -> SubgroupDescriptor:
    def member(e: Element) -> bool:
        if not ext.kernel_contains(e):
            return False
        return stage.membership(ext.kernel_retract(e))

    return SubgroupDescriptor(
        owner=ext.total,
        membership=member,
        index_in_parent=stage.index_in_parent,
        transversal=_mapped(stage, ext.kernel_embed, lambda k: _embed_kernel_stage(ext, k)),
        label=f"kernel copy of {stage.label}" if stage.label else "kernel copy",
    )


def concat_extension(ext: ExtensionHandle, chain_q: ChainSchema,
                     chain_n: ChainSchema) -> ChainSchema:
    """Chain over the total group of a short exact sequence.

    Stages up to the quotient chain's length pull back through the
    projection; later stages are the kernel chain's stages embedded.  The
    stage at exactly the quotient length is the pullback of the quotient's
    trivial stage, i.e. the kernel membership test.  The length is the
    ordinal sum and the bound is the larger of the two.
    """
    if chain_q.group.tag != ext.quotient.tag:
        raise ChainError("quotient chain is over the wrong group")
    if ext.kernel_group is None or ext.kernel_retract is None or ext.kernel_embed is None:
        raise ChainError("extension lacks a kernel bundle")
    if chain_n.group.tag != ext.kernel_group.tag:
        raise ChainError("kernel chain is over the wrong group")
    q1, r1 = chain_q.num_blocks, len(chain_q.tail)
    if q1 == r1 == 0 and ext.total.tag == chain_n.group.tag:
        return chain_n
    q2, r2 = chain_n.num_blocks, len(chain_n.tail)
    # the sum w*q1 + r1 + w*q2 + r2 absorbs r1 when q2 > 0
    q_blocks, r = (q1 + q2, r2) if q2 else (q1, r1 + r2)

    def rule(b: int, n: int) -> SubgroupDescriptor:
        if b < q1 or (b == q1 and n <= r1):
            return _pullback_stage(ext, chain_q.stage_at(b, n))
        if b == q1:
            return _embed_kernel_stage(ext, chain_n.stage_at(0, n - r1))
        return _embed_kernel_stage(ext, chain_n.stage_at(b - q1, n))

    return ChainSchema(
        group=ext.total,
        kappa=max(chain_q.kappa, chain_n.kappa),
        num_blocks=q_blocks,
        block_rule=rule if q_blocks else None,
        final_limit=rule(q_blocks, 0) if q_blocks else None,
        tail=tuple(rule(q_blocks, j) for j in range(1, r + 1)),
        name=f"{chain_q.name} then {chain_n.name}",
        flags=chain_q.flags + chain_n.flags,
    )


def compress_successor_tail(chain: ChainSchema) -> ChainSchema:
    """Collapse a tail of n >= 2 finite steps into one jump.

    The new final step keeps the old final stage and carries the product of
    the old tail indices; its transversal is the product of the old tail
    transversals, with the old tail stages between them, when all of them
    are present.
    """
    r = len(chain.tail)
    if r < 2:
        raise ChainError("nothing to compress: tail has fewer than 2 steps")
    product = 1
    for stage in chain.tail:
        idx = stage.index_in_parent
        if idx is None or not idx.is_finite:
            raise ChainError("tail contains a non-finite or unverified index")
        product *= idx.value
    reps = None
    if all(s.transversal is not None for s in chain.tail):
        reps = Transversal(factors=[s.transversal for s in chain.tail],
                           intermediates=chain.tail[:-1])
    last = chain.tail[-1]
    merged = SubgroupDescriptor(
        owner=chain.group,
        membership=last.membership,
        index_in_parent=StepIndex.finite(product),
        transversal=reps,
        label=(last.label or "final stage") + " (compressed)",
    )
    return ChainSchema(
        group=chain.group, kappa=chain.kappa, num_blocks=chain.num_blocks,
        block_rule=chain.block_rule, final_limit=chain.final_limit,
        tail=(merged,), name=f"compressed {chain.name}", flags=chain.flags,
    )


def _coordinatewise_membership(grp: FinSupportPowerGroup, coords,
                               support: Optional[SubgroupDescriptor]) -> Callable[[Element], bool]:
    """Every supported value in ``support`` (when given), and the value at
    each point of ``coords`` (point, base stage) in that stage.  Only the
    supported points are read: every other point holds the identity, which
    each stage of ``coords`` is tested for once, on the first call."""
    base, at = grp.base, dict(coords)

    @functools.cache
    def identity_inside() -> bool:
        return all(stage.contains(base.identity()) for stage in at.values())

    def member(e: Element) -> bool:
        for x, v in e.value:
            value = Element(base, v)
            if support is not None and not support.contains(value):
                return False
            stage = at.get(x)
            if stage is not None and not stage.contains(value):
                return False
        return identity_inside()

    return member


def _coordinatewise_stage(grp: FinSupportPowerGroup, coords, parent_coords,
                          support: Optional[SubgroupDescriptor], label: str) -> SubgroupDescriptor:
    """A finite-support power stage with the membership test of ``coords``
    and ``support``.  Index and transversal are the products of the points'
    ones; the index is infinite when one point's is.  ``parent_coords``
    constrains the parent stage the same way (points past its end only by
    ``support``).  Factor j of the transversal is the base transversal at
    the j-th point, embedded at that point, and the intermediate K_j takes
    the stage's constraints at the first j points and the parent's at the
    rest, so each factor moves one coordinate down one base stage; elements
    with disjoint supports commute.  A base intermediate M of factor j
    becomes K_(j-1) with the j-th point at M.  The transversal is built on
    first read."""
    indices = [stage.index_in_parent for _, stage in coords]
    index: Optional[StepIndex] = None
    reps = None

    def between(j: int, at_j: list) -> SubgroupDescriptor:
        """The first j points as in the stage, then ``at_j``, then the parent's."""
        return SubgroupDescriptor(
            owner=grp,
            membership=_coordinatewise_membership(
                grp, [*coords[:j], *at_j, *parent_coords[j + 1:]], support),
            label=f"{label}, intermediate",
        )

    def product() -> Optional[Transversal]:
        factors = [_mapped(stage, grp.embed_at(x), lambda m, j=j, x=x: between(j, [(x, m)]))()
                   for j, (x, stage) in enumerate(coords)]
        if None not in factors:
            return Transversal(factors=factors,
                               intermediates=[between(j, parent_coords[j:j + 1])
                                              for j in range(1, len(coords))])

    if any(i is not None and i.kind == "infinite" for i in indices):
        index = StepIndex.infinite()
    elif indices and all(i is not None and i.is_finite for i in indices):
        index = StepIndex.finite(math.prod(i.value for i in indices))
        reps = product
    return SubgroupDescriptor(
        owner=grp, membership=_coordinatewise_membership(grp, coords, support),
        index_in_parent=index, transversal=reps, label=label,
    )


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
        return _coordinatewise_stage(
            grp, coords(b, n), coords(b, n - 1),
            base_chain.stage_at(b, 0) if b > 0 else None,
            f"coordinatewise block {b} step {n}",
        )

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


def core_sandwich(wreath: WreathProductGroup) -> tuple[SubgroupDescriptor, SubgroupDescriptor]:
    """Membership tests bracketing the intersection of finite-index subgroups.

    Lower: finite-support functions into the derived subgroup of the base,
    with trivial top part.  Upper: the kernel of the projection to the top.
    The top group must be infinite and carry the residually-finite claim;
    the derived-subgroup test needs a finite base.
    """
    if not isinstance(wreath, WreathProductGroup):
        raise ChainError("core bounds are defined for wreath products")
    if wreath.top.order is not None or not wreath.top.is_residually_finite_claimed:
        raise ChainError("top group must be infinite and claimed residually finite")
    if wreath.base.order is None:
        raise ChainError("lower bound needs a finite base for its derived subgroup")
    derived = commutator_subgroup(wreath.base)

    def lower(e: Element) -> bool:
        f, g = e.value
        if g != wreath.top.identity_value():
            return False
        return all(derived.contains_parent_element(Element(wreath.base, v)) for _, v in f)

    def upper(e: Element) -> bool:
        return e.value[1] == wreath.top.identity_value()

    lower_desc = SubgroupDescriptor(
        owner=wreath, membership=lower, index_in_parent=StepIndex.infinite(),
        label="derived-valued functions, trivial top",
    )
    upper_desc = SubgroupDescriptor(
        owner=wreath, membership=upper, index_in_parent=StepIndex.infinite(),
        label="kernel of the top projection",
    )
    return lower_desc, upper_desc


# --- verification ------------------------------------------------------------


@dataclass(frozen=True)
class ChainCertificate:
    verdict: str  # "pass" | "fail" | "inconclusive"
    kappa: CardinalBound
    length: Ordinal
    levels: tuple[dict, ...]
    separations: tuple[dict, ...]
    seed: int
    probes_used: int
    flags: tuple[str, ...]
    failure: Optional[dict] = None

    def to_jsonable(self) -> dict:
        out = {
            "verdict": self.verdict,
            "kappa": self.kappa.to_jsonable(),
            "length": ordinal_to_jsonable(self.length),
            "levels": list(self.levels),
            "separations": list(self.separations),
            "seed": self.seed,
            "probes": self.probes_used,
            "flags": list(self.flags),
        }
        if self.failure is not None:
            out["failure"] = self.failure
        return out


def _probe_id(e: Element) -> str:
    return json.dumps(e.to_jsonable(), sort_keys=True, separators=(",", ":"))


_Row = tuple[Ordinal, int, int, SubgroupDescriptor]  # (ordinal, block, step, stage)
_Fail = Callable[[str, Ordinal, Optional[Element]], None]


def _rows(chain: ChainSchema, levels: int) -> list[_Row]:
    """The stages checked: ``levels`` steps into every block, then the
    final limit and the tail."""
    q, r = chain.num_blocks, len(chain.tail)
    rows = [(OMEGA * b + n, b, n, chain.stage_at(b, n))
            for b in range(q) for n in range(levels + 1)]
    rows += [(OMEGA * q + n, q, n, chain.stage_at(q, n)) for n in range(r + 1)]
    return rows


def _check_identity_and_fullness(rows: list[_Row], probes: list[Element], mem,
                                 identity: Element, fail: _Fail) -> None:
    for ordinal_i, _, _, stage in rows:
        if not stage.contains(identity):
            fail("stage rejects the identity", ordinal_i, identity)
    for pi, p in enumerate(probes):
        if not mem[pi][0]:
            fail("stage 0 is not the full group", ZERO, p)


def _check_limit_coherence(chain: ChainSchema, rows: list[_Row], probes: list[Element], mem,
                           budget: int, fail: _Fail):
    """Each declared limit stage against the lazy intersection of the block
    before it.  Returns the stage of that block that excludes each rejected
    probe, keyed (probe, block), as its (block, step) address, and the
    (probe, limit ordinal) pairs whose rejection no stage within the budget
    confirms.  Steps of that block that are rows are read from ``mem``; only
    deeper ones are tested."""
    witness_stage: dict[tuple[int, int], tuple[int, int]] = {}
    unresolved: list[tuple[int, Ordinal]] = []
    for k, (ordinal_i, b, n, _) in enumerate(rows):
        if n != 0 or b < 1:
            continue
        below = [j for j, row in enumerate(rows) if row[1] == b - 1][:budget + 1]
        for pi, p in enumerate(probes):
            claimed = mem[pi][k]
            found = next((m for m, j in enumerate(below) if not mem[pi][j]), None)
            if found is None:
                found = _first_excluding_step(chain, b - 1, p, budget, start=len(below))
            if found is not None:
                if claimed:
                    fail("limit stage accepts an element excluded below it",
                         OMEGA * (b - 1) + found, p)
                else:
                    witness_stage[(pi, b)] = (b - 1, found)
            elif not claimed:
                unresolved.append((pi, ordinal_i))
    return witness_stage, unresolved


def _step_index(ordinal_i: Ordinal, stage: SubgroupDescriptor, parent: SubgroupDescriptor,
                probes: list[Element], in_parent: list[bool], in_stage: list[bool],
                kappa: CardinalBound, fail: _Fail):
    """The index entry of one successor row: certified by the transversal when
    the stage has one, otherwise a probe-counted lower bound or "unverified"."""
    claimed = stage.index_in_parent
    if claimed is not None and claimed.kind == "infinite":
        fail("step index is infinite", ordinal_i, None)
        return "infinite"
    if stage.transversal is not None:
        size, failure = _certify_transversal(stage.transversal, parent, stage, probes,
                                             in_parent, in_stage)
        if failure is not None:
            fail(failure[0], ordinal_i, failure[1])
            return None
        if claimed is not None and claimed.is_finite and claimed.value != size:
            fail("declared index disagrees with its transversal", ordinal_i, None)
        if not kappa.admits(size):
            fail(f"index {size} is not below kappa {kappa}", ordinal_i, None)
        return size
    classes: list[Element] = []
    for p in (p for p, inside in zip(probes, in_parent) if inside):
        if not any(stage.contains(c.inverse() * p) for c in classes):
            classes.append(p)
    lower = len(classes) if classes else 1
    if not kappa.admits(lower):
        fail(f"at least {lower} cosets found, not below kappa {kappa}",
             ordinal_i, classes[-1] if classes else None)
        return lower
    return "unverified"


def _check_indices(rows: list[_Row], probes: list[Element], mem, kappa: CardinalBound,
                   fail: _Fail) -> list[dict]:
    """Descent from the previous row and the step index, one report per row."""
    reports = []
    for k, (ordinal_i, b, n, stage) in enumerate(rows):
        descent_ok = True
        if k > 0 and rows[k - 1][1] == b and rows[k - 1][2] == n - 1:
            for pi, p in enumerate(probes):
                if mem[pi][k] and not mem[pi][k - 1]:
                    fail("descent violated", ordinal_i, p)
                    descent_ok = False
        index_value = None
        if n >= 1:
            index_value = _step_index(ordinal_i, stage, rows[k - 1][3], probes,
                                      [row[k - 1] for row in mem], [row[k] for row in mem],
                                      kappa, fail)
        reports.append({"stage": format_ordinal(ordinal_i), "index": index_value,
                        "descent": descent_ok})
    return reports


def _check_finality(rows: list[_Row], probes: list[Element], mem, fail: _Fail) -> None:
    """The final stage accepts only the identity among probes."""
    for pi, p in enumerate(probes):
        if mem[pi][-1]:
            fail("final stage accepts a non-identity probe", rows[-1][0], p)


def _separations(rows: list[_Row], probes: list[Element], mem,
                 witness_stage: dict[tuple[int, int], tuple[int, int]]) -> list[dict]:
    """The first stage known to exclude each probe, sorted by probe."""
    separations = []
    for pi, p in enumerate(probes):
        first: Optional[Ordinal] = None
        for k, (ordinal_i, b, n, _) in enumerate(rows):
            if mem[pi][k]:
                continue
            first = ordinal_i
            if n == 0 and (pi, b) in witness_stage:
                wb, wn = witness_stage[pi, b]
                first = OMEGA * wb + wn
            break
        separations.append({
            "probe": _probe_id(p),
            "first_excluding_stage": "unresolved" if first is None else format_ordinal(first),
        })
    separations.sort(key=lambda s: (s["probe"], s["first_excluding_stage"]))
    return separations


def verify_prefix(chain: ChainSchema, levels: int, probes: int, seed: int,
                  kappa: Optional[CardinalBound] = None, word_len: int = 8,
                  limit_budget: int = 64) -> ChainCertificate:
    """Probe-based verification of a chain prefix.

    Checks ``levels`` finite steps past each limit stage, in phases: the
    rows to check; the identity in every stage and stage 0 full; coherence
    of each declared limit stage against the lazy intersection of the
    previous block; descent between consecutive stages and step indices
    strictly below kappa (certified by transversals where present,
    otherwise probe-counted and left unverified); triviality of the final
    stage on probes; and the first excluding stage of every probe.
    Failures are verdicts with witnesses, never exceptions.  A run that
    draws no probes is at best inconclusive.

    A transversal is certified factor by factor (see ``Transversal``):
    each factor must hit the identity coset, lie inside K_(j-1) and be
    pairwise distinct modulo K_j; the K_j must nest on the probes; and each
    parent probe is sifted through the factors, the representative found
    being confirmed by the stage's own membership test.  The index is the
    product of the factor sizes, so a row is never built in full.  Rows of
    pullbacks, kernel copies and powers are products whenever the stages
    they map are, so they are certified the same way.  An explicit
    transversal is a single factor, checked pairwise.
    """
    if levels < 1:
        raise ChainError("need at least one level")
    kappa = kappa if kappa is not None else chain.kappa
    probe_elements = random_words(chain.group, probes, seed, max_len=word_len)
    rows = _rows(chain, levels)
    failures: list[dict] = []

    def fail(reason: str, stage: Ordinal, witness: Optional[Element]):
        failures.append({
            "reason": reason,
            "stage": format_ordinal(stage),
            "witness": None if witness is None else _probe_id(witness),
        })

    mem = [[stage.contains(p) for (*_, stage) in rows] for p in probe_elements]
    _check_identity_and_fullness(rows, probe_elements, mem, chain.group.identity(), fail)
    witness_stage, unresolved = _check_limit_coherence(chain, rows, probe_elements, mem,
                                                       limit_budget, fail)
    level_reports = _check_indices(rows, probe_elements, mem, kappa, fail)
    _check_finality(rows, probe_elements, mem, fail)
    separations = _separations(rows, probe_elements, mem, witness_stage)

    flags = list(chain.flags)
    for pi, ordinal_i in unresolved:
        flags.append(
            f"limit {format_ordinal(ordinal_i)} rejection of probe "
            f"{_probe_id(probe_elements[pi])} unresolved within budget {limit_budget}"
        )
    index_unverified = any(report["index"] == "unverified" for report in level_reports)
    if index_unverified:
        flags.append("some step indices could not be certified by a transversal")
    if not probe_elements:
        flags.append("no probes were drawn, so no probe-based check ran")

    if failures:
        verdict = "fail"
    elif not probe_elements or unresolved or index_unverified or any(
        s["first_excluding_stage"] == "unresolved" for s in separations
    ):
        verdict = "inconclusive"
    else:
        verdict = "pass"

    return ChainCertificate(
        verdict=verdict,
        kappa=kappa,
        length=chain.length,
        levels=tuple(level_reports),
        separations=tuple(separations),
        seed=seed,
        probes_used=len(probe_elements),
        flags=tuple(flags),
        failure=failures[0] if failures else None,
    )


# --- depth intervals ---------------------------------------------------------


@dataclass(frozen=True)
class DepthInterval:
    """A bracketing of a group's depth: registered lower bound, constructed
    chain upper bound, and an optional externally claimed exact value."""

    lower: Ordinal
    upper: Ordinal
    paper_claimed: Optional[Ordinal] = None
    claim_tag: str = ""
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        for value in (self.lower, self.upper, self.paper_claimed):
            if value is not None and classify(value) is DepthClass.INVALID:
                raise ChainError(f"{format_ordinal(value)} is not a valid depth shape")
        if self.lower > self.upper:
            raise ChainError("lower depth bound exceeds the upper bound")

    @property
    def claim_discrepancy(self) -> bool:
        if self.paper_claimed is None:
            return False
        return not (self.lower <= self.paper_claimed <= self.upper)

    def to_jsonable(self) -> dict:
        out = {
            "lower": ordinal_to_jsonable(self.lower),
            "upper": ordinal_to_jsonable(self.upper),
            "lower_text": format_ordinal(self.lower),
            "upper_text": format_ordinal(self.upper),
            "flags": list(self.flags),
        }
        if self.paper_claimed is not None:
            out["claimed"] = ordinal_to_jsonable(self.paper_claimed)
            out["claimed_text"] = format_ordinal(self.paper_claimed)
            out["claim_tag"] = self.claim_tag
            out["claim_discrepancy"] = self.claim_discrepancy
        return out
