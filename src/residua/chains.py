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
witness element and stage.  The stages that the combinators build from
other stages (pullbacks and kernel copies here, power stages in ``powers``)
record what they were built from, and their rows keep that shape, so one
verify run certifies each distinct base row once however many tower levels
and points carry it (see ``stages``).

Chains over powers, wreath products and towers are built in ``powers``
from the combinators here; this module imports nothing from it.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Callable, Optional

from .elements import Element, Group, ValueMap, random_words
from .groups import (
    ExtensionHandle,
    InfiniteDihedralGroup,
    IntegerGroup,
    WreathProductGroup,
    make_infinite_dihedral,
    make_integers,
)
from .ordinal import (
    ALEPH0,
    OMEGA,
    ZERO,
    CardinalBound,
    DepthClass,
    Ordinal,
    _coerce,
    classify,
    format_ordinal,
    ordinal_to_jsonable,
)
from .subgroups import commutator_subgroup
from .stages import (
    ChainError,
    SubgroupDescriptor,
    Transversal,
    ValueTest,
    _certify_transversal,
    _Image,
    _LazyRow,
    _RowChecks,
    _sourced,
    _value_map,
    _value_test,
)

__all__ = [
    "ChainSchema",
    "ChainCertificate",
    "DepthInterval",
    "chain_at",
    "limit_membership",
    "verify_prefix",
    "concat_extension",
    "compress_successor_tail",
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
        membership=ValueTest(lambda v: True),
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


def _split_stage_ordinal(i) -> tuple[int, int]:
    b = n = 0
    for exp, coeff in _coerce(i).terms:
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
    return chain.stage_at(*_split_stage_ordinal(i))


def limit_membership(chain: ChainSchema, i, element: Element,
                     budget: int = 64) -> Optional[bool]:
    """Lazy intersection membership at the limit ordinal i = w*b.

    Evaluates the canonical cofinal sequence (the previous block's stages)
    up to ``budget`` steps: False once some stage excludes the element, True
    only if the declared limit stage also accepts it, None when the budget
    runs out undecided.  A library chain answers from its exclusion depth
    and a caller's chain walks (see ``_first_excluding_step``).
    """
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
    """The first n in start..budget whose stage w*block + n excludes the element.

    A block rule that a library constructor returns carries the chain's
    exclusion depth: ``rule.exclusion(b, v, budget)`` is the first step of
    block b whose stage excludes the value v, or None when none does; past
    ``budget`` it may be any later step or None.  It is read when the
    chain's ``block_rule`` still carries it and the answer is at or past
    ``start``, so no stage is built.  A caller's block rule, or one that
    ``dataclasses.replace`` puts in, has none, and its stages are walked.
    """
    exclusion = getattr(chain.block_rule, "exclusion", None)
    if exclusion is not None and block < chain.num_blocks:
        n = exclusion(block, element.value, budget)
        if n is None or n > budget:
            return None
        if n >= start:
            return n
    for n in range(start, budget + 1):
        if not chain.stage_at(block, n).contains(element):
            return n
    return None


# --- built-in chains ---------------------------------------------------------


def _valuation(v: int, p: int) -> int:
    """The exponent of the prime power p^k that exactly divides v != 0."""
    k = 0
    while v % p == 0:
        v, k = v // p, k + 1
    return k


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
            membership=ValueTest(lambda v, m=modulus: v % m == 0),
            transversal=_LazyRow(z, lambda: Transversal(z, [j * p ** (n - 1) for j in range(p)])),
            label=f"multiples of {modulus}",
        )

    rule.exclusion = lambda b, v, budget: _valuation(v, p) + 1 if v else None
    final = SubgroupDescriptor(
        owner=z,
        membership=Element.is_identity,
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
                membership=ValueTest(lambda v: v[1] == 0),
                transversal=_LazyRow(d, lambda: Transversal(d, ((0, 0), (0, 1)))),
                label="translations",
            )
        modulus = p ** (n - 1)
        return SubgroupDescriptor(
            owner=d,
            membership=ValueTest(lambda v, m=modulus: v[1] == 0 and v[0] % m == 0),
            transversal=_LazyRow(d, lambda: Transversal(d, [(j * p ** (n - 2), 0)
                                                            for j in range(p)])),
            label=f"translations by multiples of {modulus}",
        )

    def exclusion(b: int, v, budget: int) -> Optional[int]:
        """1 for a flip, and nu_p(t) + 2 for a translation by t != 0."""
        if v[1]:
            return 1
        return _valuation(v[0], p) + 2 if v[0] else None

    rule.exclusion = exclusion
    final = SubgroupDescriptor(
        owner=d,
        membership=Element.is_identity,
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
    The cosets are products by ``Group.multiply``, read off the group's
    Cayley table when it has one.  With a table, each stage also keeps the
    decomposition as its coset table: each parent value maps to its digit
    and rep^-1 * value, which coset trees look up in place of the sift
    (``stages._table_placer``).  A group above ``ORACLE_CAP`` has no table
    and keeps none.  A trivial stage tests membership with
    ``Element.is_identity``, by which its transversal is recognised and
    checked in linear time, not pairwise.
    The last set need not be trivial; verification will fail such a chain,
    which is exactly what negative tests want.
    """
    if group.order is None:
        raise ChainError("finite chains need a finite group")
    sets = [frozenset(group.validate_value(v) for v in s) for s in subgroups]
    table = group.cayley_table()  # so that each product below is a table lookup
    values = group.element_values()
    ident = group.identity_value()
    prev = frozenset(values)
    stages = []
    for k, s in enumerate(sets, start=1):
        if not s <= prev:
            raise ChainError(f"stage {k} is not contained in stage {k - 1}")
        if not s or len(prev) % len(s):  # an empty set's size 0 divides nothing
            raise ChainError(f"stage {k} size does not divide its parent")
        reps, covered = [], {} if table else set()  # with a table: value -> (digit, residue)
        members = [(table.index[h], h) for h in s] if table else ()
        for v in sorted([v for v in values if v in prev], key=lambda v: v != ident):
            if v not in covered:
                if table:
                    row, d = table.mul[table.index[v]], len(reps)
                    covered.update((values[row[i]], (d, h)) for i, h in members)
                else:
                    covered.update(group.multiply(v, h) for h in s)
                reps.append(v)
        t = Transversal(group, reps)
        stage = SubgroupDescriptor(
            owner=group,
            membership=Element.is_identity if s == {ident} else ValueTest(s.__contains__),
            transversal=t,
            label=f"order {len(s)}",
        )
        if table:  # not a field: dataclasses.replace drops it, as it drops ``_source``
            object.__setattr__(stage, "_cosets", (t, covered))
        stages.append(stage)
        prev = s
    return ChainSchema(
        group=group, kappa=kappa, num_blocks=0, tail=tuple(stages),
        name=name or f"finite chain over {group.tag}",
    )


def single_step_chain(group: Group, kappa: CardinalBound = ALEPH0) -> ChainSchema:
    """The one-step chain: full group, then the trivial subgroup."""
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
    identity = (chain.group.identity_value(),)

    def rule(b: int, n: int) -> SubgroupDescriptor:
        if n <= r:
            return chain.stage_at(0, n)
        return SubgroupDescriptor(
            owner=chain.group,
            membership=last.membership,
            transversal=_LazyRow(chain.group, lambda: Transversal(chain.group, identity)),
            label=(last.label or "last stage") + " (repeated)",
        )

    rule.exclusion = lambda b, v, budget: next(
        (n for n in range(r + 1) if not _value_test(chain.stage_at(0, n))(v)), None)
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


def _mapped(stage: SubgroupDescriptor, f: Callable[[Element], Element], target: Group,
            stage_map: Callable[[SubgroupDescriptor], SubgroupDescriptor]):
    """``stage``'s row carried into ``target``, or None when the stage has
    none.  The row keeps its shape (``_LazyRow``): its factors, built on
    first read, are the images of the stage's factors, each representative
    value through the value map of ``f`` (``_value_map``), and its
    intermediates those of the stage through ``stage_map``."""
    t, values = stage.transversal, _value_map(f, stage.owner)
    if t is not None:
        return _LazyRow(target, lambda: Transversal(
            factors=[Transversal(target, map(values, reps)) for reps in t.factor_reps()],
            intermediates=map(stage_map, t.intermediates)), lambda: t.size)


def _imaged(stage: SubgroupDescriptor, maps, image: _Image) -> SubgroupDescriptor:
    """``stage``, marked as ``image`` when the library built every one of
    the extension's ``maps`` (each a ``ValueMap``).  A caller's maps are
    checked only on probes (``extension_from_quotient``), so a row mapped by
    them is certified factor by factor, on its own representatives."""
    return _sourced(stage, image) if all(isinstance(f, ValueMap) for f in maps) else stage


def _pullback_stage(ext: ExtensionHandle, stage: SubgroupDescriptor) -> SubgroupDescriptor:
    """The preimage of ``stage``: its value test of the projected value."""
    project, inside = _value_map(ext.projection, ext.total), _value_test(stage)
    return _imaged(SubgroupDescriptor(
        owner=ext.total,
        membership=ValueTest(lambda v: inside(project(v))),
        infinite_index=stage.infinite_index,
        transversal=None if ext.section is None
        else _mapped(stage, ext.section, ext.total, lambda k: _pullback_stage(ext, k)),
        label=f"pullback of {stage.label}" if stage.label else "pullback",
    ), (ext.projection, ext.section), _Image(ext.section, stage, project))


def _embed_kernel_stage(ext: ExtensionHandle, stage: SubgroupDescriptor) -> SubgroupDescriptor:
    """The copy of ``stage`` in the kernel: the projected value is the
    quotient's identity, and the retracted value passes ``stage``'s test."""
    project, one = _value_map(ext.projection, ext.total), ext.quotient.identity_value()
    retract, inside = _value_map(ext.kernel_retract, ext.total), _value_test(stage)
    return _imaged(SubgroupDescriptor(
        owner=ext.total,
        membership=ValueTest(lambda v: project(v) == one and inside(retract(v))),
        infinite_index=stage.infinite_index,
        transversal=_mapped(stage, ext.kernel_embed, ext.total,
                            lambda k: _embed_kernel_stage(ext, k)),
        label=f"kernel copy of {stage.label}" if stage.label else "kernel copy",
    ), (ext.projection, ext.kernel_embed, ext.kernel_retract),
       _Image(ext.kernel_embed, stage, lambda v: retract(v) if project(v) == one else None))


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

    excl_q, excl_n = (getattr(c.block_rule, "exclusion", None) for c in (chain_q, chain_n))

    def exclusion(b: int, v, budget: int) -> Optional[int]:
        """The quotient's depth of the projected value in its blocks.  In
        block q1, 0 off the quotient's final limit and 1 off the kernel;
        past it, 0 off the kernel; else the kernel's depth of the retracted
        value, at least 1 in block q1."""
        u = _value_map(ext.projection, ext.total)(v)
        if b < q1:
            return excl_q(b, u, budget)
        if b == q1 and not _value_test(chain_q.stage_at(q1, 0))(u):
            return 0
        if u != ext.quotient.identity_value():
            return int(b == q1)
        k = excl_n(b - q1, _value_map(ext.kernel_retract, ext.total)(v), budget)
        return k if b > q1 or k is None else max(1, k)

    if r1 == 0 and (excl_q or not q1) and (excl_n or not q2):
        rule.exclusion = exclusion
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

    The new final step keeps the old final stage; its transversal is the
    product of the old tail transversals, with the old tail stages between
    them, so its index is the product of the old tail indices.
    """
    r = len(chain.tail)
    if r < 2:
        raise ChainError("nothing to compress: tail has fewer than 2 steps")
    if any(s.infinite_index or s.transversal is None for s in chain.tail):
        raise ChainError("tail contains a non-finite or unverified index")
    last = chain.tail[-1]
    merged = SubgroupDescriptor(
        owner=chain.group,
        membership=last.membership,
        transversal=Transversal(factors=[s.transversal for s in chain.tail],
                                intermediates=chain.tail[:-1]),
        label=(last.label or "final stage") + " (compressed)",
    )
    return ChainSchema(
        group=chain.group, kappa=chain.kappa, num_blocks=chain.num_blocks,
        block_rule=chain.block_rule, final_limit=chain.final_limit,
        tail=(merged,), name=f"compressed {chain.name}", flags=chain.flags,
    )


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
    derived = frozenset(commutator_subgroup(wreath.base).element_values())
    one = wreath.top.identity_value()
    upper = ValueTest(lambda v: v[1] == one)
    lower = ValueTest(lambda v: v[1] == one and all(b in derived for _, b in v[0]))

    lower_desc = SubgroupDescriptor(
        owner=wreath, membership=lower, infinite_index=True,
        label="derived-valued functions, trivial top",
    )
    upper_desc = SubgroupDescriptor(
        owner=wreath, membership=upper, infinite_index=True,
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


_Fail = Callable[[str, Ordinal, Optional[Element]], None]


def _blocks(chain: ChainSchema, levels: int) -> list[list[SubgroupDescriptor]]:
    """The stages checked, block by block: steps 0..``levels`` of every
    block, then the final limit and the tail as the last block."""
    q = chain.num_blocks
    return [[chain.stage_at(b, n) for n in range(levels + 1 if b < q else len(chain.tail) + 1)]
            for b in range(q + 1)]


def _check_identity_and_fullness(blocks, probes: list[Element], mem,
                                 identity: Element, fail: _Fail) -> None:
    for b, block in enumerate(blocks):
        for n, stage in enumerate(block):
            if not stage.contains(identity):
                fail("stage rejects the identity", OMEGA * b + n, identity)
    for pi, p in enumerate(probes):
        if not mem[pi][0][0]:
            fail("stage 0 is not the full group", ZERO, p)


def _check_limit_coherence(chain: ChainSchema, probes: list[Element], mem, budget: int,
                           fail: _Fail):
    """Each declared limit stage w*b against the lazy intersection of block b - 1,
    whose checked steps are read from ``mem``; only deeper ones are tested.
    Returns the step of that block that excludes each rejected probe, keyed
    (probe, b), and the (probe, b) pairs no step within the budget excludes."""
    witness_step: dict[tuple[int, int], int] = {}
    unresolved: list[tuple[int, int]] = []
    for b in range(1, chain.num_blocks + 1):
        for pi, p in enumerate(probes):
            below = mem[pi][b - 1][:budget + 1]
            found = below.index(False) if False in below else _first_excluding_step(
                chain, b - 1, p, budget, start=len(below))
            if found is not None:
                if mem[pi][b][0]:
                    fail("limit stage accepts an element excluded below it",
                         OMEGA * (b - 1) + found, p)
                else:
                    witness_step[pi, b] = found
            elif not mem[pi][b][0]:
                unresolved.append((pi, b))
    return witness_step, unresolved


def _step_index(ordinal_i: Ordinal, stage: SubgroupDescriptor, parent: SubgroupDescriptor,
                probes: list[Element], in_parent: list[bool], in_stage: list[bool],
                kappa: CardinalBound, fail: _Fail, rows: _RowChecks):
    """The index entry of one successor stage: certified by the transversal when
    the stage has one, otherwise a probe-counted lower bound or "unverified"."""
    if stage.infinite_index:
        fail("step index is infinite", ordinal_i, None)
        return "infinite"
    if stage.transversal is not None:
        size, failure = _certify_transversal(stage.transversal, parent, stage, probes,
                                             in_parent, in_stage, rows)
        if failure is not None:
            fail(failure[0], ordinal_i, failure[1])
            return None
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


def _check_indices(blocks, probes: list[Element], mem, kappa: CardinalBound,
                   fail: _Fail) -> list[dict]:
    """Descent from step n - 1 to step n of each block and the step index,
    one report per stage.  The rows share one ``_RowChecks``, so each
    distinct row is checked once."""
    reports, rows = [], _RowChecks()
    for b, block in enumerate(blocks):
        for n, stage in enumerate(block):
            ordinal_i, descent_ok, index_value = OMEGA * b + n, True, None
            if n >= 1:
                in_parent, in_stage = [m[b][n - 1] for m in mem], [m[b][n] for m in mem]
                for p, outside, inside in zip(probes, in_parent, in_stage):
                    if inside and not outside:
                        fail("descent violated", ordinal_i, p)
                        descent_ok = False
                index_value = _step_index(ordinal_i, stage, block[n - 1], probes,
                                          in_parent, in_stage, kappa, fail, rows)
            reports.append({"stage": format_ordinal(ordinal_i), "index": index_value,
                            "descent": descent_ok})
    return reports


def _separations(probes: list[Element], mem,
                 witness_step: dict[tuple[int, int], int]) -> list[dict]:
    """The first stage known to exclude each probe, sorted by probe: the
    first checked stage that does, or the step below a rejecting limit."""
    stage_text = functools.cache(lambda b, n: format_ordinal(OMEGA * b + n))
    separations = []
    for pi, p in enumerate(probes):
        first = next((stage_text(b - 1, witness_step[pi, b]) if (pi, b) in witness_step
                      else stage_text(b, steps.index(False))
                      for b, steps in enumerate(mem[pi]) if False in steps), "unresolved")
        separations.append({"probe": _probe_id(p), "first_excluding_stage": first})
    separations.sort(key=lambda s: (s["probe"], s["first_excluding_stage"]))
    return separations


def verify_prefix(chain: ChainSchema, levels: int, probes: int, seed: int,
                  kappa: Optional[CardinalBound] = None, word_len: int = 8,
                  limit_budget: int = 64) -> ChainCertificate:
    """Probe-based verification of a chain prefix.

    Checks ``levels`` finite steps past each limit stage, in phases: the
    stages to check, block by block; the identity in every stage and stage
    0 full; coherence of each declared limit stage against the lazy
    intersection of the previous block, which a library chain answers from
    its exclusion depth, building no stage past the checked steps, and a
    caller's chain or a replaced block rule by walking the stages (see
    ``_first_excluding_step``); descent between consecutive steps
    of a block and step indices strictly below kappa (certified by
    transversals where present, otherwise probe-counted and left
    unverified); triviality of the final stage on probes; and the first
    excluding stage of every probe.
    Failures are verdicts with witnesses, never exceptions.  A run that
    draws no probes is at best inconclusive.

    A transversal is certified factor by factor (see ``Transversal``):
    each factor must hit the identity coset, lie inside K_(j-1) and be
    pairwise distinct modulo K_j; the K_j must nest on the probes; and each
    parent probe is sifted through the factors, and the sift's last digit
    is the stage's own membership test.  The index is the
    product of the factor sizes, so a row is never built in full.  An
    explicit transversal is a single factor, checked pairwise.  Each
    stage's own row goes through ``stages._RowChecks``, each distinct row
    once per run.  Rows of pullbacks, kernel copies and powers keep their
    shape and are certified through the rows they map, each probe at its
    supported points only.
    """
    if levels < 1:
        raise ChainError("need at least one level")
    kappa = kappa if kappa is not None else chain.kappa
    probe_elements = random_words(chain.group, probes, seed, max_len=word_len)
    blocks = _blocks(chain, levels)
    failures: list[dict] = []

    def fail(reason: str, stage: Ordinal, witness: Optional[Element]):
        failures.append({
            "reason": reason,
            "stage": format_ordinal(stage),
            "witness": None if witness is None else _probe_id(witness),
        })

    tests = [[_value_test(stage) for stage in block] for block in blocks]
    mem = [[[inside(p.value) for inside in block] for block in tests] for p in probe_elements]
    _check_identity_and_fullness(blocks, probe_elements, mem, chain.group.identity(), fail)
    witness_step, unresolved = _check_limit_coherence(chain, probe_elements, mem,
                                                      limit_budget, fail)
    level_reports = _check_indices(blocks, probe_elements, mem, kappa, fail)
    for pi, p in enumerate(probe_elements):
        if mem[pi][-1][-1]:
            fail("final stage accepts a non-identity probe", chain.length, p)
    separations = _separations(probe_elements, mem, witness_step)

    flags = list(chain.flags)
    for pi, b in unresolved:
        flags.append(
            f"limit {format_ordinal(OMEGA * b)} rejection of probe "
            f"{_probe_id(probe_elements[pi])} unresolved within budget {limit_budget}"
        )
    index_unverified = any(report["index"] == "unverified" for report in level_reports)
    if index_unverified:
        flags.append("some step indices could not be certified by a transversal")
    if not probe_elements:
        flags.append("no probes were drawn, so no probe-based check ran")

    doubtful = not probe_elements or unresolved or index_unverified
    verdict = "fail" if failures else "inconclusive" if doubtful else "pass"

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
