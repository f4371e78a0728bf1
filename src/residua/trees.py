"""Rooted coset trees for chains, and both directions of the correspondence.

A chain whose materialized stages carry transversals induces a rooted tree:
the level-k vertices inside one block are the coherent tuples of cosets of
the first k stages, encoded as mixed-radix digit strings over the stage
transversals (digit i picks the coset representative at stage i).  Parent
maps drop the last digit.  Group elements act by left translation.  An
element is placed level by level: by one lookup in the coset table that
``finite_chain`` keeps for a stage while the stage still holds it, and
otherwise by the verifier's factorwise sift (``stages._table_placer``,
``stages._placer``).  A deepest vertex r*K (K the last stage) is fixed
exactly by the conjugate r*K*r^-1; stabilizers of a root-to-leaf thread
recover a chain, conjugate to the original when the thread is not the
identity one, and each is built from the truncation's stage by
conjugation, with no element scanned.

Limit levels are never enumerated: a truncation materializes finitely many
levels of one block, hanging off the identity thread at the block's base.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

from .chains import ChainSchema, _first_excluding_step, _probe_id, _split_stage_ordinal
from .elements import Element, GroupError, random_words
from .ordinal import OMEGA, Ordinal, format_ordinal, json_text
from .stages import (ChainError, SubgroupDescriptor, Transversal, ValueTest, _placer,
                     _table_placer, _value_test)

__all__ = [
    "TreeError",
    "NonMaterializableError",
    "AlphaTreeSchema",
    "TreeTruncation",
    "TreeAutomorphism",
    "SimplicityReport",
    "coset_tree",
    "truncate",
    "restriction_map",
    "act",
    "verify_simple",
    "stabilizer_chain",
    "emit",
    "parse_truncation",
]

MATERIALIZATION_CAP = 200_000


class TreeError(GroupError):
    """Invalid tree construction or usage."""


class NonMaterializableError(TreeError):
    """A requested level cannot be materialized (no certified finite fibre)."""


@dataclass(frozen=True)
class AlphaTreeSchema:
    """Lazily defined coset tree of a chain.

    A vertex at stage w*b + n is a coherent tuple of cosets of the first n
    stages of block b, encoded as digits into the stage transversals; its
    parent drops the last digit.
    """

    chain: ChainSchema


@dataclass(frozen=True)
class TreeTruncation:
    """Explicit levels 0..d of one block's subtree.

    Level k has the product of the first k ``fibres`` as vertices, mixed-radix
    digit strings with siblings consecutive, so vertex i's parent one level
    up is i // fibres[k - 1].  ``chain``, whose stages carry the
    transversals, powers the group action; it is absent on truncations
    parsed back from JSON.
    """

    block: int
    fibres: tuple[int, ...]
    provenance: str
    chain: Optional[ChainSchema] = None

    @property
    def depth(self) -> int:
        return len(self.fibres)

    @cached_property
    def _sizes(self) -> tuple[int, ...]:
        return tuple(itertools.accumulate(self.fibres, operator.mul, initial=1))

    def _level(self, level: int) -> int:
        """The level itself, if it is materialized; otherwise raise TreeError."""
        if not 0 <= level <= self.depth:
            raise TreeError(f"level {level} not materialized (depth {self.depth})")
        return level

    def size(self, level: int) -> int:
        return self._sizes[self._level(level)]

    def parent(self, level: int, idx: int) -> int:
        if not 0 < level <= self.depth or not 0 <= idx < self._sizes[level]:
            raise TreeError(f"no vertex {idx} with a parent at level {level}")
        return idx // self.fibres[level - 1]

    @property
    def levels(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(size, parents) for each level, parents[i] the parent of vertex i;
        built on each read."""
        return ((1, ()), *((size, tuple([i // f for i in range(size)]))
                           for size, f in zip(self._sizes[1:], self.fibres)))

    def base_ordinal(self) -> Ordinal:
        return OMEGA * self.block

    def index_of_digits(self, digits: tuple[int, ...]) -> int:
        self._level(len(digits))
        idx = 0
        for k, (d, f) in enumerate(zip(digits, self.fibres), start=1):
            if not 0 <= d < f:
                raise TreeError(f"no digit {d} at level {k} (fibre {f})")
            idx = idx * f + d
        return idx

    def _stages(self, depth: int) -> list[SubgroupDescriptor]:
        """The block's stages at local levels 0..depth."""
        if self.chain is None:
            raise TreeError("truncation has no chain backing")
        return [self.chain.stage_at(self.block, k) for k in range(depth + 1)]

    def _row(self, level: int) -> Transversal:
        """The product of the block's transversals at local levels 1..level,
        after the identity: vertex i's representative is its i-th one."""
        stages, group = self._stages(level), self.chain.group
        return Transversal(factors=[Transversal(group, (group.identity_value(),)),
                                    *(s.transversal for s in stages[1:])],
                           intermediates=stages[:-1])

    def representative(self, level: int, idx: int) -> Element:
        """A group element whose coset thread is this vertex."""
        if not 0 <= idx < self.size(level):
            raise TreeError(f"no vertex {idx} at level {level}")
        return self._row(level).rep(idx)

    @cached_property
    def _placers(self) -> list[Callable]:
        """Each level's placement routine, built on first use: the lookup in
        the stage's coset table (``stages._table_placer``), or else the sift
        (``stages._placer``)."""
        stages = self._stages(self.depth)
        return [_table_placer(stage) or _placer(stage.transversal, stage)
                for stage in stages[1:]]

    @cached_property
    def _deepest_reps(self) -> list[Element]:
        """Representatives of the deepest vertices, in index order, built on first use."""
        return list(self._row(self.depth))

    def _check_element(self, e: Element) -> None:
        """Raise TreeError unless e belongs to the backing chain's group."""
        if self.chain is None:
            raise TreeError("truncation has no chain backing")
        group = self.chain.group
        if e.group is not group and e.group.tag != group.tag:
            raise TreeError(f"element of {e.group.tag} cannot act on a tree over {group.tag}")

    def digits_of_element(self, e: Element, depth: Optional[int] = None) -> tuple[int, ...]:
        """Digit string of the coset thread of a group element."""
        self._check_element(e)
        if depth is not None:
            self._level(depth)
        return self._digits(e.value, depth)

    def _digits(self, v, depth: Optional[int] = None) -> tuple[int, ...]:
        """Digit string of the value ``v``'s coset thread, down to ``depth``
        (the deepest level when None); a level that does not cover it raises."""
        digits = []
        for k, place in enumerate(self._placers[:depth], start=1):
            placed = place(v)
            if placed is None:
                raise TreeError(f"transversal at level {k} does not cover the element")
            d, v = placed
            digits.append(d)
        return tuple(digits)

    def thread_of(self, e: Element) -> tuple[int, ...]:
        """Vertex indices of the element's coset thread, root to deepest."""
        digits = self.digits_of_element(e)
        return tuple(
            self.index_of_digits(digits[:k]) for k in range(self.depth + 1)
        )


@dataclass(frozen=True)
class TreeAutomorphism:
    """A tree automorphism, given by its images of the deepest vertices.

    ``spans[k]`` is the number of deepest vertices below one level-k vertex;
    a vertex's descendants are consecutive, so the image of level-k vertex i
    is the image of its first deepest descendant divided by ``spans[k]``.
    """

    images: tuple[int, ...]
    spans: tuple[int, ...]

    def apply(self, level: int, idx: int) -> int:
        span = self.spans[level]
        return self.images[idx * span] // span

    @property
    def tables(self) -> tuple[tuple[int, ...], ...]:
        """Each level's bijection table, derived on each read."""
        return tuple(tuple([image // span for image in self.images[::span]])
                     for span in self.spans)

    def compose(self, other: "TreeAutomorphism") -> "TreeAutomorphism":
        mine = self.images
        return TreeAutomorphism(tuple([mine[i] for i in other.images]), self.spans)

    def is_identity(self) -> bool:
        return self.images == tuple(range(len(self.images)))


def coset_tree(chain: ChainSchema) -> AlphaTreeSchema:
    """The rooted tree whose level-j vertices are coherent coset tuples."""
    return AlphaTreeSchema(chain=chain)


def truncate(tree: AlphaTreeSchema, d: int, block: int = 0) -> TreeTruncation:
    """Materialize the first d finite steps of one block.

    Levels are vertices below the identity thread's vertex at the block's
    base; each step needs a finite index, certified by its transversal,
    whose size is the level's fibre, otherwise the level is not
    materializable.
    """
    chain = tree.chain
    if d < 0:
        raise TreeError("negative depth")
    if block < 0 or block > chain.num_blocks:
        raise NonMaterializableError(f"block {block} outside the chain")
    if block == chain.num_blocks and d > len(chain.tail):
        raise NonMaterializableError(
            f"{d} levels requested but the final segment has {len(chain.tail)} steps"
        )
    fibres = []
    total = 1
    for k in range(1, d + 1):
        stage = chain.stage_at(block, k)
        if stage.infinite_index or stage.transversal is None:
            raise NonMaterializableError(
                f"stage {format_ordinal(OMEGA * block + k)} has no certified finite fibre"
            )
        fibre = stage.transversal.size
        if not chain.kappa.admits(fibre):
            raise TreeError(f"fibre {fibre} at level {k} is not below kappa {chain.kappa}")
        total *= fibre
        if total > MATERIALIZATION_CAP:
            raise NonMaterializableError("materialization exceeds the vertex cap")
        fibres.append(fibre)
    return TreeTruncation(
        block=block,
        fibres=tuple(fibres),
        provenance=f"coset_tree({chain.name or chain.group.tag}; block={block})",
        chain=chain,
    )


def _local_level(tr: TreeTruncation, i) -> int:
    """Translate an ordinal (or int offset) into a materialized local level."""
    if isinstance(i, int):
        local = i
    else:
        if i < tr.base_ordinal():
            raise TreeError(f"level {format_ordinal(i)} below this truncation's base")
        try:
            blocks, local = _split_stage_ordinal(i)
        except ChainError as exc:
            raise TreeError(str(exc)) from exc
        if blocks != tr.block:
            raise TreeError(f"level {format_ordinal(i)} is not in block {tr.block}")
    return tr._level(local)


def restriction_map(tr: TreeTruncation, i, j) -> Callable[[int], int]:
    """The map from level-j vertices down to level-i vertices (i <= j)."""
    li, lj = _local_level(tr, i), _local_level(tr, j)
    if li > lj:
        raise TreeError("restriction maps go from deeper levels to shallower ones")
    divisor = tr.size(lj) // tr.size(li)
    return lambda idx: idx // divisor


def act(g: Element, tr: TreeTruncation) -> TreeAutomorphism:
    """Left translation of a group element on the materialized levels.

    Each deepest vertex's image g * rep is placed by one sift; a shallower
    vertex's image is the ancestor its descendants' images share, their
    index divided by the number of deepest vertices below one vertex of
    that level, so the tables commute with the parent maps by arithmetic
    once siblings agree."""
    tr._check_element(g)
    if tr.block > 0 and not tr._stages(0)[0].contains(g):
        raise TreeError("element does not stabilize this block's base vertex")
    images = tuple([tr.index_of_digits(tr.digits_of_element(g * rep))
                    for rep in tr._deepest_reps])
    spans = tuple(len(images) // size for size in tr._sizes)
    for span in spans[:-1]:  # one (vertex, image) pair per vertex: its descendants agree
        if len({(i // span, image // span) for i, image in enumerate(images)}) != len(images) // span:
            raise TreeError("sibling vertices disagree")
    return TreeAutomorphism(images, spans)


@dataclass(frozen=True)
class SimplicityReport:
    """Outcome of the fixed-point-freeness check on the deepest level.

    Exhaustive mode (finite chains, fully materialized) yields a verdict;
    probe mode only ever reports evidence: the level at which each probe
    moved the identity thread, violations, or unresolved probes.
    """

    mode: str  # "exhaustive" | "probe"
    verdict: str  # "simple" | "violation" | "no-violation-found"
    violations: tuple[dict, ...] = ()
    moved: tuple[dict, ...] = ()
    unresolved: tuple[str, ...] = ()

    def to_jsonable(self) -> dict:
        return {
            "mode": self.mode,
            "verdict": self.verdict,
            "violations": list(self.violations),
            "moved": list(self.moved),
            "unresolved": list(self.unresolved),
        }


def verify_simple(chain: ChainSchema, tr: Optional[TreeTruncation] = None,
                  probes: int = 32, seed: int = 0, budget: int = 12) -> SimplicityReport:
    """Check that nontrivial elements move every deepest-level vertex.

    For finite chains over finite groups this is exhaustive over all elements
    and all deepest vertices, and the verdict is definitive: fixed-point
    freeness there holds exactly when the chain terminates at the trivial
    subgroup.  The element group is checked once, and every element value
    is placed once, by lookup or sift (``TreeTruncation._placers``), so a
    transversal that misses a coset raises; the fixed points are then read
    off the last stage K, with no element translated vertex by vertex:
    deepest vertex r*K is fixed exactly by the conjugates r*k*r^-1, k in K
    (Holt, Eick and O'Brien, *Handbook of Computational Group Theory*,
    2005, ch. 4), and a trivial K fixes none.  Otherwise
    each probe is walked down the stages (``budget`` steps per block) until
    a stage excludes it, i.e. until it moves the identity thread's vertex at
    that level.  A probe that survives a block's budget but not the limit
    stage after it is unresolved: some later step of that block moves it.
    No simplicity verdict is issued.
    """
    group = chain.group
    exhaustive = (
        chain.num_blocks == 0
        and group.order is not None
        and tr is not None
        and tr.depth == len(chain.tail)
    )
    if exhaustive:
        group.cayley_table()  # element products below become lookups
        tr._check_element(group.identity())  # every value below is of this group
        values = group.element_values()
        for v in values:  # a transversal that misses a coset raises here
            tr._digits(v)
        inside, one = _value_test(tr._stages(tr.depth)[-1]), group.identity_value()
        members = [v for v in values if v != one and inside(v)]
        multiply, fixed = group.multiply, {}  # value -> the deepest vertices it fixes, ascending
        for idx, rep in enumerate(tr._deepest_reps if members else ()):
            r, r_inv = rep.value, group.invert(rep.value)
            for k in members:  # g fixes rep*K iff g is in rep*K*rep^-1
                fixed.setdefault(multiply(multiply(r, k), r_inv), []).append(idx)
        violations = [{"element": _probe_id(Element(group, v)), "level": tr.depth, "vertex": idx}
                      for v in values for idx in fixed.get(v, ())]
        return SimplicityReport(
            mode="exhaustive",
            verdict="simple" if not violations else "violation",
            violations=tuple(violations),
        )

    probe_elements = random_words(group, probes, seed)
    moved = []
    unresolved = []
    violations = []
    q, r = chain.num_blocks, len(chain.tail)
    for p in probe_elements:
        for b in range(q + 1):  # stage (b, 0) for b >= 1 was read by the block before
            n = _first_excluding_step(chain, b, p, budget if b < q else r, start=min(b, 1))
            if n is not None:
                level = format_ordinal(OMEGA * b + n)
                moved.append({"probe": _probe_id(p), "moved_at_level": level})
                break
            if b < q and not chain.stage_at(b + 1, 0).contains(p):
                unresolved.append(_probe_id(p))  # block b excludes it past the budget
                break
        else:  # p is in the final stage: it fixes the identity thread's deepest vertex
            violations.append({"element": _probe_id(p), "level": format_ordinal(chain.length),
                               "vertex": "identity thread"})
    moved.sort(key=lambda m: (m["probe"], m["moved_at_level"]))
    return SimplicityReport(
        mode="probe",
        verdict="violation" if violations else "no-violation-found",
        violations=tuple(violations),
        moved=tuple(moved),
        unresolved=tuple(sorted(unresolved)),
    )


def stabilizer_chain(tr: TreeTruncation, thread: tuple[int, ...]) -> ChainSchema:
    """Recover the chain of vertex stabilizers along a root-to-deepest thread.

    The acting group must be finite.  The thread's vertex at level k is
    r_k*K_k, where K_k is the truncation's stage and r_k = r_(k-1) * t, t
    the stage's representative at the thread's digit, one product per level;
    its stabilizer is the conjugate r_k*K_k*r_k^-1 (Holt, Eick and O'Brien,
    *Handbook of Computational Group Theory*, 2005, ch. 4).  So each stage
    is built from the truncation's own by conjugation, with no element
    scanned: a value v is a member when r_k^-1 * v * r_k lies in K_k, and
    the representatives r_(k-1) * s * r_k^-1, s in K_k's transversal and in
    its order, are a transversal in the stage above, since their cosets
    are r_(k-1) * s*K_k * r_k^-1.  A stage whose r_k is the identity, or
    that is trivial, keeps its own membership test, so the identity thread
    returns the original stages.
    """
    stages = tr._stages(tr.depth)
    group = tr.chain.group
    if group.order is None:
        raise TreeError("stabilizer chains need a finite acting group")
    if len(thread) != tr.depth + 1 or thread[0] != 0:
        raise TreeError("thread must run from the root to the deepest level")
    for k in range(1, len(thread)):
        if tr.parent(k, thread[k]) != thread[k - 1]:
            raise TreeError("incoherent thread: parent links broken")
    multiply, one = group.multiply, group.identity_value()
    rep, recovered = one, []
    for k, stage in enumerate(stages[1:], start=1):
        above, t = rep, stage.transversal
        rep = multiply(above, t.rep(thread[k] % tr.fibres[k - 1]).value)
        rep_inv, membership = group.invert(rep), stage.membership
        if rep != one and membership is not Element.is_identity:
            membership = ValueTest(lambda v, r=rep, r_inv=rep_inv, inside=_value_test(stage):
                                   inside(multiply(multiply(r_inv, v), r)))
        recovered.append(SubgroupDescriptor(
            owner=group, membership=membership, label=stage.label,
            transversal=Transversal(group, [multiply(multiply(above, s.value), rep_inv)
                                            for s in t])))
    return ChainSchema(group=group, kappa=tr.chain.kappa, num_blocks=0, tail=tuple(recovered),
                       name=f"stabilizers along {list(thread)} of {tr.provenance}")


def emit(tr: TreeTruncation, format: str) -> str:
    """Render a truncation: "dot" for graphviz, "json" for the level schema."""
    if format == "dot":
        lines = ["digraph tree {"]
        for level, size in enumerate(tr._sizes):
            lines += [f'  "L{level}_{idx}" [label="{level}:{idx}"];' for idx in range(size)]
        for level, f in enumerate(tr.fibres, start=1):
            lines += [f'  "L{level - 1}_{idx // f}" -> "L{level}_{idx}";'
                      for idx in range(tr._sizes[level])]
        lines.append("}")
        return "\n".join(lines) + "\n"
    if format == "json":
        payload = {
            "depth": tr.depth,
            "levels": [
                {"size": size, "parents": list(parents)}
                for size, parents in tr.levels
            ],
            "provenance": tr.provenance,
        }
        return json_text(payload)
    raise TreeError(f"unknown format {format!r}")


def _integer(x) -> int:
    """x, if it is a JSON integer; a float, a boolean or a string raises TypeError."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def parse_truncation(text: str) -> TreeTruncation:
    """Inverse of the JSON emission; the result has no chain backing.

    Only fibred trees parse: each level's size is a positive multiple f of
    the size above and vertex i's parent is i // f, as ``emit`` writes them.
    Any other document raises ``TreeError``.
    """
    try:
        data = json.loads(text)
        levels = [(_integer(lv["size"]), [_integer(p) for p in lv["parents"]])
                  for lv in data["levels"]]
        depth, provenance = _integer(data["depth"]), str(data.get("provenance", ""))
    except (ValueError, TypeError, KeyError) as exc:
        raise TreeError(f"malformed truncation document: {exc}") from exc
    if not levels or levels[0] != (1, []):
        raise TreeError("level 0 must be a single root")
    fibres, prev_size = [], 1
    for k, (size, parents) in enumerate(levels[1:], start=1):
        if len(parents) != size:
            raise TreeError(f"level {k} parent table has the wrong length")
        if size < prev_size or size % prev_size:
            raise TreeError(f"level {k} size is not a fibre multiple")
        f = size // prev_size
        if parents != [i // f for i in range(size)]:
            raise TreeError(f"level {k} parent table is not fibred")
        fibres.append(f)
        prev_size = size
    if depth != len(levels) - 1:
        raise TreeError("depth field disagrees with the level list")
    return TreeTruncation(block=0, fibres=tuple(fibres), provenance=provenance)
