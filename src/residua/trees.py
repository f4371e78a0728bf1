"""Rooted coset trees for chains, and both directions of the correspondence.

A chain whose materialized stages carry transversals induces a rooted tree:
the level-k vertices inside one block are the coherent tuples of cosets of
the first k stages, encoded as mixed-radix digit strings over the stage
transversals (digit i picks the coset representative at stage i).  Parent
maps drop the last digit.  Group elements act by left translation, placed
by the verifier's factorwise sift; stabilizers of a root-to-leaf thread
recover a chain, conjugate to the original when the thread is not the
identity one.

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

from .chains import (ChainSchema, _first_excluding_step, _probe_id, _split_stage_ordinal,
                     finite_chain)
from .groups import Element, GroupError, random_words
from .ordinal import OMEGA, Ordinal, format_ordinal
from .stages import ChainError, SubgroupDescriptor, Transversal, _placer

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

    def size(self, level: int) -> int:
        return self._sizes[level]

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
        idx = 0
        for k, d in enumerate(digits):
            idx = idx * self.fibres[k] + d
        return idx

    def _stages(self, depth: int) -> list[SubgroupDescriptor]:
        """The block's stages at local levels 0..depth."""
        if self.chain is None:
            raise TreeError("truncation has no chain backing")
        return [self.chain.stage_at(self.block, k) for k in range(depth + 1)]

    def representative(self, level: int, idx: int) -> Element:
        """A group element whose coset thread is this vertex."""
        stages = self._stages(level)
        root = Transversal((self.chain.group.identity(),))
        return Transversal(factors=[root, *(s.transversal for s in stages[1:])],
                           intermediates=stages[:-1]).rep(idx)

    @cached_property
    def _placers(self) -> list[Callable]:
        """Each level's placement routine (``stages._placer``), built on first use."""
        stages = self._stages(self.depth)
        return [_placer(stage.transversal, stage) for stage in stages[1:]]

    @cached_property
    def _deepest_reps(self) -> list[Element]:
        """Representatives of the deepest vertices, in index order, built on first use."""
        stages, reps = self._stages(self.depth), [self.chain.group.identity()]
        for stage in stages[1:]:  # the last factor varies fastest, as in representative
            reps = [r * t for r in reps for t in stage.transversal]
        return reps

    @cached_property
    def _placed(self) -> dict[Element, int]:
        """Deepest vertex indices of the elements placed so far (at most MATERIALIZATION_CAP)."""
        return {}

    def _placement(self, e: Element) -> int:
        """Index of the deepest vertex on the element's coset thread, sifted once."""
        idx = self._placed.get(e)
        if idx is None:
            idx = self.index_of_digits(self.digits_of_element(e))
            if len(self._placed) < MATERIALIZATION_CAP:
                self._placed[e] = idx
        return idx

    def digits_of_element(self, e: Element, depth: Optional[int] = None) -> tuple[int, ...]:
        """Digit string of the coset thread of a group element."""
        if depth is not None and not 0 <= depth <= self.depth:
            raise TreeError(f"level {depth} not materialized (depth {self.depth})")
        digits = []
        for k, place in enumerate(self._placers[:depth], start=1):
            placed = place(e)
            if placed is None:
                raise TreeError(f"transversal at level {k} does not cover the element")
            d, e = placed
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
    base; each step needs a certified finite index equal to the size of its
    transversal, which is the level's fibre, otherwise the level is not
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
        idx = stage.index_in_parent
        if idx is None or not idx.is_finite or stage.transversal is None:
            raise NonMaterializableError(
                f"stage {format_ordinal(OMEGA * block + k)} has no certified finite fibre"
            )
        fibre = stage.transversal.size
        if idx.value != fibre:
            raise NonMaterializableError(
                f"stage {format_ordinal(OMEGA * block + k)} declares index {idx.value} "
                f"but its transversal has {fibre} cosets"
            )
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
    if not 0 <= local <= tr.depth:
        raise TreeError(f"level {local} not materialized (depth {tr.depth})")
    return local


def restriction_map(tr: TreeTruncation, i, j) -> Callable[[int], int]:
    """The map from level-j vertices down to level-i vertices (i <= j)."""
    li, lj = _local_level(tr, i), _local_level(tr, j)
    if li > lj:
        raise TreeError("restriction maps go from deeper levels to shallower ones")
    divisor = tr.size(lj) // tr.size(li)
    return lambda idx: idx // divisor


def act(g: Element, tr: TreeTruncation) -> TreeAutomorphism:
    """Left translation of a group element on the materialized levels.

    Each deepest vertex's image g * rep is placed once (elements placed by
    earlier calls are looked up on the truncation); a shallower vertex's
    image is the ancestor its descendants' images share, their index divided
    by the number of deepest vertices below one vertex of that level, so the
    tables commute with the parent maps by arithmetic once siblings agree.
    ``verify_simple`` calls this only for the identity and the generators
    and composes the other elements' deepest images."""
    base = tr._stages(0)[0]
    group = tr.chain.group
    if g.group is not group and g.group.tag != group.tag:
        raise TreeError(f"element of {g.group.tag} cannot act on a tree over {group.tag}")
    if tr.block > 0 and not base.contains(g):
        raise TreeError("element does not stabilize this block's base vertex")
    images = tuple([tr._placement(g * rep) for rep in tr._deepest_reps])
    spans = tuple(len(images) // size for size in tr._sizes)
    for span in spans[:-1]:  # one (vertex, image) pair per vertex: its descendants agree
        assert len({(i // span, image // span) for i, image in enumerate(images)}) \
            == len(images) // span, "sibling vertices disagree"
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
    subgroup.  Only the identity and the generators are translated vertex
    by vertex (``act``); every other element's tables are composed from
    theirs along a breadth-first search (Holt, Eick and O'Brien, *Handbook
    of Computational Group Theory*, 2005, ch. 4), and elements the search
    does not reach are translated directly.  Each element's image of the
    first deepest vertex is checked against placing e * rep, so every
    element is still sifted once and a transversal that misses a coset
    still raises.  Otherwise each probe is walked down the stages (``budget``
    steps per block) until a stage excludes it, i.e. until it moves the
    identity thread's vertex at that level; probes the budget cannot settle
    stay unresolved and no simplicity verdict is issued.
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
        identity, deepest = group.identity(), tr.depth
        autos = {identity: act(identity, tr)}
        generators = [(s, act(s, tr)) for s in group.generators]
        reached = [identity]
        for g in reached:  # breadth-first: the list grows as it is read
            for s, s_auto in generators:
                h = s * g
                if h not in autos:
                    autos[h] = s_auto.compose(autos[g])
                    reached.append(h)
        first, violations = tr._deepest_reps[0], []
        for e in group.elements():
            images = (autos[e] if e in autos else act(e, tr)).images
            if images[0] != tr._placement(e * first):
                raise TreeError(f"action of {_probe_id(e)} disagrees with its placement")
            if not e.is_identity():
                violations += [{"element": _probe_id(e), "level": deepest, "vertex": idx}
                               for idx, image in enumerate(images) if image == idx]
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
        found = None
        for b in range(q + 1):
            n = _first_excluding_step(chain, b, p, budget if b < q else r)
            if n is not None:
                found = OMEGA * b + n
                break
        if found is None:
            # the probe survives every checked stage; at the final stage this
            # witnesses a fixed deepest vertex on the identity thread
            final = chain.stage_at(q, r)
            if final.contains(p):
                violations.append(
                    {
                        "element": _probe_id(p),
                        "level": format_ordinal(chain.length),
                        "vertex": "identity thread",
                    }
                )
            else:
                unresolved.append(_probe_id(p))
        else:
            moved.append(
                {"probe": _probe_id(p), "moved_at_level": format_ordinal(found)}
            )
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

    The acting group must be finite; each stage is computed exhaustively.
    The identity thread returns the original stages; any other thread gives
    the conjugate chain by the deepest representative.  A level whose
    representative is the identity reads its stage directly, without
    conjugating.
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
    group.cayley_table()  # element products below become lookups
    elements = group.elements()
    subgroups = []
    for k in range(1, tr.depth + 1):
        rep = tr.representative(k, thread[k])
        if rep.is_identity():
            members = {e.value for e in elements if stages[k].contains(e)}
        else:
            rep_inv = rep.inverse()
            members = {e.value for e in elements if stages[k].contains(rep_inv * e * rep)}
        subgroups.append(members)
    return finite_chain(
        group,
        subgroups,
        kappa=tr.chain.kappa,
        name=f"stabilizers along {list(thread)} of {tr.provenance}",
    )


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
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    raise TreeError(f"unknown format {format!r}")


def parse_truncation(text: str) -> TreeTruncation:
    """Inverse of the JSON emission; the result has no chain backing.

    Only fibred trees parse: each level's size is a positive multiple f of
    the size above and vertex i's parent is i // f, as ``emit`` writes them.
    """
    data = json.loads(text)
    levels = data["levels"]
    if not levels or int(levels[0]["size"]) != 1 or levels[0]["parents"]:
        raise TreeError("level 0 must be a single root")
    fibres, prev_size = [], 1
    for k, lv in enumerate(levels[1:], start=1):
        size, parents = int(lv["size"]), [int(p) for p in lv["parents"]]
        if len(parents) != size:
            raise TreeError(f"level {k} parent table has the wrong length")
        if size < prev_size or size % prev_size:
            raise TreeError(f"level {k} size is not a fibre multiple")
        f = size // prev_size
        if parents != [i // f for i in range(size)]:
            raise TreeError(f"level {k} parent table is not fibred")
        fibres.append(f)
        prev_size = size
    if int(data["depth"]) != len(levels) - 1:
        raise TreeError("depth field disagrees with the level list")
    return TreeTruncation(block=0, fibres=tuple(fibres), provenance=str(data.get("provenance", "")))
