"""Chain stages: a membership test plus the evidence for its index.

A stage's finite index in its parent is the size of its transversal of
coset representatives, which the verifier certifies; a stage with no
transversal has an unverified index, unless it is declared infinite.
Transversals are explicit, or products of explicit factors (Sims 1970;
Seress, *Permutation Group Algorithms*, 2003, ch. 4).  The library's stages
hold rows that build their factors on first read (``_LazyRow``), so a stage
that is only tested for membership builds none.  Coset trees place by the
verifier's sift (``_placer``), except at a stage that still holds the
coset table that ``chains.finite_chain`` recorded for it, where one lookup
gives the digit and the residue (``_table_placer``); the verifier never
reads that table.  A trivial stage tests membership with
``Element.is_identity``, by which the check recognises it.

Every row that a stage owns is certified through ``_RowChecks`` on one
path, once per distinct (parent, stage) pair in a verify run.  A row that
the library builds from other rows keeps its shape (``_LazyRow``), and its
stages record it: a kernel copy or a pullback its source stage
(``_Image``), a finite-support power stage the base stage at each point (in
``powers``).  Such a row splits into part rows, so a power row over n
points costs its new base row and a walk of each probe's support, not n
factors and n - 1 intermediate stages.  Any other row is a leaf, checked by
the factorwise scan (``_leaf``): a stage that ``dataclasses.replace`` makes
loses the record, and a stage mapped by a caller's extension maps has none.

Membership is tested on values, and a transversal holds values.  Every
stage the library builds carries a ``ValueTest``, a membership test that
reads only the element's value and exposes that test, or is a trivial
stage; a pullback, a kernel copy and a power stage compose the value tests
of the stages they map with the extension's value maps
(``elements.ValueMap``), and carry the stage's representatives through the
same maps, so a test or a row deep in a tower builds no ``Element`` on its
way down.  A test or an extension map that a caller supplies works on
elements; it goes through one adapter, which builds an ``Element`` on the
value (``_value_test``, ``_value_map``).  The coset checks and the sift
multiply and invert values (``Group.multiply``, ``Group.invert``, by table
lookup where the group has its Cayley table); an ``Element`` is built only
at the public edge: ``Transversal.rep``, iteration, and a failure's witness.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

from .elements import Element, Group, GroupError, ValueMap

__all__ = ["ChainError", "Transversal", "SubgroupDescriptor", "ValueTest"]


class ChainError(GroupError):
    """Invalid chain construction or stage access."""


class Transversal:
    """Coset representatives of a stage L in its parent stage H, indexed
    0..size-1, held as values of ``group``.

    ``Transversal(group, values)`` is an explicit transversal.
    ``Transversal(factors=..., intermediates=...)`` is the product of at
    least two transversals T_1 .. T_m, naming the subgroups K_1 .. K_{m-1}
    between them; with K_0 = H and K_m = L, T_j is a transversal of K_j in
    K_{j-1}.  A factor that is itself a product is spliced in with its own
    intermediates.  The representatives are a tuple of factor value-tuples,
    an explicit transversal being one factor.  Representative i is the
    ordered product t_1 * ... * t_m of the factors' values at the
    mixed-radix digits of i, the last factor varying fastest; ``rep(i)``
    builds it as an element when asked, and so does iteration.  By the
    product theorem these are a transversal of L in H, so the verifier
    checks each factor against its own pair (K_{j-1}, K_j) and places an
    element by sifting it through the factors.  There is no ``__len__``: a
    product's ``size`` can exceed ``sys.maxsize``.
    """

    def __init__(self, group: Optional[Group] = None, values=(), *, factors=(),
                 intermediates=()):
        factors = tuple(factors)
        self.group, self._reps, self.intermediates = group, (tuple(values),), ()
        if factors:
            intermediates = tuple(intermediates)
            if len(intermediates) != len(factors) - 1:
                raise ChainError("a product of m factors names m - 1 intermediate subgroups")
            self.group = factors[0].group
            self._reps = tuple(reps for f in factors for reps in f._reps)
            self.intermediates = tuple(k for j, f in enumerate(factors)
                                       for k in (*intermediates[j - 1:j], *f.intermediates))
        self.size = math.prod(map(len, self._reps))

    def rep(self, i: int) -> Element:
        if not 0 <= i < self.size:
            raise IndexError(f"representative {i} outside 0..{self.size - 1}")
        picks = []
        for reps in reversed(self._reps):
            i, digit = divmod(i, len(reps))
            picks.append(reps[digit])
        return Element(self.group, functools.reduce(self.group.multiply, reversed(picks)))

    def __iter__(self):
        values, multiply = self._reps[0], self.group.multiply
        for reps in self._reps[1:]:
            values = [multiply(v, t) for v in values for t in reps]
        return (Element(self.group, v) for v in values)

    def factor_reps(self) -> tuple[tuple, ...]:
        """Each factor's representative values; an explicit transversal is one factor."""
        return self._reps


class _LazyRow(Transversal):
    """A row whose factors and intermediates ``build`` makes as a
    ``Transversal`` on their first read; its ``size`` is ``size()`` when
    given, else the built row's.  A row the library builds from other rows
    (see ``_sourced``) gives ``size``, and a row that splits is never built
    by the certifier."""

    def __init__(self, group: Group, build: Callable[[], Transversal],
                 size: Optional[Callable[[], int]] = None):
        self.group, self._build, self._size = group, build, size

    @functools.cached_property
    def _built(self) -> Transversal:
        return self._build()

    @functools.cached_property
    def size(self) -> int:
        return self._built.size if self._size is None else self._size()

    @property
    def _reps(self):
        return self._built._reps

    @property
    def intermediates(self):
        return self._built.intermediates


@dataclass(frozen=True)
class SubgroupDescriptor:
    """One chain stage: a membership test plus index evidence.

    ``transversal`` holds coset representatives of this stage inside its
    parent stage; its size is the stage's finite index, which the verifier
    certifies.  Without one the verifier can only count cosets among probes
    and reports the index unverified.  ``infinite_index`` declares the index
    infinite, which no transversal can show.  ``membership`` tests an
    element; a ``ValueTest`` tests its value, which the stages built on this
    one then read without an ``Element``.
    """

    owner: Group
    membership: Callable[[Element], bool]
    infinite_index: bool = False
    transversal: Optional[Transversal] = None
    label: str = ""

    def __post_init__(self):
        if not (self.transversal is None or isinstance(self.transversal, Transversal)):
            raise ChainError(f"a stage's transversal is a Transversal or None, "
                             f"not {type(self.transversal).__name__}")

    def contains(self, e: Element) -> bool:
        return self.membership(e)


class _Image:
    """How the library built a stage as the image of the stage ``source``
    under the extension map ``via`` (a kernel copy or a pullback): ``back``
    takes a value to its source value, or to None off the image."""

    __slots__ = ("via", "source", "back")

    def __init__(self, via, source: SubgroupDescriptor, back: Callable):
        self.via, self.source, self.back = via, source, back

    def split(self, parent: object):
        """``_RowChecks.split`` against the parent's record ``parent``, when
        both are images under one map: the row of the source stage in the
        parent's source, embedded by ``via``, whose cover answers for a
        value's source value; a value off the image lies in no stage."""
        if not (isinstance(parent, _Image) and parent.via is self.via):
            return None
        back, values = self.back, self.via.values
        return {None: (parent.source, self.source)}, lambda key: values, lambda covers: (
            lambda v, outer, inner=None, nest=True: None if (w := back(v)) is None
            else covers[None](w, outer, inner, nest))


def _sourced(stage: SubgroupDescriptor, source) -> SubgroupDescriptor:
    """``stage``, marked as built from ``source``, a record whose
    ``split(parent)`` gives the row's split against the parent stage's
    record (``_Image``, or the power stages' record in ``powers``).
    ``dataclasses.replace`` drops the mark, so a replaced stage is
    certified as a caller's."""
    object.__setattr__(stage, "_source", source)
    return stage


class ValueTest:
    """A membership test that reads only the element's value: called on an
    element ``e`` it returns ``test(e.value)``, and stages composed from it
    call ``test`` directly."""

    __slots__ = ("test",)

    def __init__(self, test: Callable[[object], bool]):
        self.test = test

    def __call__(self, e: Element) -> bool:
        return self.test(e.value)


def _value_test(stage: SubgroupDescriptor) -> Callable[[object], bool]:
    """The membership test of ``stage`` on values: a ``ValueTest``'s own, a
    comparison with the identity for a trivial stage, and otherwise the
    caller's test of an ``Element`` built on the value."""
    m, owner = stage.membership, stage.owner
    if isinstance(m, ValueTest):
        return m.test
    if m is Element.is_identity:
        one = owner.identity_value()
        return lambda v: v == one
    return lambda v: m(Element(owner, v))


def _value_map(f: Callable[[Element], Element], source: Group) -> Callable:
    """The map ``f`` from ``source`` on values: a ``ValueMap``'s own, and
    otherwise the value of ``f`` at an ``Element`` built on the value."""
    if isinstance(f, ValueMap):
        return f.values
    return lambda v: f(Element(source, v)).value


def _coset_check(reps: tuple, parent: SubgroupDescriptor, stage: SubgroupDescriptor
                 ) -> Optional[tuple[str, Optional[Element]]]:
    """The first reason, with its witness, why the values ``reps`` are not a
    transversal of ``stage`` in ``parent``: no representative in ``stage``
    itself, one outside ``parent``, or two in one left coset of ``stage``,
    the first i with a later j, then the first such j, in the order of the
    pairwise scan.  At a trivial stage (membership ``Element.is_identity``)
    the scan is a lookup of equal representatives."""
    inside, in_parent, owner = _value_test(stage), _value_test(parent), stage.owner
    if not any(map(inside, reps)):
        return "transversal misses the identity coset", None
    for rep in reps:
        if not in_parent(rep):
            return "transversal leaves the parent stage", Element(owner, rep)
    if stage.membership is Element.is_identity:
        first: dict = {}
        earlier = [first[rep] for j, rep in enumerate(reps) if first.setdefault(rep, j) < j]
        return (("transversal representatives share a coset", Element(owner, reps[min(earlier)]))
                if earlier else None)
    multiply, invert = owner.multiply, owner.invert
    for i, rep in enumerate(reps):
        inverse = invert(rep)
        for other in reps[i + 1:]:
            if inside(multiply(inverse, other)):
                return "transversal representatives share a coset", Element(owner, other)
    return None


def _placer(t: Transversal, stage: SubgroupDescriptor) -> Callable:
    """Placement in the row of ``stage`` with transversal ``t``, whose
    factors T_1 .. T_m lie between the subgroups K_1 > ... > K_m = stage.

    The returned function sifts a value ``v``: for j = 1..m in turn it takes
    the first digit d with t_j[d]^-1 * v in K_j and goes on with that value.
    It returns the row index (mixed radix, as ``Transversal.rep`` counts)
    and the residue rep^-1 * v, or None when some factor has no such digit.
    Each factor's inverses are computed once, here; an identity
    representative has none, and its digit tests ``v`` itself."""
    one, invert = stage.owner.identity_value(), stage.owner.invert
    steps = [([None if rep == one else invert(rep) for rep in reps], _value_test(k))
             for reps, k in zip(t.factor_reps(), (*t.intermediates, stage))]
    multiply = stage.owner.multiply

    def place(v) -> Optional[tuple[int, object]]:
        index = 0
        for inverses, inside in steps:
            for d, inverse in enumerate(inverses):
                shifted = v if inverse is None else multiply(inverse, v)
                if inside(shifted):
                    index = index * len(inverses) + d
                    v = shifted
                    break
            else:
                return None
        return index, v

    return place


def _table_placer(stage: SubgroupDescriptor) -> Optional[Callable]:
    """Placement in the row of ``stage`` by lookup, or None.

    ``chains.finite_chain`` records a stage's coset table, (transversal,
    cosets), when its group has a Cayley table: ``cosets`` maps each parent
    value to the digit of its coset and rep^-1 * value, what ``_placer``'s
    sift gives, and the lookup gives None for any other value, as the sift
    does.  The lookup serves while the stage holds that transversal; a stage
    that ``dataclasses.replace`` makes has no record, and is sifted."""
    cosets = getattr(stage, "_cosets", None)
    if cosets is not None and cosets[0] is stage.transversal:
        return cosets[1].get
    return None


_DESCENT, _UNCOVERED = "descent violated", "transversal does not cover a parent probe"


def _leaf(parent: SubgroupDescriptor, stage: SubgroupDescriptor):
    """``_RowChecks.checks`` of a row by the factorwise scan: each factor of
    the transversal against its own pair (K_(j-1), K_j) of the subgroups
    parent = K_0, K_1, ..., K_m = stage; a probe's memberships in the K_j
    must descend, and a probe in the parent must sift (``_placer``)."""
    t = stage.transversal
    subgroups = (parent, *t.intermediates, stage)
    failure = next(filter(None, map(_coset_check, t.factor_reps(), subgroups, subgroups[1:])), None)
    if failure is not None:
        return failure, None
    place = _placer(t, stage)
    if not t.intermediates:
        return None, lambda v, outer, inner=None, nest=True: (
            _UNCOVERED if outer and place(v) is None else None)
    tests, last = list(map(_value_test, t.intermediates)), _value_test(stage)

    def cover(v, outer, inner=None, nest=True):
        if nest:
            inside = [outer, *(test(v) for test in tests), last(v) if inner is None else inner]
            if any(b and not a for a, b in zip(inside, inside[1:])):
                return _DESCENT
        return _UNCOVERED if outer and place(v) is None else None
    return None, cover


class _RowChecks:
    """The checks of the rows that stages own, which one verify run shares.

    A row is a leaf (``_leaf``), or splits into part rows as the record of
    its stage says against its parent's: an image row into the row of the
    source stage in the source parent, a power row into one base row per
    point.  Its first failing part, in ``parts`` order, holds the flattened
    row's first failing factor, and the split's value map carries the
    witness into the row's group; the record's cover answers each probe as
    the scan of the flattened row does.  This rests on the extension maps
    being homomorphisms that the retraction or the projection undoes, on
    elements with disjoint supports commuting, and on base stages holding
    the identity and lying in ``free`` (the product theorem, Seress 2003)."""

    def __init__(self):
        self._memo: dict = {}

    @staticmethod
    def split(parent: SubgroupDescriptor, stage: SubgroupDescriptor):
        """(parts, embed, compose) for a row that splits, else None:
        ``parts`` maps a key to a part row's (parent, stage), in the order of
        the flattened row's factors; ``embed(key)`` is the value map from
        that part's group to the row's; ``compose(covers)`` is the row's
        cover from the parts' covers, keyed the same way."""
        source = getattr(stage, "_source", None)
        return None if source is None else source.split(getattr(parent, "_source", None))

    def checks(self, parent: SubgroupDescriptor, stage: SubgroupDescriptor):
        """(failure, cover) for the row, built once per pair (the memo holds
        the stages, so their ids stay theirs).  ``failure`` is None or the
        first (reason, witness) that reads no probe.  Else ``cover(v, outer,
        inner=None, nest=True)`` is None or the reason probe value ``v``
        fails, given whether it lies in the parent (``outer``) and, if
        known, the stage (``inner``): "descent violated" (looked for when
        ``nest``), or else, in the parent, "transversal does not cover a
        parent probe"."""
        key = id(parent), id(stage)
        if key not in self._memo:
            self._memo[key] = self._checks(parent, stage), parent, stage
        return self._memo[key][0]

    def _checks(self, parent, stage):
        split = self.split(parent, stage)
        if split is None:
            return _leaf(parent, stage)
        parts, embed, compose = split
        covers = {}
        for key, pair in parts.items():
            failure, covers[key] = self.checks(*pair)
            if failure is not None:
                reason, witness = failure
                return (reason, witness and Element(stage.owner, embed(key)(witness.value))), None
        return None, compose(covers)


def _certify_transversal(parent: SubgroupDescriptor, stage: SubgroupDescriptor,
                         probes: list[Element], in_parent: list[bool], in_stage: list[bool],
                         rows: Optional[_RowChecks] = None):
    """The certified index of ``stage`` in ``parent`` and None, or None and
    the first failure (reason, witness) of its transversal, in the order of
    the factorwise scan: the row's failure that reads no probe, else the
    first probe whose descent breaks, else the first parent probe that the
    row does not cover.  The checks come from ``rows`` (``_RowChecks``)."""
    failure, cover = (rows or _RowChecks()).checks(parent, stage)
    if failure is not None:
        return None, failure
    reasons = [cover(p.value, outer, inner) for p, outer, inner in zip(probes, in_parent, in_stage)]
    for reason in (_DESCENT, _UNCOVERED):
        if reason in reasons:
            return None, (reason, probes[reasons.index(reason)])
    return stage.transversal.size, None
