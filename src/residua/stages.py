"""Chain stages: a membership test plus the evidence for its index.

A stage's index in its parent is a known integer, infinite, or unverified;
a finite index is certified by a transversal of coset representatives.
Transversals are explicit, or products of explicit factors (Sims 1970;
Seress, *Permutation Group Algorithms*, 2003, ch. 4), and a stage may give
its transversal as a function that builds it on first read, so a stage that
is only tested for membership never builds one.  ``_certify_transversal``
checks a transversal factor by factor and covers probes by the sift of
``_placer``, which coset trees share.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional

from .groups import Element, Group, GroupError

__all__ = ["ChainError", "StepIndex", "Transversal", "SubgroupDescriptor"]


class ChainError(GroupError):
    """Invalid chain construction or stage access."""


@dataclass(frozen=True)
class StepIndex:
    """Index of a stage in its parent: a known integer or infinite.  A stage
    whose index is unverified has ``index_in_parent=None``."""

    kind: str  # "finite" | "infinite"
    value: Optional[int] = None

    @staticmethod
    def finite(n: int) -> "StepIndex":
        return StepIndex("finite", int(n))

    @staticmethod
    def infinite() -> "StepIndex":
        return StepIndex("infinite")

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"


class Transversal:
    """Coset representatives of a stage L in its parent stage H, indexed
    0..size-1.

    An explicit transversal wraps a tuple.  A product transversal holds at
    least two explicit factor transversals T_1 .. T_m and names the
    subgroups K_1 .. K_{m-1} between them as ``intermediates``; with K_0 = H
    and K_m = L, T_j is a transversal of K_j in K_{j-1}.  A factor that is
    itself a product is spliced in with its own intermediates, and a
    product of one factor is that factor.  Representative i is the ordered
    product t_1 * ... * t_m of the factors' representatives at the
    mixed-radix digits of i, the last factor varying fastest (the order of
    nested loops over the factors); it is built only when asked.  By the
    product theorem these are a transversal of L in H, so ``verify_prefix``
    certifies each factor against its own pair (K_{j-1}, K_j) and places an
    element by sifting it through the factors.  There is no ``__len__``: a
    product's ``size`` can exceed ``sys.maxsize``.
    """

    def __init__(self, reps=(), *, factors=(), intermediates=()):
        factors, intermediates = tuple(factors), tuple(intermediates)
        if factors and len(intermediates) != len(factors) - 1:
            raise ChainError("a product of m factors names m - 1 intermediate subgroups")
        self.factors, self.intermediates = (), ()
        for j, f in enumerate(factors):
            self.intermediates += (*intermediates[j - 1:j], *f.intermediates)
            self.factors += f.factors or (f,)
        if len(self.factors) == 1:
            reps, self.factors = self.factors[0]._reps, ()
        self._reps = tuple(reps)
        self.size = (math.prod(f.size for f in self.factors) if self.factors
                     else len(self._reps))

    def rep(self, i: int) -> Element:
        if not 0 <= i < self.size:
            raise IndexError(f"representative {i} outside 0..{self.size - 1}")
        if not self.factors:
            return self._reps[i]
        picks = []
        for f in reversed(self.factors):
            i, digit = divmod(i, f.size)
            picks.append(f._reps[digit])
        return functools.reduce(operator.mul, reversed(picks))

    def __iter__(self):
        if not self.factors:
            return iter(self._reps)
        return (self.rep(i) for i in range(self.size))

    def factor_reps(self) -> list[tuple[Element, ...]]:
        """Each factor's representatives; an explicit transversal is one factor."""
        return [f._reps for f in self.factors] or [self._reps]


class _BuiltOnFirstRead:
    """The ``transversal`` field: a value given as a function of no
    arguments is called on the first read, and its result is kept."""

    def __get__(self, stage, owner=None):
        if stage is None:
            return None  # the field's default
        value = stage.__dict__["_transversal"]
        if callable(value):
            value = stage.__dict__["_transversal"] = value()
        return value

    def __set__(self, stage, value):
        stage.__dict__["_transversal"] = value


@dataclass(frozen=True)
class SubgroupDescriptor:
    """One chain stage: a membership test plus index evidence.

    ``transversal`` holds coset representatives of this stage inside its
    parent stage; when present the index is certified exactly, otherwise the
    verifier can only count cosets among probes and reports it unverified.
    It may be given as a function of no arguments returning the transversal
    or None; it then runs on the first read of ``transversal``.
    """

    owner: Group
    membership: Callable[[Element], bool]
    index_in_parent: Optional[StepIndex] = None
    transversal: Optional[Transversal] = _BuiltOnFirstRead()
    label: str = ""

    def contains(self, e: Element) -> bool:
        return self.membership(e)


def _coset_check(reps: tuple[Element, ...], parent: SubgroupDescriptor,
                 stage: SubgroupDescriptor) -> Optional[tuple[str, Optional[Element]]]:
    """The first reason, with its witness, why ``reps`` is not a transversal
    of ``stage`` in ``parent``: no representative in ``stage`` itself, one
    outside ``parent``, or two in one left coset of ``stage``."""
    if not any(stage.contains(rep) for rep in reps):
        return "transversal misses the identity coset", None
    for rep in reps:
        if not parent.contains(rep):
            return "transversal leaves the parent stage", rep
    for i, rep in enumerate(reps):
        inverse = rep.inverse()
        for other in reps[i + 1:]:
            if stage.contains(inverse * other):
                return "transversal representatives share a coset", other
    return None


def _placer(t: Transversal, stage: SubgroupDescriptor
            ) -> Callable[[Element], Optional[tuple[int, Element]]]:
    """Placement in the row of ``stage`` with transversal ``t``, whose
    factors T_1 .. T_m lie between the subgroups K_1 > ... > K_m = stage.

    The returned function sifts ``p``: for j = 1..m in turn it takes the
    digit d with t_j[d]^-1 * p in K_j and continues with that element.  It
    returns the row index (mixed radix over the factor sizes, the last
    factor fastest, as ``Transversal.rep`` counts) and the residue
    rep^-1 * p, or None when some factor has no such digit.  Each factor's
    inverses are computed once, here; an identity representative has none,
    and its digit tests ``p`` itself."""
    steps = [([None if rep.is_identity() else rep.inverse() for rep in reps], k)
             for reps, k in zip(t.factor_reps(), (*t.intermediates, stage))]

    def place(p: Element) -> Optional[tuple[int, Element]]:
        index = 0
        for inverses, k in steps:
            for d, inverse in enumerate(inverses):
                shifted = p if inverse is None else inverse * p
                if k.contains(shifted):
                    index = index * len(inverses) + d
                    p = shifted
                    break
            else:
                return None
        return index, p

    return place


def _certify_transversal(t: Transversal, parent: SubgroupDescriptor, stage: SubgroupDescriptor,
                         probes: list[Element], in_parent: list[bool], in_stage: list[bool]):
    """The certified index of ``stage`` in ``parent`` and None, or None and
    the first failure (reason, witness) of its transversal ``t``.

    Each factor is checked against its own pair (K_(j-1), K_j) of the
    subgroups parent = K_0, K_1, ..., K_m = stage; the K_j must nest on the
    probes; and each probe in the parent is sifted through the factors, the
    representative found being confirmed by ``stage`` itself.  An explicit
    transversal is one factor, so this is the pairwise check and a scan."""
    subgroups = (parent, *t.intermediates, stage)
    for j, reps in enumerate(t.factor_reps()):
        failure = _coset_check(reps, subgroups[j], subgroups[j + 1])
        if failure is not None:
            return None, failure
    if t.intermediates:
        for p, in_k0, in_km in zip(probes, in_parent, in_stage):
            inside = [in_k0, *(k.contains(p) for k in t.intermediates), in_km]
            if any(not outer and inner for outer, inner in zip(inside, inside[1:])):
                return None, ("descent violated", p)
    place = _placer(t, stage)
    for p, in_k0 in zip(probes, in_parent):
        if not in_k0:
            continue
        uncovered = None, ("transversal does not cover a parent probe", p)
        placed = place(p)
        if placed is None:
            return uncovered
        if t.factors:
            found = t.rep(placed[0])
            if not stage.contains(found.inverse() * p):
                return uncovered
    return t.size, None
