"""The element algebra every group family shares.

``Element`` is a group element that carries its owning group; multiplying
elements of different groups is a hard error because wreath towers nest
several levels deep and silent coercion would mask bugs.  ``Group`` is the
base class every family in ``groups`` subclasses: identity, multiplication
and inversion on canonical values, plus the uniform surface built on them.
A finite group of order at most ``ORACLE_CAP`` gets a ``CayleyTable``, after
which element products and inverses are lookups; ``Group.multiply`` and
``Group.invert`` are that product and inverse on values, which ``Element``
and the chains' coset checks and sift share.  A ``ValueMap`` is a map of
elements that is a map of values, and exposes the value map, so that stage
tests and coset representatives compose it with no ``Element`` in between.

Infinite groups expose no enumeration of all elements; probabilistic checks
draw probe elements as bounded-length random words in the generators
(``random_words``) from a seeded RNG, so every run is reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Iterable, Optional

__all__ = [
    "ORACLE_CAP",
    "GroupError",
    "GroupMismatchError",
    "InvalidElementError",
    "label_sort_key",
    "Element",
    "Group",
    "CayleyTable",
    "ValueMap",
    "mulclose",
    "random_words",
]


ORACLE_CAP = 128  # the largest order that gets a Cayley table and an oracle lattice
ENUMERATION_CAP = 5_000_000  # the largest order whose elements are listed
CLOSURE_CAP = 200_000  # the most values that mulclose gathers


class GroupError(Exception):
    """Group construction or usage error."""


class GroupMismatchError(GroupError):
    """Operation mixed elements of different groups."""


class InvalidElementError(GroupError):
    """Value does not describe an element of the group."""


def label_sort_key(label):
    """Total order key over the nested int/str/tuple labels used for points."""
    if isinstance(label, bool):
        return (0, int(label))
    if isinstance(label, int):
        return (0, label)
    if isinstance(label, str):
        return (1, label)
    if isinstance(label, tuple):
        return (2, tuple(label_sort_key(x) for x in label))
    raise GroupError(f"unorderable label {label!r}")


class Element:
    """An element of a specific group; immutable, hashable, multiplicative."""

    __slots__ = ("group", "value")

    def __init__(self, group: "Group", value):
        _set_group(self, group)  # the slot descriptors; __setattr__ refuses
        _set_value(self, value)

    def __setattr__(self, name, v):
        raise AttributeError("Element is immutable")

    def __mul__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        g = self.group
        if g is not other.group and g.tag != other.group.tag:
            raise GroupMismatchError(
                f"cannot multiply element of {g.tag} by element of {other.group.tag}"
            )
        return Element(g, g.multiply(self.value, other.value))

    def inverse(self) -> "Element":
        return Element(self.group, self.group.invert(self.value))

    def commutator_with(self, other: "Element") -> "Element":
        return self * other * self.inverse() * other.inverse()

    def is_identity(self) -> bool:
        return self.value == self.group.identity_value()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.value == other.value and (
            self.group is other.group or self.group.tag == other.group.tag
        )

    def __hash__(self) -> int:
        return hash(self.value)  # equal elements have equal values

    def to_jsonable(self):
        return self.group.value_to_jsonable(self.value)

    def __repr__(self) -> str:
        return f"<{self.group.tag}: {self.value!r}>"


_set_group, _set_value = Element.group.__set__, Element.value.__set__


class Group:
    """Base class for computable group handles.

    Subclasses provide identity/multiplication/inversion on canonical values
    plus validation.  Handles are immutable and identified by a structural
    ``tag``; two handles with the same tag present the same group.
    """

    is_residually_finite_claimed: bool = False
    has_finite_abelianization_claimed: bool = False
    _table = None  # the CayleyTable, once cayley_table() builds it

    # -- value algebra, implemented by subclasses ---------------------------

    @property
    def tag(self) -> str:
        raise NotImplementedError

    def identity_value(self):
        raise NotImplementedError

    def mul_values(self, a, b):
        raise NotImplementedError

    def inv_value(self, a):
        raise NotImplementedError

    def validate_value(self, v):
        """Return the canonical form of v, or raise InvalidElementError."""
        raise NotImplementedError

    def _compute_order(self) -> Optional[int]:
        raise NotImplementedError

    def _generator_values(self) -> tuple:
        raise NotImplementedError

    def value_to_jsonable(self, v):
        return v

    # -- uniform surface -----------------------------------------------------

    @cached_property
    def order(self) -> Optional[int]:
        """Number of elements, or None for infinite groups."""
        return self._compute_order()

    @cached_property
    def generators(self) -> tuple[Element, ...]:
        """The probe alphabet: ``_generator_values()``, read once."""
        return tuple(Element(self, v) for v in self._generator_values())

    def multiply(self, a, b):
        """The product a * b of two values: a lookup once the Cayley table
        is built, ``mul_values`` otherwise."""
        table = self._table
        if table is not None:
            try:
                index = table.index
                return table.values[table.mul[index[a]][index[b]]]
            except KeyError:  # a value outside the table: multiply it
                pass
        return self.mul_values(a, b)

    def invert(self, a):
        """The inverse of a value: a lookup once the Cayley table is built,
        ``inv_value`` otherwise."""
        table = self._table
        if table is not None:
            try:
                return table.values[table.inv[table.index[a]]]
            except KeyError:  # a value outside the table: invert it
                pass
        return self.inv_value(a)

    def identity(self) -> Element:
        return Element(self, self.identity_value())

    def element(self, value) -> Element:
        return Element(self, self.validate_value(value))

    @cached_property
    def _sorted_values(self) -> list:
        """The enumerated values, sorted by ``label_sort_key`` and counted
        against the order; a group above ``ENUMERATION_CAP`` is not listed."""
        if self.order is None:
            raise GroupError(f"{self.tag} is infinite; no element enumeration")
        if self.order > ENUMERATION_CAP:
            raise GroupError(f"{self.tag} has {self.order} elements, more than the "
                             f"{ENUMERATION_CAP} a group may list")
        vals = sorted(set(self._enumerate_values()), key=label_sort_key)
        if len(vals) != self.order:
            raise GroupError(f"{self.tag}: enumerated {len(vals)} values but order is {self.order}")
        return vals

    def element_values(self) -> list:
        """All canonical values, for finite groups; deterministic order."""
        return list(self._sorted_values)

    def elements(self) -> list[Element]:
        return [Element(self, v) for v in self.element_values()]

    def cayley_table(self) -> Optional["CayleyTable"]:
        """The group's multiplication table, built on first use; None for an
        infinite group or one above ``ORACLE_CAP``.  Once it is built,
        ``Element`` products and inverses in this group are lookups."""
        n = self.order
        if self._table is None and n is not None and n <= ORACLE_CAP:
            self._table = CayleyTable.build(self)
        return self._table

    def _enumerate_values(self) -> list:
        raise NotImplementedError

    def enumerate_element(self, i: int) -> Element:
        """Injective enumeration for infinite groups (zigzag style)."""
        raise GroupError(f"{self.tag} has no element enumeration")

    def __repr__(self) -> str:
        return f"<group {self.tag}>"


@dataclass(frozen=True)
class CayleyTable:
    """A finite group's multiplication table over element indices.

    ``values`` is ``element_values()`` (sorted by ``label_sort_key``, so an
    index is also a sort key), ``index`` maps each value to its position,
    ``mul[i][j]`` is the index of values[i] * values[j] and ``inv[i]`` that
    of the inverse of values[i].
    """

    values: list
    index: dict
    mul: list[list[int]]
    inv: list[int]

    @classmethod
    def build(cls, group: "Group") -> "CayleyTable":
        """Each generator's row by ``mul_values``, every other row composed.

        Left multiplication by s * a is left multiplication by a, then by s,
        so row(s * a) = [row(s)[x] for x in row(a)]; a breadth-first search
        from the identity fills the rows the generators reach (Holt, Eick
        and O'Brien, *Handbook of Computational Group Theory*, 2005, ch. 4).
        Rows it does not reach, when the generators do not generate the
        group, are computed by ``mul_values``."""
        values = group.element_values()
        index = {v: i for i, v in enumerate(values)}
        gens = [[index[group.mul_values(s, b)] for b in values]
                for s in {g.value for g in group.generators} if s in index]
        e = index[group.identity_value()]
        mul = [None] * len(values)
        mul[e] = list(range(len(values)))
        reached = [e]
        for a in reached:  # breadth-first: the list grows as it is read
            for row_s in gens:
                c = row_s[a]
                if mul[c] is None:
                    mul[c] = [row_s[x] for x in mul[a]]
                    reached.append(c)
        mul = [row or [index[group.mul_values(v, b)] for b in values]
               for v, row in zip(values, mul)]
        return cls(values, index, mul, [row.index(e) for row in mul])


class ValueMap:
    """A map from the elements of ``source`` to those of ``target`` that is
    the map ``values`` on their values.  Called on an element it checks the
    element's group and returns an ``Element``; a caller that holds a value
    applies ``values`` to it directly."""

    __slots__ = ("values", "source", "target")

    def __init__(self, values: Callable, source: Group, target: Group):
        self.values, self.source, self.target = values, source, target

    def __call__(self, e: Element) -> Element:
        source = self.source
        if e.group is not source and e.group.tag != source.tag:
            raise GroupMismatchError(f"expected element of {source.tag}, got {e.group.tag}")
        return Element(self.target, self.values(e.value))


def mulclose(values: Iterable, mul: Callable) -> list:
    """Closure of a value set under multiplication, breadth-first, up to ``CLOSURE_CAP`` values.

    Deterministic order of discovery given a deterministic input order.
    """
    seed = list(values)
    seen = dict.fromkeys(seed)
    frontier = seed
    while frontier:
        new = []
        for a in seed:
            for b in frontier:
                c = mul(a, b)
                if c not in seen:
                    seen[c] = None
                    new.append(c)
                    if len(seen) > CLOSURE_CAP:
                        raise GroupError(f"closure exceeded cap {CLOSURE_CAP}")
        frontier = new
    return list(seen)


def _ball(one, letters, mul: Callable, radius: int, full: Callable) -> dict:
    """The elements that words of length at most ``radius`` reach from
    ``one``, each mapped to the length of its shortest word.

    Each word step right-multiplies by a letter or its inverse under ``mul``;
    ``letters`` holds (letter, inverse) pairs.  The walk is breadth-first and
    stops as soon as ``full`` holds for the elements found so far.
    """
    ball, frontier = {one: 0}, [one]
    for depth in range(1, radius + 1):
        new = []
        for a in frontier:
            for letter in letters:
                for b in letter:
                    c = mul(a, b)
                    if c not in ball:
                        ball[c] = depth
                        new.append(c)
                        if full(ball):
                            return ball
        frontier = new
    return ball


def random_words(group: Group, count: int, seed: int, max_len: int = 8) -> list[Element]:
    """Up to ``count`` distinct non-identity elements drawn as random generator words.

    Each of at most ``30 * count`` attempts multiplies 1 to ``max_len``
    random generators or their inverses; identities and repeats are dropped.
    ``verify --probes N --word-len L`` draws ``random_words(group, N, seed, L)``.
    The list is a fixed function of the group, ``count``, ``seed`` and
    ``max_len``.  It is shorter than ``count`` when the ball of radius
    ``max_len`` is small (``Z`` at 64 probes and seed 0 gives 14).

    Lengths and letters are drawn as ``Random.randint`` and ``Random.choice``
    draw them, with the rejection sampling inlined (``k``-bit draws, redrawn
    while out of range), so the stream is the one those calls would give;
    the ``PINNED_PROBES`` digests in the tests guard it.  Products are taken
    on values through ``functools.cache``, each (prefix, letter) product
    once.  After ``count`` misses the ball is counted by ``_ball``, up to
    ``count + 1`` elements; if it is smaller, drawing stops once all its
    non-identity elements are found, since every later word would be the
    identity or a repeat.  From then on a word shorter than the nearest
    element not yet drawn (by breadth-first depth) can only give an element
    already drawn, so its letters are drawn but not multiplied.
    """
    one = group.identity_value()
    letters = [(g.value, group.inv_value(g.value)) for g in group.generators if g.value != one]
    if not letters or count <= 0:
        return []
    if max_len < 1:
        raise ValueError(f"word length {max_len} is below 1")
    product = cache(group.mul_values)
    rng = random.Random(seed)
    bits, uniform = rng.getrandbits, rng.random
    n_letters = len(letters)
    length_bits, letter_bits = max_len.bit_length(), n_letters.bit_length()
    seen = {one}
    out = []
    wanted = count
    attempts = 0
    depth, nearest = {}, 0  # a ball found small, and the depth of its nearest new element
    while len(out) < wanted and attempts < 30 * count:
        attempts += 1
        r = bits(length_bits)  # rng.randint(1, max_len), inlined
        while r >= max_len:
            r = bits(length_bits)
        e, drawn_only = one, r + 1 < nearest  # such a word reaches only drawn elements
        for _ in range(r + 1):
            i = bits(letter_bits)  # rng.choice(letters), inlined
            while i >= n_letters:
                i = bits(letter_bits)
            v, inv = letters[i]
            if drawn_only:
                uniform()
            else:
                e = product(e, inv if uniform() < 0.5 else v)
        if e in seen:
            if attempts - len(out) == count:
                ball = _ball(one, letters, product, max_len, lambda b: len(b) > count)
                wanted = len(ball) - 1
                if wanted < count:  # the whole ball
                    depth = ball
                    nearest = min((d for x, d in depth.items() if x not in seen), default=0)
            continue
        seen.add(e)
        out.append(e)
        if depth.get(e) == nearest and len(out) < wanted:
            nearest = min(d for x, d in depth.items() if x not in seen)
    return [Element(group, v) for v in out]
