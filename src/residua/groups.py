"""Computable groups with a uniform element algebra.

Concrete instances cover what the chain and tree machinery needs: finite
permutation groups, integers, integers mod n, the infinite dihedral group,
direct products, finite-support powers, restricted wreath products, and
short exact sequence bundles.

Element values are canonical hashable Python data (ints, tuples, nested
tuples), so structural equality and hashing are exact.  Elements carry their
owning group; multiplying elements of different groups is a hard error
because wreath towers nest several levels deep and silent coercion would
mask bugs.

Infinite groups expose no enumeration of all elements; probabilistic checks
draw probe elements as bounded-length random words in the generators from a
seeded RNG, so every run is reproducible.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

__all__ = [
    "GroupError",
    "GroupMismatchError",
    "InvalidElementError",
    "Element",
    "CayleyTable",
    "Group",
    "PointSet",
    "FinitePoints",
    "CountablePoints",
    "ExtensionHandle",
    "CyclicGroup",
    "IntegerGroup",
    "PermGroup",
    "InfiniteDihedralGroup",
    "DirectProductGroup",
    "FinSupportPowerGroup",
    "WreathProductGroup",
    "make_cyclic",
    "make_integers",
    "make_perm",
    "make_symmetric",
    "make_alternating",
    "make_infinite_dihedral",
    "finite_support_power",
    "wreath_product",
    "extension_from_quotient",
    "perm_from_cycles",
    "label_sort_key",
    "random_words",
    "mulclose",
]


ORACLE_CAP = 128  # the largest order that gets a Cayley table and an oracle lattice


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
        table = g._table
        if table is not None:
            try:
                index = table.index
                return Element(g, table.values[table.mul[index[self.value]][index[other.value]]])
            except KeyError:  # a value outside the table: multiply it
                pass
        return Element(g, g.mul_values(self.value, other.value))

    def inverse(self) -> "Element":
        g = self.group
        table = g._table
        if table is not None:
            try:
                return Element(g, table.values[table.inv[table.index[self.value]]])
            except KeyError:
                pass
        return Element(g, g.inv_value(self.value))

    def __pow__(self, n: int) -> "Element":
        if n < 0:
            return self.inverse() ** (-n)
        out = self.group.identity_value()
        base = self.value
        while n:
            if n & 1:
                out = self.group.mul_values(out, base)
            base = self.group.mul_values(base, base)
            n >>= 1
        return Element(self.group, out)

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
    _table = None  # the CayleyTable, once cayley_table() builds it; read by Element

    def __init__(self):
        self._order_cache = -1  # -1: not computed; None: infinite
        self._elements_cache: Optional[list] = None

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

    @property
    def order(self) -> Optional[int]:
        """Number of elements, or None for infinite groups."""
        if self._order_cache == -1:
            self._order_cache = self._compute_order()
        return self._order_cache

    @property
    def generators(self) -> tuple[Element, ...]:
        return tuple(Element(self, v) for v in self._generator_values())

    def identity(self) -> Element:
        return Element(self, self.identity_value())

    def element(self, value) -> Element:
        return Element(self, self.validate_value(value))

    def element_values(self) -> list:
        """All canonical values, for finite groups; deterministic order."""
        if self.order is None:
            raise GroupError(f"{self.tag} is infinite; no element enumeration")
        if self._elements_cache is None:
            vals = self._enumerate_values()
            vals = sorted(set(vals), key=label_sort_key)
            if len(vals) != self.order:
                raise GroupError(
                    f"{self.tag}: enumerated {len(vals)} values but order is {self.order}"
                )
            self._elements_cache = vals
        return list(self._elements_cache)

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
                for s in set(group._generator_values()) if s in index]
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


def mulclose(values: Iterable, mul: Callable, cap: int = 200000) -> list:
    """Closure of a value set under multiplication, breadth-first.

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
                    if len(seen) > cap:
                        raise GroupError(f"closure exceeded cap {cap}")
        frontier = new
    return list(seen)


class _Memo(dict):
    """``memo[key]`` is ``fn(key)``, computed on first use and kept."""

    def __init__(self, fn: Callable):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


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
    on values, each (prefix, letter) product once.  After ``count`` misses
    the ball is counted, up to ``count + 1`` elements; if it is smaller,
    drawing stops once all its non-identity elements are found, since every
    later word would be the identity or a repeat.
    """
    one = group.identity_value()
    letters = [(v, group.inv_value(v)) for v in group._generator_values() if v != one]
    if not letters or count <= 0:
        return []
    if max_len < 1:
        raise ValueError(f"word length {max_len} is below 1")
    products = _Memo(lambda ab: group.mul_values(*ab))

    def ball_size(cap: int) -> int:
        ball, frontier = {one}, [one]
        for _ in range(max_len):
            new = []
            for a in frontier:
                for letter in letters:
                    for b in letter:
                        c = products[a, b]
                        if c not in ball:
                            ball.add(c)
                            new.append(c)
                            if len(ball) == cap:
                                return cap
            frontier = new
        return len(ball)

    rng = random.Random(seed)
    bits, uniform = rng.getrandbits, rng.random
    n_letters = len(letters)
    length_bits, letter_bits = max_len.bit_length(), n_letters.bit_length()
    seen = {one}
    out = []
    wanted = count
    attempts = 0
    while len(out) < wanted and attempts < 30 * count:
        attempts += 1
        r = bits(length_bits)  # rng.randint(1, max_len), inlined
        while r >= max_len:
            r = bits(length_bits)
        e = one
        for _ in range(r + 1):
            i = bits(letter_bits)  # rng.choice(letters), inlined
            while i >= n_letters:
                i = bits(letter_bits)
            v, inv = letters[i]
            e = products[e, inv if uniform() < 0.5 else v]
        if e in seen:
            if attempts - len(out) == count:
                wanted = ball_size(count + 1) - 1
            continue
        seen.add(e)
        out.append(e)
    return [Element(group, v) for v in out]


# --- point sets -------------------------------------------------------------


class PointSet:
    """Index set for finite-support powers and wreath products."""

    @property
    def tag(self) -> str:
        raise NotImplementedError

    @property
    def size(self) -> Optional[int]:
        raise NotImplementedError

    def label(self, i: int):
        raise NotImplementedError

    def contains(self, label) -> bool:
        raise NotImplementedError


class FinitePoints(PointSet):
    def __init__(self, labels: Iterable):
        labels = tuple(labels)
        keys = [label_sort_key(p) for p in labels]
        if len(set(keys)) != len(keys):
            raise GroupError("finite point set has repeated labels")
        self._labels = labels

    @property
    def tag(self) -> str:
        return "fin[" + ",".join(repr(p) for p in self._labels) + "]"

    @property
    def size(self) -> int:
        return len(self._labels)

    @property
    def labels(self) -> tuple:
        return self._labels

    def label(self, i: int):
        return self._labels[i]

    def contains(self, label) -> bool:
        return label in self._labels


class CountablePoints(PointSet):
    """Injective enumeration of a countable point set; cached and checked."""

    def __init__(self, fn: Callable[[int], object], name: str,
                 membership: Optional[Callable[[object], bool]] = None):
        self._fn = fn
        self._name = name
        self._membership = membership
        self._cache: list = []
        self._seen: set = set()

    @property
    def tag(self) -> str:
        return f"enum[{self._name}]"

    @property
    def size(self) -> None:
        return None

    def label(self, i: int):
        while len(self._cache) <= i:
            p = self._fn(len(self._cache))
            k = label_sort_key(p)
            if k in self._seen:
                raise GroupError(f"point enumeration {self._name} repeats {p!r}")
            self._seen.add(k)
            self._cache.append(p)
        return self._cache[i]

    def contains(self, label) -> bool:
        if self._membership is not None:
            return self._membership(label)
        return True


def _zigzag(i: int) -> int:
    """0, 1, -1, 2, -2, ... (injective enumeration of the integers)."""
    if i == 0:
        return 0
    q, r = divmod(i + 1, 2)
    return q if r == 0 else -q


# --- concrete groups ---------------------------------------------------------


class CyclicGroup(Group):
    is_residually_finite_claimed = True
    has_finite_abelianization_claimed = True

    def __init__(self, n: int):
        super().__init__()
        if n < 1:
            raise GroupError(f"cyclic order must be >= 1, got {n}")
        self.n = n

    @property
    def tag(self) -> str:
        return f"C({self.n})"

    def identity_value(self):
        return 0

    def mul_values(self, a, b):
        return (a + b) % self.n

    def inv_value(self, a):
        return (-a) % self.n

    def validate_value(self, v):
        if not isinstance(v, int):
            raise InvalidElementError(f"cyclic value must be int, got {v!r}")
        return v % self.n

    def _compute_order(self):
        return self.n

    def _generator_values(self):
        return (1 % self.n,) if self.n > 1 else ()

    def _enumerate_values(self):
        return list(range(self.n))


class IntegerGroup(Group):
    is_residually_finite_claimed = True
    has_finite_abelianization_claimed = False

    @property
    def tag(self) -> str:
        return "Z"

    def identity_value(self):
        return 0

    def mul_values(self, a, b):
        return a + b

    def inv_value(self, a):
        return -a

    def validate_value(self, v):
        if not isinstance(v, int):
            raise InvalidElementError(f"integer value must be int, got {v!r}")
        return v

    def _compute_order(self):
        return None

    def _generator_values(self):
        return (1,)

    def enumerate_element(self, i: int) -> Element:
        return Element(self, _zigzag(i))


class PermGroup(Group):
    """Permutation group on {0..degree-1}, given by generator image tuples."""

    is_residually_finite_claimed = True
    has_finite_abelianization_claimed = True

    def __init__(self, degree: int, generators: Iterable):
        super().__init__()
        if degree < 0:
            raise GroupError("degree must be >= 0")
        self.degree = degree
        gens = []
        for g in generators:
            gens.append(self.validate_value(tuple(g)))
        self._gens = tuple(dict.fromkeys(gens))

    @property
    def tag(self) -> str:
        gens = ";".join(",".join(map(str, g)) for g in sorted(self._gens))
        return f"perm({self.degree}:{gens})"

    def identity_value(self):
        return tuple(range(self.degree))

    def mul_values(self, a, b):
        # apply b first, then a
        return tuple(a[b[i]] for i in range(self.degree))

    def inv_value(self, a):
        out = [0] * self.degree
        for i, j in enumerate(a):
            out[j] = i
        return tuple(out)

    def validate_value(self, v):
        v = tuple(v)
        if sorted(v) != list(range(self.degree)):
            raise InvalidElementError(f"not a permutation of 0..{self.degree - 1}: {v!r}")
        return v

    def _compute_order(self):
        return len(self.element_values())

    def _generator_values(self):
        return self._gens

    def _enumerate_values(self):
        return mulclose([self.identity_value(), *self._gens], self.mul_values)

    # order needs the closure; avoid the order==len check recursion
    def element_values(self) -> list:
        if self._elements_cache is None:
            vals = sorted(set(self._enumerate_values()))
            self._elements_cache = vals
        return list(self._elements_cache)


class InfiniteDihedralGroup(Group):
    """Integer translations and flips: (t, f) with f in {0, 1}.

    (t1,f1)·(t2,f2) = (t1 + (-1)^f1 · t2, f1 xor f2); every flip is an
    involution and the translations form an index-2 copy of the integers.
    The abelianization is the Klein four-group, hence finite.
    """

    is_residually_finite_claimed = True
    has_finite_abelianization_claimed = True

    @property
    def tag(self) -> str:
        return "Dinf"

    def identity_value(self):
        return (0, 0)

    def mul_values(self, a, b):
        (t1, f1), (t2, f2) = a, b
        return (t1 + (t2 if f1 == 0 else -t2), f1 ^ f2)

    def inv_value(self, a):
        t, f = a
        return (t, 1) if f else (-t, 0)

    def validate_value(self, v):
        if (
            not isinstance(v, tuple)
            or len(v) != 2
            or not isinstance(v[0], int)
            or v[1] not in (0, 1)
        ):
            raise InvalidElementError(f"dihedral value must be (int, 0|1), got {v!r}")
        return (v[0], v[1])

    def _compute_order(self):
        return None

    def _generator_values(self):
        return ((1, 0), (0, 1))

    def enumerate_element(self, i: int) -> Element:
        return Element(self, (_zigzag(i // 2), i % 2))

    def value_to_jsonable(self, v):
        return {"t": v[0], "flip": v[1]}


class DirectProductGroup(Group):
    def __init__(self, factors: Iterable[Group]):
        super().__init__()
        self.factors = tuple(factors)
        if not self.factors:
            raise GroupError("product needs at least one factor")
        self.is_residually_finite_claimed = all(
            f.is_residually_finite_claimed for f in self.factors
        )
        self.has_finite_abelianization_claimed = all(
            f.has_finite_abelianization_claimed for f in self.factors
        )

    @property
    def tag(self) -> str:
        return "prod(" + ";".join(f.tag for f in self.factors) + ")"

    def identity_value(self):
        return tuple(f.identity_value() for f in self.factors)

    def mul_values(self, a, b):
        return tuple(f.mul_values(x, y) for f, x, y in zip(self.factors, a, b))

    def inv_value(self, a):
        return tuple(f.inv_value(x) for f, x in zip(self.factors, a))

    def validate_value(self, v):
        v = tuple(v)
        if len(v) != len(self.factors):
            raise InvalidElementError("product value arity mismatch")
        return tuple(f.validate_value(x) for f, x in zip(self.factors, v))

    def _compute_order(self):
        total = 1
        for f in self.factors:
            if f.order is None:
                return None
            total *= f.order
        return total

    def _generator_values(self):
        out = []
        ident = self.identity_value()
        for i, f in enumerate(self.factors):
            for g in f._generator_values():
                v = list(ident)
                v[i] = g
                out.append(tuple(v))
        return tuple(out)

    def _enumerate_values(self):
        pools = [f.element_values() for f in self.factors]
        return [tuple(combo) for combo in itertools.product(*pools)]

    def enumerate_element(self, i: int) -> Element:
        infinite = [k for k, f in enumerate(self.factors) if f.order is None]
        if len(infinite) != 1:
            raise GroupError(f"{self.tag}: enumeration needs exactly one infinite factor")
        k = infinite[0]
        finite_order = 1
        for j, f in enumerate(self.factors):
            if j != k:
                finite_order *= f.order
        q, r = divmod(i, finite_order)
        vals = []
        for j, f in enumerate(self.factors):
            if j == k:
                vals.append(self.factors[k].enumerate_element(q).value)
            else:
                r, d = divmod(r, f.order)
                vals.append(f.element_values()[d])
        return Element(self, tuple(vals))

    def value_to_jsonable(self, v):
        return [f.value_to_jsonable(x) for f, x in zip(self.factors, v)]


class FinSupportPowerGroup(Group):
    """Functions from a point set into a base group, with finite support.

    Values store only the points carrying a non-identity base value, as a
    tuple of (point, base_value) pairs sorted by point.
    """

    def __init__(self, base: Group, points: PointSet):
        super().__init__()
        self.base = base
        self.points = points
        self.is_residually_finite_claimed = base.is_residually_finite_claimed
        self.has_finite_abelianization_claimed = (
            base.has_finite_abelianization_claimed and points.size is not None
        )
        keys = _Memo(label_sort_key)
        self._point_key = lambda pv: keys[pv[0]]  # a (point, value) pair's sort key

    @property
    def tag(self) -> str:
        return f"power({self.base.tag};{self.points.tag})"

    def identity_value(self):
        return ()

    def _canon(self, mapping: dict):
        ident = self.base.identity_value()
        return tuple(sorted([(p, v) for p, v in mapping.items() if v != ident],
                            key=self._point_key))

    def mul_values(self, a, b):
        if not a or not b:
            return a or b
        m = dict(a)
        mul = self.base.mul_values
        for p, v in b:
            m[p] = mul(m[p], v) if p in m else v
        if len(m) > len(a):  # a's sorted points, then b's new ones: merged by the sort
            return self._canon(m)
        ident = self.base.identity_value()
        return tuple((p, v) for p, v in m.items() if v != ident)  # a's order

    def inv_value(self, a):
        inv = self.base.inv_value
        return tuple((p, inv(v)) for p, v in a)

    def validate_value(self, v):
        m = {}
        for p, val in tuple(v):
            if not self.points.contains(p):
                raise InvalidElementError(f"{p!r} is not a point of {self.points.tag}")
            if p in m:
                raise InvalidElementError(f"repeated point {p!r}")
            m[p] = self.base.validate_value(val)
        return self._canon(m)

    def support(self, value) -> tuple:
        return tuple(p for p, _ in value)

    def value_at(self, value, point):
        for p, v in value:
            if p == point:
                return v
        return self.base.identity_value()

    def embed_at(self, point) -> Callable[[Element], Element]:
        """Injection of the base group as the functions supported at one point."""
        if not self.points.contains(point):
            raise InvalidElementError(f"{point!r} is not a point of {self.points.tag}")

        def inject(e: Element) -> Element:
            if e.group is not self.base and e.group.tag != self.base.tag:
                raise GroupMismatchError(
                    f"expected element of base {self.base.tag}, got {e.group.tag}"
                )
            return Element(self, self._canon({point: e.value}))

        return inject

    def _compute_order(self):
        if self.base.order == 1:
            return 1
        if self.points.size is not None and self.base.order is not None:
            return self.base.order ** self.points.size
        return None

    def _generator_values(self):
        # Infinite point sets are not finitely generated; expose probe
        # generators at the first few points, enough for seeded word checks.
        if self.points.size is not None:
            pts = [self.points.label(i) for i in range(self.points.size)]
        else:
            pts = [self.points.label(i) for i in range(4)]
        out = []
        for p in pts:
            for g in self.base._generator_values():
                out.append(self._canon({p: g}))
        return tuple(out)

    def _enumerate_values(self):
        if self.points.size is None or self.base.order is None:
            raise GroupError(f"{self.tag} is infinite")
        pts = [self.points.label(i) for i in range(self.points.size)]
        base_vals = self.base.element_values()
        out = []
        for combo in itertools.product(base_vals, repeat=len(pts)):
            out.append(self._canon(dict(zip(pts, combo))))
        return out

    def value_to_jsonable(self, v):
        return {str(p): self.base.value_to_jsonable(val) for p, val in v}


class WreathProductGroup(Group):
    """Regular restricted wreath product: finite-support functions extended by the top.

    Elements are pairs (f, g) with f a finite-support function from the top
    group into the base and g in the top group; the top acts on the points,
    its own elements, by left multiplication and shifts supports with it.
    The library builds these maps itself and trusts them; maps a caller
    supplies are probe-checked by ``extension_from_quotient``.
    """

    def __init__(self, base: Group, top: Group):
        super().__init__()
        self.base = base
        self.top = top
        if top.order is not None:
            self.points = FinitePoints(top.element_values())
        else:
            self.points = CountablePoints(
                lambda i: top.enumerate_element(i).value,
                name=top.tag,
                membership=lambda v: _is_valid_value(top, v),
            )
            self.points.label(0)  # a top with no enumeration fails here, not mid-chain
        self.kernel = FinSupportPowerGroup(base, self.points)

    @property
    def tag(self) -> str:
        return f"wreath({self.base.tag};{self.top.tag})"

    def identity_value(self):
        return ((), self.top.identity_value())

    def _shifted(self, g, f):
        """The function f with each point p moved to g * p.  It is sorted
        again unless g is the identity; a shift that keeps the order costs
        the sort one pass over the memoized keys."""
        if not f or g == self.top.identity_value():
            return f
        mul = self.top.mul_values
        return tuple(sorted([(mul(g, p), v) for p, v in f], key=self.kernel._point_key))

    def mul_values(self, a, b):
        (f1, g1), (f2, g2) = a, b
        return (self.kernel.mul_values(f1, self._shifted(g1, f2)), self.top.mul_values(g1, g2))

    def inv_value(self, a):
        f, g = a
        ginv = self.top.inv_value(g)
        return (self._shifted(ginv, self.kernel.inv_value(f)), ginv)

    def validate_value(self, v):
        if not isinstance(v, tuple) or len(v) != 2:
            raise InvalidElementError("wreath value must be a (functions, top) pair")
        f, g = v
        return (self.kernel.validate_value(f), self.top.validate_value(g))

    def _compute_order(self):
        k, t = self.kernel.order, self.top.order
        if k is None or t is None:
            return None
        return k * t

    def _generator_values(self):
        base_point = self.base_point()
        out = []
        for g in self.base._generator_values():
            out.append((self.kernel._canon({base_point: g}), self.top.identity_value()))
        for g in self.top._generator_values():
            out.append(((), g))
        return tuple(out)

    def _enumerate_values(self):
        return [
            (f, g)
            for f in self.kernel.element_values()
            for g in self.top.element_values()
        ]

    def base_point(self):
        """The point carrying embedded base generators: the top's identity."""
        return self.top.identity_value()

    def embed_base_at(self, point) -> Callable[[Element], Element]:
        """Embed the base group at one point, with trivial top part."""
        inject = self.kernel.embed_at(point)

        def embed(e: Element) -> Element:
            return Element(self, (inject(e).value, self.top.identity_value()))

        return embed

    def projection(self, e: Element) -> Element:
        if e.group is not self and e.group.tag != self.tag:
            raise GroupMismatchError(f"expected element of {self.tag}")
        return Element(self.top, e.value[1])

    def extension(self) -> "ExtensionHandle":
        """The short exact sequence: finite-support power, wreath, top."""
        return ExtensionHandle(
            total=self,
            projection=self.projection,
            quotient=self.top,
            section=lambda q: Element(self, ((), q.value)),
            kernel_group=self.kernel,
            kernel_embed=lambda k: Element(self, (k.value, self.top.identity_value())),
            kernel_retract=lambda e: Element(self.kernel, e.value[0]),
        )

    def value_to_jsonable(self, v):
        f, g = v
        return {
            "fs": self.kernel.value_to_jsonable(f),
            "top": self.top.value_to_jsonable(g),
        }


def _is_valid_value(group: Group, v) -> bool:
    try:
        group.validate_value(v)
        return True
    except (InvalidElementError, TypeError, ValueError):
        return False


# --- short exact sequences ---------------------------------------------------


@dataclass(frozen=True)
class ExtensionHandle:
    """A short exact sequence bundle: kernel -> total -> quotient.

    ``projection`` maps total onto quotient; the kernel membership test is
    projection(e) == identity.  ``section`` (a set-theoretic right inverse of
    the projection) and the kernel embed/retract pair are optional but are
    required by chain pullbacks that materialize transversals.
    """

    total: Group
    quotient: Group
    projection: Callable[[Element], Element]
    section: Optional[Callable[[Element], Element]] = None
    kernel_group: Optional[Group] = None
    kernel_embed: Optional[Callable[[Element], Element]] = None
    kernel_retract: Optional[Callable[[Element], Element]] = None

    def kernel_contains(self, e: Element) -> bool:
        return self.projection(e).is_identity()


def extension_from_quotient(
    total: Group,
    projection: Callable[[Element], Element],
    quotient: Group,
    *,
    section: Optional[Callable[[Element], Element]] = None,
    kernel_group: Optional[Group] = None,
    kernel_embed: Optional[Callable[[Element], Element]] = None,
    kernel_retract: Optional[Callable[[Element], Element]] = None,
) -> ExtensionHandle:
    """Validate and bundle a short exact sequence whose maps a caller supplies.

    Probe checks, on up to 24 words of ``total`` and 8 of the kernel, drawn
    from seed 0: the projection maps identity to identity and is a
    homomorphism on sampled pairs; products of projected generators reach
    every quotient generator; the section (if given) is a right inverse on
    probe images; the kernel embedding (if given) lands in the kernel and
    retracts back.  The library's own wreath and product extensions are
    built directly, without this check.
    """
    if not projection(total.identity()).is_identity():
        raise GroupError("projection does not preserve the identity")
    ps = random_words(total, 24, 0) or [total.identity()]
    for a in ps:
        for b in ps[: max(4, len(ps) // 4)]:
            if projection(a * b) != projection(a) * projection(b):
                raise GroupError("projection is not a homomorphism on probes")
    # surjectivity onto quotient generators, via short products of images
    targets = {g.value for g in quotient.generators if not g.is_identity()}
    if targets:
        images = [projection(g) for g in total.generators]
        reached = {quotient.identity_value()}
        frontier = [quotient.identity()]
        for _ in range(4):
            new = []
            for x in frontier:
                for img in images:
                    for y in (x * img, x * img.inverse()):
                        if y.value not in reached:
                            reached.add(y.value)
                            new.append(y)
            frontier = new
            if targets <= reached:
                break
        if not targets <= reached:
            raise GroupError("projection does not reach the quotient generators")
    if section is not None:
        for a in ps[:8]:
            q = projection(a)
            if projection(section(q)) != q:
                raise GroupError("section is not a right inverse of the projection")
    if kernel_group is not None and kernel_embed is not None:
        for k in random_words(kernel_group, 8, 0):
            e = kernel_embed(k)
            if not projection(e).is_identity():
                raise GroupError("kernel embedding leaves the kernel")
            if kernel_retract is not None and kernel_retract(e) != k:
                raise GroupError("kernel retract does not invert the embedding")
    return ExtensionHandle(
        total=total,
        quotient=quotient,
        projection=projection,
        section=section,
        kernel_group=kernel_group,
        kernel_embed=kernel_embed,
        kernel_retract=kernel_retract,
    )


# --- factories ---------------------------------------------------------------


def make_cyclic(n: int) -> CyclicGroup:
    return CyclicGroup(n)


def make_integers() -> IntegerGroup:
    return IntegerGroup()


def make_infinite_dihedral() -> InfiniteDihedralGroup:
    return InfiniteDihedralGroup()


def perm_from_cycles(degree: int, cycles: Iterable[Iterable[int]]) -> tuple:
    """Image tuple of a product of cycles (applied left to right)."""
    img = list(range(degree))
    for cycle in cycles:
        cycle = list(cycle)
        for i in cycle:
            if not 0 <= i < degree:
                raise GroupError(f"cycle point {i} out of range for degree {degree}")
        step = {cycle[i]: cycle[(i + 1) % len(cycle)] for i in range(len(cycle))}
        img = [step.get(img[i], img[i]) for i in range(degree)]
    return tuple(img)


def make_perm(degree: int, generators: Iterable) -> PermGroup:
    """Permutation group from generator image arrays (rejects non-bijections)."""
    return PermGroup(degree, generators)


def _symmetric_cycles(n: int) -> tuple:
    """Standard generators of S(n) as cycle lists: (0 1), and (0 1 ... n-1) for n > 2."""
    if n <= 1:
        return ()
    gens = [((0, 1),)]
    if n > 2:
        gens.append((tuple(range(n)),))
    return tuple(gens)


def _alternating_cycles(n: int) -> tuple:
    """Standard generators of A(n) as cycle lists: (0 1 2), and for n > 3 an
    n-cycle (n odd) or an (n-1)-cycle fixing 0 (n even)."""
    if n <= 2:
        return ()
    gens = [((0, 1, 2),)]
    if n > 3:
        gens.append((tuple(range(n)),) if n % 2 else (tuple(range(1, n)),))
    return tuple(gens)


def make_symmetric(n: int) -> PermGroup:
    gens = [perm_from_cycles(n, gen) for gen in _symmetric_cycles(n)]
    return PermGroup(max(n, 0), gens)


def make_alternating(n: int) -> PermGroup:
    gens = [perm_from_cycles(n, gen) for gen in _alternating_cycles(n)]
    return PermGroup(max(n, 0), gens)


def finite_support_power(base: Group, points: PointSet) -> FinSupportPowerGroup:
    return FinSupportPowerGroup(base, points)


def wreath_product(base: Group, top: Group) -> WreathProductGroup:
    """The regular restricted wreath product of ``base`` by ``top``."""
    return WreathProductGroup(base, top)
