"""Computable groups over the element algebra of ``elements``.

Concrete instances cover what the chain and tree machinery needs: finite
permutation groups, integers, integers mod n, the infinite dihedral group,
direct products, finite-support powers, restricted wreath products, and
short exact sequence bundles.

Element values are canonical hashable Python data (ints, tuples, nested
tuples), so structural equality and hashing are exact.  Each family
subclasses ``elements.Group`` and implements the value algebra on them.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Iterable, Optional

from .elements import (
    Element,
    Group,
    GroupError,
    GroupMismatchError,
    InvalidElementError,
    ValueMap,
    _ball,
    label_sort_key,
    mulclose,
    random_words,
)

__all__ = [
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
]


ALPHABET_CAP = 64  # letters of a power over countable points, unless one point's worth is more


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
        if degree < 0:
            raise GroupError("degree must be >= 0")
        self.degree = degree
        self._identity = tuple(range(degree))
        self._gens = tuple(dict.fromkeys(self._permutation(g) for g in generators))

    @property
    def tag(self) -> str:
        gens = ";".join(",".join(map(str, g)) for g in sorted(self._gens))
        return f"perm({self.degree}:{gens})"

    def identity_value(self):
        return self._identity

    def mul_values(self, a, b):
        # apply b first, then a
        return tuple(a[b[i]] for i in range(self.degree))

    def inv_value(self, a):
        out = [0] * self.degree
        for i, j in enumerate(a):
            out[j] = i
        return tuple(out)

    def _permutation(self, v) -> tuple:
        v = tuple(v)
        if sorted(v) != list(range(self.degree)):
            raise InvalidElementError(f"not a permutation of 0..{self.degree - 1}: {v!r}")
        return v

    def validate_value(self, v):
        """A permutation in the group: one outside the generators' closure,
        which is enumerated on the first call, is not a value of it."""
        v = self._permutation(v)
        if v not in self._members:
            raise InvalidElementError(f"{v!r} is not in {self.tag}")
        return v

    @cached_property
    def _members(self) -> frozenset:
        return frozenset(self._sorted_values)

    def _compute_order(self):
        return len(self._sorted_values)

    def _generator_values(self):
        return self._gens

    @cached_property
    def _sorted_values(self) -> list:
        """The closure of the generators in natural tuple order, which is the
        ``label_sort_key`` order of image tuples of one degree, found faster."""
        return sorted(mulclose([self.identity_value(), *self._gens], self.mul_values))


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
        self.factors = tuple(factors)
        if not self.factors:
            raise GroupError("product needs at least one factor")
        self._identity = tuple(f.identity_value() for f in self.factors)
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
        return self._identity

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
        one = self.identity_value()
        return tuple(one[:i] + (g.value,) + one[i + 1:]
                     for i, f in enumerate(self.factors) for g in f.generators)

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
        self.base = base
        self.points = points
        self.is_residually_finite_claimed = base.is_residually_finite_claimed
        self.has_finite_abelianization_claimed = (
            base.has_finite_abelianization_claimed and points.size is not None
        )
        key = cache(label_sort_key)
        self._point_key = lambda pv: key(pv[0])  # a (point, value) pair's sort key

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

    def embed_at(self, point) -> ValueMap:
        """Injection of the base group as the functions supported at one point."""
        if not self.points.contains(point):
            raise InvalidElementError(f"{point!r} is not a point of {self.points.tag}")
        return ValueMap(lambda v: self._canon({point: v}), self.base, self)

    def _compute_order(self):
        if self.base.order == 1 or self.points.size == 0:
            return 1
        if self.points.size is not None and self.base.order is not None:
            return self.base.order ** self.points.size
        return None

    def _generator_values(self):
        # Over finite points the base alphabet sits at every point, so the
        # alphabet generates the group (finite-group code relies on that).
        # Countable points give no finite generating set: probe letters sit
        # at as many of the first 4 points as keep within ALPHABET_CAP
        # letters, and at one at least, so nested powers stay bounded.
        base, n = self.base.generators, self.points.size
        if n is None:
            n = max(1, min(4, ALPHABET_CAP // max(1, len(base))))
        return tuple(self._canon({self.points.label(i): g.value}) for i in range(n) for g in base)

    def _enumerate_values(self):
        if self.order == 1:  # a trivial base, or no points: the one empty support
            return [()]
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
        self.base = base
        self.top = top
        self._identity = ((), top.identity_value())
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
        self.projection = ValueMap(operator.itemgetter(1), self, top)  # onto the top

    @property
    def tag(self) -> str:
        return f"wreath({self.base.tag};{self.top.tag})"

    def identity_value(self):
        return self._identity

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
        p, one = self.base_point(), self.top.identity_value()
        return (*((self.kernel._canon({p: g.value}), one) for g in self.base.generators),
                *(((), g.value) for g in self.top.generators))

    def _enumerate_values(self):
        return [
            (f, g)
            for f in self.kernel.element_values()
            for g in self.top.element_values()
        ]

    def base_point(self):
        """The point carrying embedded base generators: the top's identity."""
        return self.top.identity_value()

    def embed_base_at(self, point) -> ValueMap:
        """Embed the base group at one point, with trivial top part."""
        inject, one = self.kernel.embed_at(point).values, self.top.identity_value()
        return ValueMap(lambda v: (inject(v), one), self.base, self)

    def extension(self) -> "ExtensionHandle":
        """The short exact sequence: finite-support power, wreath, top."""
        return ExtensionHandle(
            total=self,
            projection=self.projection,
            quotient=self.top,
            section=ValueMap(lambda q: ((), q), self.top, self),
            kernel_group=self.kernel,
            kernel_embed=ValueMap(lambda k: (k, self.top.identity_value()), self.kernel, self),
            kernel_retract=ValueMap(operator.itemgetter(0), self, self.kernel),
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
    required by chain pullbacks that materialize transversals.  Every map
    the library builds is a ``ValueMap``, whose value map the chains' stage
    tests and transversals compose directly; a caller's map is applied to
    an ``Element`` built on each value.
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
    from seed 0: the projection maps identity to identity, lands in
    ``quotient`` (else ``GroupMismatchError``) and is a homomorphism on
    sampled pairs; products of projected generators reach
    every quotient generator; the section (if given) is a right inverse on
    probe images; the kernel embedding (if given) lands in the kernel and
    retracts back.  The library's own wreath and product extensions are
    built directly, without this check.
    """
    if not projection(total.identity()).is_identity():
        raise GroupError("projection does not preserve the identity")
    ps = random_words(total, 24, 0) or [total.identity()]
    images = [projection(a) for a in ps]
    for img in images:
        if img.group is not quotient and img.group.tag != quotient.tag:
            raise GroupMismatchError(
                f"projection lands in {img.group.tag}, not in the quotient {quotient.tag}"
            )
    pairs = list(zip(ps, images))
    for a, pa in pairs:
        for b, pb in pairs[: max(4, len(ps) // 4)]:
            if projection(a * b) != pa * pb:
                raise GroupError("projection is not a homomorphism on probes")
    # surjectivity onto quotient generators, via short products of images
    targets = {g for g in quotient.generators if not g.is_identity()}
    if targets:
        images = [(img, img.inverse()) for img in map(projection, total.generators)]
        reached = _ball(quotient.identity(), images, operator.mul, 4, targets.issubset)
        if not targets <= reached.keys():
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
