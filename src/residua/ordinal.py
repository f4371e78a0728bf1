"""Exact ordinal arithmetic below epsilon_0, in Cantor normal form.

An ordinal is kept as a sum ``w^e1*c1 + ... + w^ek*ck`` with the exponents
(themselves ordinals) strictly decreasing and all integer coefficients >= 1.
Every operation returns a canonical value, so equality is plain structural
equality and all algebraic laws are decidable by ``==``.

Coefficients are Python ints, i.e. arbitrary precision; chain index products
overflow fixed-width integers quickly.

The module also owns JSON notation: ``json_text`` is the one writer of every
JSON document the package emits.
"""

from __future__ import annotations

from enum import Enum
from json.encoder import encode_basestring_ascii
from typing import Union

__all__ = [
    "Ordinal",
    "OrdinalError",
    "OrdinalParseError",
    "Comparison",
    "DepthClass",
    "CardinalBound",
    "ALEPH0",
    "ZERO",
    "ONE",
    "OMEGA",
    "OMEGA_OMEGA",
    "compare",
    "add",
    "multiply",
    "classify",
    "decompose_successor",
    "omega_absorbs",
    "left_subtract",
    "omega_power",
    "format_ordinal",
    "parse_ordinal",
    "ordinal_to_jsonable",
    "json_text",
]


class OrdinalError(ValueError):
    """Invalid ordinal value or operation."""


class OrdinalParseError(OrdinalError):
    """Syntax error in the ordinal text notation."""

    _where = "position"

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        self.position = position
        self.expected = expected
        detail = f"{message} at {self._where} {position}"
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        # not super(): ``dsl.DslParseError`` shares this constructor without this base
        ValueError.__init__(self, detail)


OrdinalLike = Union["Ordinal", int]


class Ordinal:
    """An ordinal below epsilon_0 in Cantor normal form.

    ``terms`` is a tuple of ``(exponent, coefficient)`` pairs; the empty
    tuple is 0.  Instances are immutable and hashable.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: tuple = ()):
        terms = tuple((e, int(c)) for (e, c) in terms)
        prev = None
        for e, c in terms:
            if not isinstance(e, Ordinal):
                raise OrdinalError(f"exponent must be an Ordinal, got {type(e).__name__}")
            if c < 1:
                raise OrdinalError(f"coefficients must be >= 1, got {c}")
            if prev is not None and not _cmp(e, prev) < 0:
                raise OrdinalError("exponents must be strictly decreasing")
            prev = e
        object.__setattr__(self, "_terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("Ordinal is immutable")

    @staticmethod
    def from_int(n: int) -> "Ordinal":
        if n < 0:
            raise OrdinalError(f"ordinals are non-negative, got {n}")
        if n == 0:
            return ZERO
        return Ordinal(((ZERO, n),))

    @property
    def terms(self) -> tuple:
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_finite(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and self._terms[0][0].is_zero)

    @property
    def is_limit(self) -> bool:
        return bool(self._terms) and not self._terms[-1][0].is_zero

    def to_int(self) -> int:
        if self.is_zero:
            return 0
        if not self.is_finite:
            raise OrdinalError(f"{self} is not a finite ordinal")
        return self._terms[0][1]

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = Ordinal.from_int(other) if other >= 0 else None
            if other is None:
                return False
        if not isinstance(other, Ordinal):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # a finite ordinal equals an int, so it hashes as one
        return hash(self.to_int()) if self.is_finite else hash(self._terms)

    def __lt__(self, other) -> bool:
        return _cmp(self, _coerce(other)) < 0

    def __le__(self, other) -> bool:
        return _cmp(self, _coerce(other)) <= 0

    def __gt__(self, other) -> bool:
        return _cmp(self, _coerce(other)) > 0

    def __ge__(self, other) -> bool:
        return _cmp(self, _coerce(other)) >= 0

    def __add__(self, other) -> "Ordinal":
        other = _coerce(other)
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        e = other._terms[0][0]
        keep = []
        merged = None
        for t in self._terms:
            c = _cmp(t[0], e)
            if c > 0:
                keep.append(t)
            elif c == 0:
                merged = t
                break
            else:
                break
        if merged is not None:
            head = (e, merged[1] + other._terms[0][1])
            return Ordinal(tuple(keep) + (head,) + other._terms[1:])
        return Ordinal(tuple(keep) + other._terms)

    def __radd__(self, other) -> "Ordinal":
        return _coerce(other) + self

    def __mul__(self, other) -> "Ordinal":
        other = _coerce(other)
        if self.is_zero or other.is_zero:
            return ZERO
        lead_exp, lead_coeff = self._terms[0]
        out = []
        for e, c in other._terms:
            if not e.is_zero:
                out.append((lead_exp + e, c))
            else:
                out.append((lead_exp, lead_coeff * c))
                out.extend(self._terms[1:])
        return Ordinal(tuple(out))

    def __rmul__(self, other) -> "Ordinal":
        return _coerce(other) * self

    def __str__(self) -> str:
        return format_ordinal(self)

    def __repr__(self) -> str:
        return f"Ordinal({format_ordinal(self)!r})"


def _coerce(x: OrdinalLike) -> Ordinal:
    if isinstance(x, Ordinal):
        return x
    if isinstance(x, int):
        return Ordinal.from_int(x)
    raise TypeError(f"expected Ordinal or int, got {type(x).__name__}")


def _cmp(a: Ordinal, b: Ordinal) -> int:
    for (ea, ca), (eb, cb) in zip(a._terms, b._terms):
        c = _cmp(ea, eb)
        if c:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a._terms) != len(b._terms):
        return -1 if len(a._terms) < len(b._terms) else 1
    return 0


ZERO = Ordinal()
ONE = Ordinal.from_int(1)
OMEGA = Ordinal(((ONE, 1),))
OMEGA_OMEGA = Ordinal(((OMEGA, 1),))


def omega_power(exp: OrdinalLike) -> Ordinal:
    """w**exp as a single-term value (grammar support; not a public power op)."""
    exp = _coerce(exp)
    if exp.is_zero:
        return ONE
    return Ordinal(((exp, 1),))


class Comparison(Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"


class DepthClass(Enum):
    ZERO = "zero"
    ONE = "one"
    LIMIT = "limit"
    LIMIT_PLUS_ONE = "limit+1"
    INVALID = "invalid"


def compare(a: OrdinalLike, b: OrdinalLike) -> Comparison:
    c = _cmp(_coerce(a), _coerce(b))
    if c < 0:
        return Comparison.LESS
    if c > 0:
        return Comparison.GREATER
    return Comparison.EQUAL


def add(a: OrdinalLike, b: OrdinalLike) -> Ordinal:
    return _coerce(a) + _coerce(b)


def multiply(a: OrdinalLike, b: OrdinalLike) -> Ordinal:
    return _coerce(a) * _coerce(b)


def classify(a: OrdinalLike) -> DepthClass:
    """Sort an ordinal into the classes a residual-finiteness depth can take.

    Valid depths are 0, 1, limit ordinals, and successors of limit ordinals;
    everything else (lambda + n with n >= 2, plain integers >= 2) is INVALID.
    """
    a = _coerce(a)
    if a.is_zero:
        return DepthClass.ZERO
    last_exp, last_coeff = a._terms[-1]
    if not last_exp.is_zero:
        return DepthClass.LIMIT
    if len(a._terms) == 1:
        return DepthClass.ONE if last_coeff == 1 else DepthClass.INVALID
    return DepthClass.LIMIT_PLUS_ONE if last_coeff == 1 else DepthClass.INVALID


def decompose_successor(a: OrdinalLike) -> tuple[Ordinal, int]:
    """Split a > 0 uniquely as limit_part + tail with tail a natural number.

    The limit part is 0 or a limit ordinal.
    """
    a = _coerce(a)
    if a.is_zero:
        raise OrdinalError("cannot decompose 0")
    last_exp, last_coeff = a._terms[-1]
    if last_exp.is_zero:
        return Ordinal(a._terms[:-1]), last_coeff
    return a, 0


def omega_absorbs(a: OrdinalLike) -> bool:
    """Whether w + a == a; equivalently whether a >= w**2."""
    a = _coerce(a)
    return (OMEGA + a) == a


def left_subtract(a: OrdinalLike, b: OrdinalLike) -> Ordinal:
    """The unique g with a + g == b, for a <= b."""
    a, b = _coerce(a), _coerce(b)
    if _cmp(a, b) > 0:
        raise OrdinalError(f"cannot left-subtract {a} from smaller {b}")
    k = 0
    while k < len(a._terms) and k < len(b._terms) and a._terms[k] == b._terms[k]:
        k += 1
    if k == len(a._terms):
        return Ordinal(b._terms[k:])
    (ea, ca), (eb, cb) = a._terms[k], b._terms[k]
    if _cmp(ea, eb) < 0:
        return Ordinal(b._terms[k:])
    return Ordinal(((eb, cb - ca),) + b._terms[k + 1:])  # a <= b: ea == eb and ca < cb


# --- text notation ---------------------------------------------------------
#
# ordinal := term ("+" term)*
# term    := ("w" ("^" factor)? ("*" int)?) | int
# factor  := "w" | int | "(" ordinal ")"
#
# "w" stands for the first infinite ordinal; whitespace is insignificant.


def format_ordinal(a: OrdinalLike) -> str:
    a = _coerce(a)
    if a.is_zero:
        return "0"
    parts = []
    for e, c in a._terms:
        if e.is_zero:
            parts.append(str(c))
            continue
        if e == ONE:
            s = "w"
        else:
            if e == OMEGA:
                factor = "w"
            elif e.is_finite:
                factor = str(e.to_int())
            else:
                factor = "(" + format_ordinal(e) + ")"
            s = "w^" + factor
        if c > 1:
            s += "*" + str(c)
        parts.append(s)
    return " + ".join(parts)


MAX_NESTING = 64  # brackets open at once in either grammar


class _Scanner:
    """Whitespace-skipping cursor over a text, and the one reader of integer
    literals, lower bounds, nesting and end of input for both grammars: the
    ordinal notation here and the group expressions of ``dsl``.  Every error
    it raises is of the grammar's class ``error`` and names the offset of
    the offending character."""

    error = OrdinalParseError
    nesting = 0  # brackets open at the current position

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            raise self.error("unexpected character", self.pos, (repr(ch),))

    def integer(self) -> tuple[int, int]:
        """An integer literal with an optional ``-``: its value and its offset."""
        self.skip_ws()
        start = self.pos
        if self.text.startswith("-", start):
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            raise self.error("unexpected character", start, ("integer",))
        try:
            return int(self.text[start:self.pos]), start
        except ValueError:  # past the interpreter's digit limit, or a digit int() refuses
            raise self.error("unreadable integer literal", start) from None

    def at_least(self, low: int, what: str, high: int | None = None) -> int:
        """An integer literal no smaller than ``low`` and, when ``high`` is
        given, no larger than it; ``what`` names it in the error."""
        value, start = self.integer()
        if value < low:
            raise self.error(f"{what} must be >= {low}", start)
        if high is not None and value > high:
            raise self.error(f"{what} must be <= {high}", start)
        return value

    def nest(self, what: str, start: int):
        """Open a bracket at ``start`` unless ``MAX_NESTING`` are; ``what`` names them."""
        if self.nesting == MAX_NESTING:
            raise self.error(f"{what} nest at most {MAX_NESTING} deep", start)
        self.nesting += 1

    def unnest(self):
        """Close the innermost bracket with its ``)``."""
        self.expect(")")
        self.nesting -= 1

    def finish(self, expected: tuple[str, ...] = ()):
        """Fail unless only whitespace is left; ``expected`` names what could follow."""
        if self.peek():
            raise self.error("trailing input", self.pos, (*expected, "end of input"))


def _parse_factor(sc: _Scanner) -> Ordinal:
    ch = sc.peek()
    if ch == "w":
        sc.pos += 1
        return OMEGA
    if ch == "(":
        sc.nest("exponents", sc.pos)
        sc.pos += 1
        val = _parse_sum(sc)
        sc.unnest()
        return val
    if ch.isdigit():
        return Ordinal.from_int(sc.integer()[0])
    raise OrdinalParseError("unexpected character", sc.pos, ("'w'", "integer", "'('"))


def _parse_term(sc: _Scanner) -> Ordinal:
    ch = sc.peek()
    if ch == "w":
        sc.pos += 1
        exp = ONE
        if sc.take("^"):
            exp = _parse_factor(sc)
        coeff = sc.at_least(1, "coefficient") if sc.take("*") else 1
        return omega_power(exp) * coeff
    if ch.isdigit():
        return Ordinal.from_int(sc.integer()[0])
    raise OrdinalParseError("unexpected character", sc.pos, ("'w'", "integer"))


def _parse_sum(sc: _Scanner) -> Ordinal:
    total = _parse_term(sc)
    while sc.take("+"):
        total = total + _parse_term(sc)
    return total


def parse_ordinal(text: str) -> Ordinal:
    """Parse the text notation; non-canonical sums normalize via ordinal add."""
    sc = _Scanner(text)
    value = _parse_sum(sc)
    sc.finish(("'+'",))
    return value


def ordinal_to_jsonable(a: OrdinalLike) -> dict:
    a = _coerce(a)
    return {"terms": [{"exp": ordinal_to_jsonable(e), "coeff": c} for (e, c) in a._terms]}


# --- JSON text ---------------------------------------------------------------


def json_text(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    With ``indent`` set, ``json`` writes through its pure-Python encoder;
    this writes scalars through the C helpers instead.  Each list, tuple or
    dict is written once at depth 0, and one level deeper that text is
    reused with every newline indented by two spaces (a JSON string never
    holds a raw newline).  A container that occurs more than once in
    ``obj`` is written once: the memo is keyed by ``id``, which stays
    unique while ``obj`` holds the objects.  Values ``json`` cannot encode
    raise ``TypeError``, and a cycle ``ValueError``, as they do there.
    """
    memo: dict[int, str] = {}  # id -> the text one level deep; "" while being written

    def nested(o) -> str:
        if isinstance(o, (list, tuple, dict)):
            text = memo.get(id(o))
            if not text:
                text = memo[id(o)] = block(o).replace("\n", "\n  ")
            return text
        text = _scalar_text(o)
        if text is None:
            raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
        return text

    def block(o) -> str:
        if id(o) in memo:
            raise ValueError("Circular reference detected")
        memo[id(o)] = ""
        if not o:
            return "{}" if isinstance(o, dict) else "[]"
        if isinstance(o, dict):  # json sorts the (key, value) pairs
            return "{\n  " + ",\n  ".join([f"{_key_text(k)}: {nested(v)}"
                                            for k, v in sorted(o.items())]) + "\n}"
        parts = (map(int.__repr__, o) if set(map(type, o)) == {int}
                 else [nested(v) for v in o])
        return "[\n  " + ",\n  ".join(parts) + "\n]"

    return (block(obj) if isinstance(obj, (list, tuple, dict)) else nested(obj)) + "\n"


def _scalar_text(o) -> str | None:
    """The JSON of a str, None, bool, int or float as ``json`` writes it;
    None for any other value."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == _INF:
            return "Infinity"
        if o == -_INF:
            return "-Infinity"
        return float.__repr__(o)
    return None


_INF = float("inf")


def _key_text(k) -> str:
    """An object key as ``json`` writes it: a str, or the text of a scalar quoted."""
    text = k if isinstance(k, str) else _scalar_text(k)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")
    return encode_basestring_ascii(text)


# --- cardinal bounds -------------------------------------------------------


class CardinalBound:
    """Either a finite bound or the first infinite cardinal.

    Used as the strict bound on chain step indices: an index n is admitted
    when n < bound.
    """

    __slots__ = ("_finite",)

    def __init__(self, finite: int | None):
        if finite is not None:
            finite = int(finite)
            if finite < 1:
                raise OrdinalError(f"finite cardinal bound must be >= 1, got {finite}")
        object.__setattr__(self, "_finite", finite)

    def __setattr__(self, name, value):
        raise AttributeError("CardinalBound is immutable")

    @staticmethod
    def finite(n: int) -> "CardinalBound":
        return CardinalBound(n)

    @property
    def value(self) -> int | None:
        return self._finite

    def admits(self, index: int) -> bool:
        """Whether a finite step index is strictly below this bound."""
        return self._finite is None or index < self._finite

    def __eq__(self, other) -> bool:
        if not isinstance(other, CardinalBound):
            return NotImplemented
        return self._finite == other._finite

    def __hash__(self) -> int:
        return hash(("CardinalBound", self._finite))

    def __lt__(self, other: "CardinalBound") -> bool:
        if self._finite is None:
            return False
        if other._finite is None:
            return True
        return self._finite < other._finite

    def __le__(self, other: "CardinalBound") -> bool:
        return self == other or self < other

    def __str__(self) -> str:
        return "aleph0" if self._finite is None else str(self._finite)

    def __repr__(self) -> str:
        return f"CardinalBound({self._finite!r})"

    def to_jsonable(self):
        return "aleph0" if self._finite is None else self._finite

    @staticmethod
    def parse(text: str) -> "CardinalBound":
        text = text.strip().lower()
        if text in ("aleph0", "inf", "infinite"):
            return ALEPH0
        try:
            n = int(text)
        except ValueError as exc:
            raise OrdinalError(f"not a cardinal bound: {text!r}") from exc
        return CardinalBound(n)


ALEPH0 = CardinalBound(None)
