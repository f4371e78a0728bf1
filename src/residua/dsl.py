"""The group expression language used by the CLI and test fixtures.

    expr   := "1" | "Z" | "Dinf" | "C(" int ")" | "S(" int ")" | "A(" int ")"
            | "perm(" int ";" cycles ")" | "power(" expr "," points ")"
            | "wreath(" expr "," expr ")" | "tower(" expr "," int ")"
            | "prod(" expr {"," expr} ")"
    points := "N" | int
    cycles := [generator {"," generator}];  generator := cycle+
    cycle  := "(" int {int} ")"

Whitespace is insignificant.  S(n) and A(n) are sugar for perm(...) with the
standard generating sets.  Any other identifier parses as a named extension
reference, to be resolved against programmatic registrations.  Errors carry
the byte offset of the first offending character and the expected tokens.
Towers are at most ``MAX_TOWER_HEIGHT`` high and constructor calls nest at
most ``MAX_NESTING`` deep: the parser, the group algebra and the chain
builders recurse once per level, and deeper inputs would exhaust Python's
stack.  Permutation degrees are at most ``MAX_DEGREE``: a permutation
group's order is the length of its enumerated closure, so ``S(n)`` past
the bound would multiply permutations of that degree until the closure
cap, for minutes.

Callers may build AST values themselves: ``build_group``, ``chain_for`` and
``depth_interval`` take them.  So each AST class checks its own fields as
the parser does (``Cyclic(0)``, ``Cyclic(True)``, ``Product(())``,
``Product([Int()])``, ``ExtensionRef('Z')`` and ``Tower(Int(), 65)`` raise
``DslError``), which keeps ``parse_expr(print_expr(ast)) == ast``, keeps
every AST hashable and keeps tower recursion bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from .groups import _alternating_cycles, _symmetric_cycles
from .ordinal import MAX_NESTING, OrdinalParseError, _Scanner

__all__ = [
    "MAX_TOWER_HEIGHT",
    "MAX_DEGREE",
    "DslError",
    "DslParseError",
    "GroupExpr",
    "Trivial",
    "Cyclic",
    "Perm",
    "Int",
    "Dinf",
    "Product",
    "FinSupportPower",
    "Wreath",
    "Tower",
    "ExtensionRef",
    "parse_expr",
    "print_expr",
]

MAX_TOWER_HEIGHT = 64
MAX_DEGREE = 64  # of S(n), A(n) and perm(n; ...); S(64) still parses, and reaches the closure cap
# MAX_NESTING, shared with ordinals, bounds constructor calls open at once: prod(prod(Z)) nests 2


class DslError(ValueError):
    """Invalid expression AST."""


class DslParseError(DslError):
    """Syntax or arity error, position-tagged."""

    _where = "offset"
    __init__ = OrdinalParseError.__init__


def _check_tuple(value, what: str, item: str = "") -> None:
    """Raise ``DslError`` unless ``value`` is a tuple of at least one ``item`` (when named)."""
    if not isinstance(value, tuple):
        raise DslError(f"{what} must be a tuple, got {value!r}")
    if item and not value:
        raise DslError(f"{what} needs at least one {item}")


def _check_int(value, what: str, low: int, high: Optional[int] = None) -> None:
    """Raise ``DslError`` unless ``value`` is an int, not a bool, in [low, high]."""
    if type(value) is not int:
        raise DslError(f"{what} must be an int, got {value!r}")
    if value < low:
        raise DslError(f"{what} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise DslError(f"{what} must be <= {high}, got {value}")


@dataclass(frozen=True)
class Trivial:
    pass


@dataclass(frozen=True)
class Cyclic:
    n: int

    def __post_init__(self):
        _check_int(self.n, "cyclic order", 1)


@dataclass(frozen=True)
class Perm:
    degree: int
    generators: tuple  # each generator is a tuple of cycles; a cycle is a tuple of ints

    def __post_init__(self):
        _check_int(self.degree, "degree", 0, MAX_DEGREE)
        _check_tuple(self.generators, "perm generators")
        for gen in self.generators:
            _check_tuple(gen, "a generator", "cycle")
            for cycle in gen:
                _check_tuple(cycle, "a cycle", "point")
                for p in cycle:
                    _check_int(p, "cycle point", 0)
                if len(set(cycle)) != len(cycle):
                    raise DslError(f"cycle repeats a point: {cycle}")
                for p in cycle:
                    if not 0 <= p < self.degree:
                        raise DslError(f"cycle point {p} outside degree {self.degree}")


@dataclass(frozen=True)
class Int:
    pass


@dataclass(frozen=True)
class Dinf:
    pass


@dataclass(frozen=True)
class Product:
    items: tuple

    def __post_init__(self):
        _check_tuple(self.items, "prod", "item")


@dataclass(frozen=True)
class FinSupportPower:
    base: "GroupExpr"
    points: Union[int, str]  # an int for finite points, "N" for the naturals

    def __post_init__(self):
        if self.points != "N" and (type(self.points) is not int or self.points < 1):
            raise DslError(f"points must be 'N' or a positive int, got {self.points!r}")


@dataclass(frozen=True)
class Wreath:
    base: "GroupExpr"
    top: "GroupExpr"


@dataclass(frozen=True)
class Tower:
    base: "GroupExpr"
    n: int

    def __post_init__(self):
        _check_int(self.n, "tower height", 1, MAX_TOWER_HEIGHT)


@dataclass(frozen=True)
class ExtensionRef:
    name: str

    def __post_init__(self):
        if not (isinstance(self.name, str) and self.name not in _RESERVED
                and 0 < _identifier_end(self.name, 0) == len(self.name)):
            raise DslError(f"extension name must be an identifier other than Z, Dinf, N "
                           f"and the constructors, got {self.name!r}")


GroupExpr = Union[
    Trivial, Cyclic, Perm, Int, Dinf, Product, FinSupportPower, Wreath, Tower, ExtensionRef
]


_SUGAR = {
    "S": lambda n: Perm(n, _symmetric_cycles(n)),
    "A": lambda n: Perm(n, _alternating_cycles(n)),
}
_CONSTRUCTORS = ("C", "S", "A", "perm", "power", "wreath", "tower", "prod")
_RESERVED = {"Z", "Dinf", "N", *_CONSTRUCTORS}


def _identifier_end(text: str, start: int) -> int:
    """The end of the identifier (a letter or _, then letters, digits or _) at ``start``."""
    end = start
    while end < len(text) and (text[end] == "_" or (
            text[end].isalnum() if end > start else text[end].isalpha())):
        end += 1
    return end


class _Parser(_Scanner):
    error = DslParseError

    def identifier(self) -> tuple[str, int]:
        self.skip_ws()
        start, self.pos = self.pos, _identifier_end(self.text, self.pos)
        if self.pos == start:
            raise DslParseError("unexpected character", start, ("expression",))
        return self.text[start:self.pos], start

    def cycle(self) -> tuple[int, ...]:
        self.expect("(")
        points = []
        while not self.take(")"):
            value, start = self.integer()
            if value < 0:
                raise DslParseError("cycle points are non-negative", start)
            points.append(value)
        if not points:
            raise DslParseError("empty cycle", self.pos - 1)
        return tuple(points)

    def generator(self) -> tuple:
        cycles = [self.cycle()]
        while self.peek() == "(":
            cycles.append(self.cycle())
        return tuple(cycles)

    def expr(self) -> GroupExpr:
        if self.peek().isdigit():
            value, start = self.integer()
            if value == 1:
                return Trivial()
            raise DslParseError("unexpected integer literal", start, ("expression",))
        name, start = self.identifier()
        if name == "Z":
            return Int()
        if name == "Dinf":
            return Dinf()
        if name == "N":
            raise DslParseError("'N' is only valid as a power point set", start)
        if name not in _CONSTRUCTORS:
            return ExtensionRef(name)
        self.nest("constructors", start)
        self.expect("(")
        self.skip_ws()
        first = self.pos
        make, args = self.arguments(name)
        self.unnest()
        try:
            return make(*args)
        except DslError as exc:  # a perm cycle that repeats a point or leaves the degree
            raise DslParseError(str(exc), first) from exc

    def arguments(self, name: str) -> tuple[Callable[..., GroupExpr], tuple]:
        """The constructor named ``name`` and the arguments inside its parentheses."""
        if name == "C":
            return Cyclic, (self.at_least(1, "cyclic order"),)
        if name in _SUGAR:
            return _SUGAR[name], (self.at_least(0, "degree", MAX_DEGREE),)
        if name == "perm":
            degree = self.at_least(0, "degree", MAX_DEGREE)
            self.expect(";")
            if self.peek() not in ("(", ")"):
                raise DslParseError("unexpected character", self.pos, ("'('", "')'"))
            gens = [] if self.peek() == ")" else [self.generator()]  # perm(n;) is trivial
            while gens and self.take(","):
                gens.append(self.generator())
            return Perm, (degree, tuple(gens))
        if name == "prod":
            items = [self.expr()]
            while self.take(","):
                items.append(self.expr())
            return Product, (tuple(items),)
        base = self.expr()
        self.expect(",")
        if name == "wreath":
            return Wreath, (base, self.expr())
        if name == "tower":
            return Tower, (base, self.at_least(1, "tower height", MAX_TOWER_HEIGHT))
        return FinSupportPower, (base, "N" if self.take("N") else self.at_least(1, "points"))


def parse_expr(text: str) -> GroupExpr:
    parser = _Parser(text)
    ast = parser.expr()
    parser.finish()
    return ast


def print_expr(ast: GroupExpr) -> str:
    """Canonical text: parse(print(ast)) == ast."""
    if isinstance(ast, Trivial):
        return "1"
    if isinstance(ast, Int):
        return "Z"
    if isinstance(ast, Dinf):
        return "Dinf"
    if isinstance(ast, Cyclic):
        return f"C({ast.n})"
    if isinstance(ast, Perm):
        gens = ", ".join(
            "".join("(" + " ".join(map(str, cycle)) + ")" for cycle in gen)
            for gen in ast.generators
        )
        return f"perm({ast.degree}; {gens})"
    if isinstance(ast, Product):
        return "prod(" + ", ".join(print_expr(i) for i in ast.items) + ")"
    if isinstance(ast, FinSupportPower):
        return f"power({print_expr(ast.base)}, {ast.points})"
    if isinstance(ast, Wreath):
        return f"wreath({print_expr(ast.base)}, {print_expr(ast.top)})"
    if isinstance(ast, Tower):
        return f"tower({print_expr(ast.base)}, {ast.n})"
    if isinstance(ast, ExtensionRef):
        return ast.name
    raise DslError(f"not an expression AST: {ast!r}")

