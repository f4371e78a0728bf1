"""The group expression language used by the CLI and test fixtures.

    expr   := "1" | "Z" | "Dinf" | "C(" int ")" | "S(" int ")" | "A(" int ")"
            | "perm(" int ";" cycles ")" | "power(" expr "," points ")"
            | "wreath(" expr "," expr ")" | "tower(" expr "," int ")"
            | "prod(" expr {"," expr} ")"
    points := "N" | int
    cycles := generator {"," generator};  generator := cycle+
    cycle  := "(" int {int} ")"

Whitespace is insignificant.  S(n) and A(n) are sugar for perm(...) with the
standard generating sets.  Any other identifier parses as a named extension
reference, to be resolved against programmatic registrations.  Errors carry
the byte offset of the first offending character and the expected tokens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

from .groups import _alternating_cycles, _symmetric_cycles
from .ordinal import OrdinalParseError, _Scanner

__all__ = [
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


class DslError(ValueError):
    """Invalid expression AST."""


class DslParseError(DslError):
    """Syntax or arity error, position-tagged."""

    _where = "offset"
    __init__ = OrdinalParseError.__init__


@dataclass(frozen=True)
class Trivial:
    pass


@dataclass(frozen=True)
class Cyclic:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise DslError(f"cyclic order must be >= 1, got {self.n}")


@dataclass(frozen=True)
class Perm:
    degree: int
    generators: tuple  # each generator is a tuple of cycles; a cycle is a tuple of ints

    def __post_init__(self):
        for gen in self.generators:
            for cycle in gen:
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
        if not self.items:
            raise DslError("prod needs at least one item")


@dataclass(frozen=True)
class FinSupportPower:
    base: "GroupExpr"
    points: Union[int, str]  # an int for finite points, "N" for the naturals

    def __post_init__(self):
        if self.points != "N" and (not isinstance(self.points, int) or self.points < 1):
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
        if self.n < 1:
            raise DslError(f"tower height must be >= 1, got {self.n}")


@dataclass(frozen=True)
class ExtensionRef:
    name: str


GroupExpr = Union[
    Trivial, Cyclic, Perm, Int, Dinf, Product, FinSupportPower, Wreath, Tower, ExtensionRef
]


_SUGAR = {
    "S": lambda n: Perm(n, _symmetric_cycles(n)),
    "A": lambda n: Perm(n, _alternating_cycles(n)),
}
_CONSTRUCTORS = ("C", "S", "A", "perm", "power", "wreath", "tower", "prod")


class _Parser(_Scanner):
    error = DslParseError

    def identifier(self) -> tuple[str, int]:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and (
            self.text[self.pos].isalpha() or self.text[self.pos] == "_"
        ):
            self.pos += 1
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
        if self.pos == start:
            raise DslParseError(
                "unexpected character", start, ("expression",)
            )
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
        self.expect("(")
        self.skip_ws()
        first = self.pos
        make, args = self.arguments(name)
        self.expect(")")
        try:
            return make(*args)
        except DslError as exc:  # a perm cycle that repeats a point or leaves the degree
            raise DslParseError(str(exc), first) from exc

    def arguments(self, name: str) -> tuple[Callable[..., GroupExpr], tuple]:
        """The constructor named ``name`` and the arguments inside its parentheses."""
        if name == "C":
            return Cyclic, (self.at_least(1, "cyclic order"),)
        if name in _SUGAR:
            return _SUGAR[name], (self.at_least(0, "degree"),)
        if name == "perm":
            degree = self.at_least(0, "degree")
            self.expect(";")
            gens = [self.generator()]
            while self.take(","):
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
            return Tower, (base, self.at_least(1, "tower height"))
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

