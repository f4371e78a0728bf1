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
from typing import Union

from .groups import _alternating_cycles, _symmetric_cycles
from .ordinal import _Scanner

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

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        self.position = position
        self.expected = expected
        detail = f"{message} at offset {position}"
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        super().__init__(detail)


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


class _Parser(_Scanner):
    error = DslParseError

    def integer(self) -> tuple[int, int]:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            raise DslParseError("unexpected character", start, ("integer",))
        try:
            return int(self.text[start:self.pos]), start
        except ValueError:  # past the interpreter's digit limit, or a digit int() rejects
            raise DslParseError("unreadable integer literal", start) from None

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

    def positive(self, what: str) -> int:
        value, start = self.integer()
        if value < 1:
            raise DslParseError(f"{what} must be >= 1", start)
        return value

    def cycle(self) -> tuple[int, ...]:
        self.expect("(")
        points = []
        while True:
            self.skip_ws()
            if self.peek() == ")":
                self.pos += 1
                break
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
        self.skip_ws()
        if self.peek().isdigit():
            start = self.pos
            value, _ = self.integer()
            if value == 1:
                return Trivial()
            raise DslParseError("unexpected integer literal", start, ("expression",))
        name, start = self.identifier()
        if name == "Z":
            return Int()
        if name == "Dinf":
            return Dinf()
        if name == "C":
            self.expect("(")
            n_value, n_start = self.integer()
            if n_value < 1:
                raise DslParseError("cyclic order must be >= 1", n_start)
            self.expect(")")
            return Cyclic(n_value)
        if name in ("S", "A"):
            self.expect("(")
            n_value, n_start = self.integer()
            if n_value < 0:
                raise DslParseError("degree must be >= 0", n_start)
            self.expect(")")
            gens = _symmetric_cycles(n_value) if name == "S" else _alternating_cycles(n_value)
            return Perm(n_value, gens)
        if name == "perm":
            self.expect("(")
            degree, d_start = self.integer()
            if degree < 0:
                raise DslParseError("degree must be >= 0", d_start)
            self.expect(";")
            gens = [self.generator()]
            while self.take(","):
                gens.append(self.generator())
            self.expect(")")
            try:
                return Perm(degree, tuple(gens))
            except DslError as exc:
                raise DslParseError(str(exc), d_start) from exc
        if name == "power":
            self.expect("(")
            base = self.expr()
            self.expect(",")
            self.skip_ws()
            if self.peek() == "N":
                self.pos += 1
                points: Union[int, str] = "N"
            else:
                points = self.positive("points")
            self.expect(")")
            return FinSupportPower(base, points)
        if name == "wreath":
            self.expect("(")
            base = self.expr()
            self.expect(",")
            top = self.expr()
            self.expect(")")
            return Wreath(base, top)
        if name == "tower":
            self.expect("(")
            base = self.expr()
            self.expect(",")
            self.skip_ws()
            n_value, n_start = self.integer()
            if n_value < 1:
                raise DslParseError("tower height must be >= 1", n_start)
            self.expect(")")
            return Tower(base, n_value)
        if name == "prod":
            self.expect("(")
            items = [self.expr()]
            while self.take(","):
                items.append(self.expr())
            self.expect(")")
            return Product(tuple(items))
        if name == "N":
            raise DslParseError("'N' is only valid as a power point set", start)
        return ExtensionRef(name)


def parse_expr(text: str) -> GroupExpr:
    parser = _Parser(text)
    ast = parser.expr()
    parser.skip_ws()
    if parser.pos != len(text):
        raise DslParseError("trailing input", parser.pos, ("end of input",))
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

