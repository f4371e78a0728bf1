"""From group expressions to groups, chains, and depth intervals.

Every expression shape the language can denote gets a registered group
builder and (except unresolved extension references) a chain constructor:

- finite groups get a minimax-index chain from the subgroup lattice oracle
  when they fit under its cap, and the one-step chain otherwise;
- the integers and the infinite dihedral group get their 2-adic chains;
- products concatenate factor chains through the projection onto the first
  factor;
- powers lift the base chain coordinatewise (countable points need the
  base padded to length w first; finite points lift diagonally);
- wreath products concatenate the top chain's pullback with the kernel
  power chain;
- towers iterate that construction, one w block per level.

The last three come from ``powers``, and the rest from ``chains`` and
``oracle``.

Named extension references resolve against programmatic registrations only.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

from . import dsl
from .chains import (
    ChainSchema,
    DepthInterval,
    concat_extension,
    dihedral_chain,
    finite_chain,
    integers_chain,
    single_step_chain,
)
from .elements import ORACLE_CAP, Group, GroupError, ValueMap
from .groups import (
    CountablePoints,
    DirectProductGroup,
    ExtensionHandle,
    FinitePoints,
    finite_support_power,
    make_cyclic,
    make_infinite_dihedral,
    make_integers,
    make_perm,
    perm_from_cycles,
    wreath_product,
)
from .oracle import minimax_chain
from .ordinal import OMEGA, ONE, ZERO, Ordinal, add, decompose_successor, multiply
from .powers import _lifted_power_chain, _tower_chain, _tower_levels, _wreath_chain

__all__ = [
    "UnregisteredConstructionError",
    "build_group",
    "chain_for",
    "depth_interval",
    "register_extension",
]


class UnregisteredConstructionError(GroupError):
    """The expression uses a construction nothing is registered for."""


@dataclass(frozen=True)
class _ExtensionEntry:
    group_factory: Callable[[], Group]
    chain_factory: Optional[Callable[[], ChainSchema]]


_EXTENSIONS: dict[str, _ExtensionEntry] = {}


def register_extension(name: str, group_factory: Callable[[], Group],
                       chain_factory: Optional[Callable[[], ChainSchema]] = None):
    """Register a named group (and optionally a chain) for ExtensionRef use."""
    _EXTENSIONS[name] = _ExtensionEntry(group_factory, chain_factory)


_Claim = tuple[Optional[Ordinal], str, tuple[str, ...]]
_NO_CLAIM: _Claim = (None, "", ())


@dataclass(frozen=True)
class _Compiled:
    """An expression's group, with its chain and depth claim built on demand."""

    group: Group
    chain: Callable[[], ChainSchema]
    claim: Callable[[], _Claim] = lambda: _NO_CLAIM


def _natural_points() -> CountablePoints:
    return CountablePoints(
        lambda i: i, "N", membership=lambda p: isinstance(p, int) and p >= 0
    )


def _finite_group_chain(group: Group) -> ChainSchema:
    if group.order is not None and group.order <= ORACLE_CAP:
        sets = minimax_chain(group)[1:]
        return finite_chain(group, sets, name=f"minimax chain over {group.tag}")
    return single_step_chain(group)


def _split_first_factor(total: DirectProductGroup, rest_group: Group) -> ExtensionHandle:
    """The product as an extension of its later factors by its first one."""
    head, rest = total.factors[0], total.factors[1:]
    one, identities = head.identity_value(), tuple(f.identity_value() for f in rest)
    if len(rest) == 1:
        embed, retract = (lambda k: (one, k)), operator.itemgetter(1)
    else:
        embed, retract = (lambda k: (one, *k)), operator.itemgetter(slice(1, None))
    return ExtensionHandle(
        total=total,
        projection=ValueMap(operator.itemgetter(0), total, head),
        quotient=head,
        section=ValueMap(lambda q: (q, *identities), head, total),
        kernel_group=rest_group,
        kernel_embed=ValueMap(embed, rest_group, total),
        kernel_retract=ValueMap(retract, total, rest_group),
    )


def _compile(expr: dsl.GroupExpr) -> _Compiled:
    """Build each sub-expression's group once; chains reuse those groups.

    Every group is built first, in AST order, so a bad expression reports
    the same error whichever reader asks.  Chains are built afterwards, head
    factor first and wreath top before base.
    """
    if isinstance(expr, dsl.Trivial):
        trivial = make_cyclic(1)
        return _Compiled(trivial, lambda: finite_chain(trivial, [], name="trivial"))
    if isinstance(expr, dsl.Cyclic):
        cyclic = make_cyclic(expr.n)
        return _Compiled(cyclic, partial(_finite_group_chain, cyclic))
    if isinstance(expr, dsl.Perm):
        images = [perm_from_cycles(expr.degree, gen) for gen in expr.generators]
        perm = make_perm(expr.degree, images)
        return _Compiled(perm, partial(_finite_group_chain, perm))
    if isinstance(expr, dsl.Int):
        z = make_integers()
        return _Compiled(z, partial(integers_chain, 2, z))
    if isinstance(expr, dsl.Dinf):
        d = make_infinite_dihedral()
        return _Compiled(d, partial(dihedral_chain, 2, d))
    if isinstance(expr, dsl.Product):
        if len(expr.items) == 1:
            return _compile(expr.items[0])
        parts = [_compile(item) for item in expr.items]
        factors = [part.group for part in parts]
        product = DirectProductGroup(factors)

        def product_chain() -> ChainSchema:
            chains = [part.chain() for part in parts]
            chain, rest = chains[-1], factors[-1]
            for i in range(len(parts) - 2, -1, -1):
                total = product if i == 0 else DirectProductGroup(factors[i:])
                chain = concat_extension(_split_first_factor(total, rest), chains[i], chain)
                rest = total
            return chain

        return _Compiled(product, product_chain)
    if isinstance(expr, dsl.FinSupportPower):
        base = _compile(expr.base)
        points = _natural_points() if expr.points == "N" else FinitePoints(range(expr.points))
        power = finite_support_power(base.group, points)
        return _Compiled(power, lambda: _lifted_power_chain(base.chain(), power))
    if isinstance(expr, dsl.Wreath):
        base, top = _compile(expr.base), _compile(expr.top)
        wreath = wreath_product(base.group, top.group)

        def tower_wreath_claim() -> _Claim:
            if not isinstance(expr.base, dsl.Tower) or top.group.order in (None, 1):
                return _NO_CLAIM
            tower_depth, _, flags = base.claim()
            if tower_depth is None:
                return None, "", flags
            tag = "tower wreath a nontrivial finite group: claimed one past the tower depth"
            return add(tower_depth, 1), tag, flags

        return _Compiled(wreath, lambda: _wreath_chain(wreath, top.chain(), base.chain()),
                         tower_wreath_claim)
    if isinstance(expr, dsl.Tower):
        base = _compile(expr.base)
        g = base.group
        levels = _tower_levels(g, expr.n)

        def tower_claim() -> _Claim:
            if (g.order is None and g.is_residually_finite_claimed
                    and g.has_finite_abelianization_claimed):
                return multiply(OMEGA, expr.n), "iterated wreath tower: exact depth claimed", ()
            return None, "", ("exact-depth claim withheld: the tower base does not carry the "
                              "residual-finiteness and finite-abelianization hypotheses",)

        return _Compiled(levels[-1], lambda: _tower_chain(levels, base.chain()), tower_claim)
    if isinstance(expr, dsl.ExtensionRef):
        entry = _EXTENSIONS.get(expr.name)
        registered = f"registered under {expr.name!r}"
        if entry is None:
            raise UnregisteredConstructionError(f"no construction {registered}")

        def registered_chain() -> ChainSchema:
            if entry.chain_factory is None:
                raise UnregisteredConstructionError(f"no chain constructor {registered}")
            return entry.chain_factory()

        return _Compiled(entry.group_factory(), registered_chain)
    raise UnregisteredConstructionError(f"unknown expression {expr!r}")


def build_group(expr: dsl.GroupExpr) -> Group:
    return _compile(expr).group


def chain_for(expr: dsl.GroupExpr) -> ChainSchema:
    """The registered chain construction for an expression shape."""
    return _compile(expr).chain()


def _valid_depth_bound(length: Ordinal) -> Ordinal:
    """Collapse a chain length to the depth bound it certifies.

    A chain of length limit + n with n >= 2 compresses its finite tail into
    a single jump, so it certifies depth at most limit + 1; reported depths
    then always have a valid shape (0, 1, limit, or limit + 1).
    """
    if length == ZERO:
        return length
    limit_part, tail = decompose_successor(length)
    return add(limit_part, min(tail, 1))


def depth_interval(expr: dsl.GroupExpr) -> DepthInterval:
    """Bracket the depth of the group an expression denotes.

    The upper bound is the compressed length of the registered chain; the
    lower bound is the registered fact for the group (0 trivial, 1
    nontrivial finite, w infinite).  Externally claimed exact values are
    attached for towers and for wreaths of towers by nontrivial finite
    groups; when such a claim falls outside the bracket the interval flags
    the discrepancy instead of resolving it.
    """
    compiled = _compile(expr)
    upper = _valid_depth_bound(compiled.chain().length)
    order = compiled.group.order
    lower = ZERO if order == 1 else ONE if order is not None else OMEGA
    claimed, claim_tag, flags = compiled.claim()
    interval = DepthInterval(
        lower=lower, upper=upper, paper_claimed=claimed, claim_tag=claim_tag, flags=flags,
    )
    if interval.claim_discrepancy:
        interval = replace(interval, flags=flags + (
            "claimed exact depth lies outside the constructed bracket: the "
            "concatenated chain gives a tighter upper bound; discrepancy "
            "reported, not adjudicated",
        ))
    return interval
