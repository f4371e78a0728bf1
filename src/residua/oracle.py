"""Brute-force ground truth for finite groups.

Complete subgroup lattices by cyclic-subgroup join closure, the intersection
of bounded-index subgroups, the least workable strict index bound for a
descending chain, exact depth for finite groups, and exhaustive descending
chain enumeration.  Everything here is independent of the chain machinery so
it can validate it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .groups import Group, GroupError, label_sort_key, mulclose
from .ordinal import ONE, ZERO, Ordinal

__all__ = [
    "ORACLE_CAP",
    "OracleCapError",
    "SubgroupLattice",
    "all_subgroups",
    "all_subgroups_naive",
    "core_up_to_index",
    "min_kappa",
    "minimax_chain",
    "depth_exact_finite",
    "chain_enumerate",
]

ORACLE_CAP = 128


class OracleCapError(GroupError):
    """Group too large (or infinite) for exhaustive lattice work."""


def _sorted_values(values) -> tuple:
    return tuple(sorted(values, key=label_sort_key))


@dataclass(frozen=True)
class SubgroupLattice:
    """All subgroups of a finite group, canonically ordered.

    Subgroups are frozensets of canonical element values, sorted by
    (order, sorted elements); index 0 is the trivial subgroup and the last
    entry is the whole group.
    """

    group: Group
    subgroups: tuple[frozenset, ...]

    def __len__(self) -> int:
        return len(self.subgroups)

    @property
    def trivial(self) -> frozenset:
        return self.subgroups[0]

    @property
    def whole(self) -> frozenset:
        return self.subgroups[-1]

    def to_jsonable(self):
        return {
            "group": self.group.tag,
            "order": self.group.order,
            "count": len(self.subgroups),
            "subgroups": [
                {
                    "order": len(s),
                    "elements": [
                        self.group.value_to_jsonable(v) for v in _sorted_values(s)
                    ],
                }
                for s in self.subgroups
            ],
        }


def _require_small(g: Group, cap: int = ORACLE_CAP) -> int:
    n = g.order
    if n is None:
        raise OracleCapError(f"{g.tag} is infinite; the oracle only handles finite groups")
    if n > cap:
        raise OracleCapError(f"|{g.tag}| = {n} exceeds the oracle cap {cap}")
    return n


def _canon_lattice(group: Group, subs: Iterable[frozenset]) -> SubgroupLattice:
    uniq = sorted(set(subs), key=lambda s: (len(s), [label_sort_key(v) for v in _sorted_values(s)]))
    return SubgroupLattice(group=group, subgroups=tuple(uniq))


def all_subgroups(g: Group) -> SubgroupLattice:
    """The complete subgroup lattice of a finite group with |g| <= the cap.

    Every subgroup is the join of its cyclic subgroups, so closing the set of
    cyclic subgroups under pairwise joins reaches all of them.  Each listed
    set is then re-verified closed, exhaustively.
    """
    _require_small(g)
    values = g.element_values()
    ident = g.identity_value()
    cyclic = set()
    for v in values:
        sub = {ident}
        x = v
        while x not in sub:
            sub.add(x)
            x = g.mul_values(x, v)
        cyclic.add(frozenset(sub))
    subs = set(cyclic)
    worklist = sorted(cyclic, key=lambda s: (len(s), [label_sort_key(v) for v in _sorted_values(s)]))
    while worklist:
        fresh = []
        for a in list(subs):
            for b in worklist:
                if a <= b or b <= a:
                    continue
                join = frozenset(mulclose(_sorted_values(a | b), g.mul_values))
                if join not in subs:
                    subs.add(join)
                    fresh.append(join)
        worklist = fresh
    for s in subs:
        _verify_closed(g, s)
    return _canon_lattice(g, subs)


def _verify_closed(g: Group, s: frozenset):
    if g.identity_value() not in s:
        raise GroupError("subgroup candidate misses the identity")
    for a in s:
        if g.inv_value(a) not in s:
            raise GroupError("subgroup candidate not closed under inversion")
        for b in s:
            if g.mul_values(a, b) not in s:
                raise GroupError("subgroup candidate not closed under multiplication")


def all_subgroups_naive(g: Group) -> SubgroupLattice:
    """Independent check: scan every subset for closure.  Only for |g| <= 12."""
    n = _require_small(g, cap=12)
    values = g.element_values()
    ident = g.identity_value()
    rest = [v for v in values if v != ident]
    subs = []
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            s = frozenset((ident, *combo))
            if n % len(s) != 0:
                continue
            if all(g.mul_values(a, b) in s for a in s for b in s):
                subs.append(s)
    return _canon_lattice(g, subs)


def core_up_to_index(g: Group, k: int) -> frozenset:
    """Intersection of all subgroups of index strictly below k."""
    lat = all_subgroups(g)
    n = g.order
    core = set(lat.whole)
    for s in lat.subgroups:
        if n // len(s) < k:
            core &= s
    return frozenset(core)


def _chain_search(lat: SubgroupLattice):
    """Minimax-index descending chains: for each subgroup, the best chain to 1.

    best(H) minimizes the maximum step index, tie-broken by the
    lexicographically smallest index sequence, then by canonical subgroup
    order.  Returns {subgroup: (max_index, index_seq, chain_list)}.
    """
    order = {s: len(s) for s in lat.subgroups}
    best: dict = {}

    def solve(h: frozenset):
        if h in best:
            return best[h]
        if len(h) == 1:
            best[h] = (0, (), [h])
            return best[h]
        candidates = []
        for k in lat.subgroups:
            if k < h:
                step = order[h] // order[k]
                sub_max, sub_seq, sub_chain = solve(k)
                candidates.append(
                    (max(step, sub_max), (step,) + sub_seq, [h] + sub_chain)
                )
        candidates.sort(key=lambda t: (t[0], t[1]))
        best[h] = candidates[0]
        return best[h]

    for s in lat.subgroups:
        solve(s)
    return best


def minimax_chain(g: Group) -> list[frozenset]:
    """A strictly descending chain from g to 1 minimizing the largest index."""
    lat = all_subgroups(g)
    return _chain_search(lat)[lat.whole][2]


def min_kappa(g: Group) -> int:
    """Least strict bound admitting some descending chain from g to 1.

    A chain with all step indices < kappa exists iff kappa exceeds the
    minimax over the lattice; the trivial group takes the empty chain and
    reports 1 by convention.
    """
    lat = all_subgroups(g)
    if g.order == 1:
        return 1
    best = _chain_search(lat)
    return best[lat.whole][0] + 1


def depth_exact_finite(g: Group) -> Ordinal:
    """0 for the trivial group, 1 otherwise; cross-checked on the lattice."""
    n = _require_small(g)
    lat = all_subgroups(g)
    # a single-step chain g > 1 with index |g| < |g|+1 always exists
    assert lat.subgroups[0] == frozenset({g.identity_value()})
    assert n // len(lat.trivial) < n + 1
    return ZERO if n == 1 else ONE


def chain_enumerate(g: Group, max_len: int) -> list[list[frozenset]]:
    """All strictly descending subgroup chains from g to 1 of length <= max_len.

    A chain of length m is [g = H_0, H_1, ..., H_m = 1]; the trivial group
    yields the single empty chain.  Deterministic order.
    """
    lat = all_subgroups(g)
    out: list[list[frozenset]] = []

    def extend(path: list[frozenset]):
        current = path[-1]
        if len(current) == 1:
            out.append(list(path))
            return
        if len(path) > max_len:
            return
        for k in lat.subgroups:
            if k < current:
                path.append(k)
                extend(path)
                path.pop()

    extend([lat.whole])
    return [c for c in out if len(c) - 1 <= max_len]
