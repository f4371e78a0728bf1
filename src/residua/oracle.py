"""Brute-force ground truth for finite groups.

Complete subgroup lattices by cyclic extension over the group's Cayley
table (``Group.cayley_table``, built once per group and shared with finite
chains and coset trees), the intersection of bounded-index subgroups, the
least workable strict index bound for a descending chain, exact depth for
finite groups, and exhaustive descending chain enumeration.  Everything
here is independent of the chain machinery so it can validate it.  Two
checks do not trust the table: every subgroup found is re-verified closed
(``_verify_closed``), and ``all_subgroups_naive`` scans subsets with
``mul_values`` directly.  Elements are ordered by their table index, which
is the ``label_sort_key`` order of ``element_values``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .groups import ORACLE_CAP, Group, GroupError
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


class OracleCapError(GroupError):
    """Group too large (or infinite) for exhaustive lattice work."""


def _sorted_values(group: Group, values) -> tuple:
    return tuple(sorted(values, key=group.cayley_table().index.__getitem__))


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
                        self.group.value_to_jsonable(v) for v in _sorted_values(self.group, s)
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
    index = group.cayley_table().index
    uniq = sorted(set(subs), key=lambda s: (len(s), sorted(index[v] for v in s)))
    return SubgroupLattice(group=group, subgroups=tuple(uniq))


def all_subgroups(g: Group) -> SubgroupLattice:
    """The complete subgroup lattice of a finite group with |g| <= the cap.

    Cyclic extension over the group's Cayley table: subgroups are int
    bitmasks over element indices with a short generator list, and each
    subgroup found in a round is joined with every cyclic subgroup it does
    not contain.  Every subgroup is an iterated join of cyclic ones, so this
    reaches all of them.  Each found mask is then re-verified closed,
    exhaustively, through the tables.
    """
    _require_small(g)
    table = g.cayley_table()
    values, mul, inv = table.values, table.mul, table.inv
    e = table.index[g.identity_value()]
    cyclic = {}
    for i in range(len(values)):
        cyclic.setdefault(_join(mul, 1 << e, [e], [i]), i)
    found = {mask: [c] for mask, c in cyclic.items()}
    layer = list(found.items())
    while layer:
        fresh = []
        for mask, gens in layer:
            members = _members(mask)
            for c in cyclic.values():
                if mask >> c & 1:
                    continue
                ext = gens + [c]
                join = _join(mul, mask, members, ext)
                if join not in found:
                    found[join] = ext
                    fresh.append((join, ext))
        layer = fresh
    for mask in found:
        _verify_closed(mul, inv, e, mask)
    return _canon_lattice(g, (frozenset(values[i] for i in _members(mask)) for mask in found))


def _members(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _join(mul: list, mask: int, members: list[int], gens: list[int]) -> int:
    """Close a subgroup H (its mask and members) with gens, through the table.

    Breadth-first over left cosets y*H: the union of the cosets reached by
    left multiplication with the generators is the subgroup they generate.
    """
    reps = members[:1]
    for y in reps:
        for s in gens:
            z = mul[s][y]
            if not mask >> z & 1:
                row = mul[z]
                for h in members:
                    mask |= 1 << row[h]
                reps.append(z)
    return mask


def _verify_closed(mul: list, inv: list, e: int, mask: int):
    if not mask >> e & 1:
        raise GroupError("subgroup candidate misses the identity")
    members = _members(mask)
    for a in members:
        if not mask >> inv[a] & 1:
            raise GroupError("subgroup candidate not closed under inversion")
        row = mul[a]
        for b in members:
            if not mask >> row[b] & 1:
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
    return _core(all_subgroups(g), k)


def _core(lat: SubgroupLattice, k: int) -> frozenset:
    n = len(lat.whole)
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
    """0 for the trivial group, 1 otherwise: the single step g > 1 has index
    |g| < |g| + 1, so no subgroup lattice is needed."""
    return ZERO if _require_small(g) == 1 else ONE


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
