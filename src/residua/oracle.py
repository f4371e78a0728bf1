"""Brute-force ground truth for finite groups.

Complete subgroup lattices by cyclic extension over the group's Cayley
table (``Group.cayley_table``, built once per group and shared with finite
chains and coset trees), which joins each subgroup H with one cyclic
generator per double coset H*c*H outside it (Neubüser 1960; Holt, Eick and
O'Brien, *Handbook of Computational Group Theory*, 2005); the intersection
of bounded-index subgroups, the least workable strict index bound for a
descending chain, exact depth for finite groups, and exhaustive descending
chain enumeration.  Everything
here is independent of the chain machinery so it can validate it.  Two
checks do not trust the table: every subgroup found is re-verified closed
(``_verify_closed``), and the test suite compares small lattices with a
scan of every subset that multiplies with ``mul_values`` directly
(``tests/test_oracle.py``).  Elements are ordered by their table index,
which is the ``label_sort_key`` order of ``element_values``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

from .elements import ORACLE_CAP, Group, GroupError
from .ordinal import ONE, ZERO, Ordinal

__all__ = [
    "OracleCapError",
    "SubgroupLattice",
    "all_subgroups",
    "core_up_to_index",
    "min_kappa",
    "minimax_chain",
    "depth_exact_finite",
    "chain_enumerate",
]


class OracleCapError(GroupError):
    """Group too large (or infinite) for exhaustive lattice work."""


def _in_table_order(group: Group, values) -> tuple:
    """``values`` in the order of the group's Cayley table."""
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
    def whole(self) -> frozenset:
        return self.subgroups[-1]

    def to_jsonable(self):
        """The lattice as JSON data.  Each distinct element value is encoded
        once: equal elements share one object, so ``json_text`` writes each
        once too.  Treat the result as read-only, since a change to one
        element's object shows in every subgroup that holds the element."""
        encode = functools.cache(self.group.value_to_jsonable)
        return {
            "group": self.group.tag,
            "order": self.group.order,
            "count": len(self.subgroups),
            "subgroups": [
                {
                    "order": len(s),
                    "elements": [encode(v) for v in _in_table_order(self.group, s)],
                }
                for s in self.subgroups
            ],
        }


def _require_small(g: Group) -> int:
    n = g.order
    if n is None:
        raise OracleCapError(f"{g.tag} is infinite; the oracle only handles finite groups")
    if n > ORACLE_CAP:
        raise OracleCapError(f"|{g.tag}| = {n} exceeds the oracle cap {ORACLE_CAP}")
    return n


def _canon_lattice(group: Group, subs: Iterable[list[int]]) -> SubgroupLattice:
    """The lattice of subgroups given as ascending table indices, sorted by
    (order, indices)."""
    values = group.cayley_table().values
    ordered = sorted(subs, key=lambda members: (len(members), members))
    return SubgroupLattice(group=group, subgroups=tuple(
        frozenset(map(values.__getitem__, members)) for members in ordered))


def all_subgroups(g: Group) -> SubgroupLattice:
    """The complete subgroup lattice of a finite group with |g| <= the cap.

    Cyclic extension over the group's Cayley table: subgroups are int
    bitmasks over element indices with a short generator list, and each
    subgroup H found in a round is joined with one cyclic generator c per
    double coset H*c*H outside H, since <H, c> = <H, h1*c*h2> for h1, h2 in
    H.  Every subgroup is an iterated join of cyclic ones, so this reaches
    all of them.  Each found mask is then re-verified closed, exhaustively,
    through the tables.
    """
    _require_small(g)
    table = g.cayley_table()
    mul, inv = table.mul, table.inv
    e = table.index[g.identity_value()]
    cyclic = {}
    for i in range(len(mul)):
        cyclic.setdefault(_join(mul, 1 << e, [e], [i]), i)
    found = {mask: [c] for mask, c in cyclic.items()}
    candidates = sum(1 << c for c in cyclic.values())
    members_of = {}
    layer = list(found.items())
    while layer:
        fresh = []
        for mask, gens in layer:
            members = members_of[mask] = _members(mask)
            marked = mask
            while todo := candidates & ~marked:
                c = (todo & -todo).bit_length() - 1  # the least one left
                ext = gens + [c]
                join = _join(mul, mask, members, ext)
                if join not in found:
                    found[join] = ext
                    fresh.append((join, ext))
                # H*c*H: the left coset c*H and its translates by H
                marked = _translates(mul, marked | _coset(mul[c], members), members, gens, [c])
        layer = fresh
    for mask, members in members_of.items():
        _verify_closed(mul, inv, e, mask, members)
    return _canon_lattice(g, members_of.values())


def _members(mask: int) -> list[int]:
    """The indices of the set bits of ``mask``, ascending."""
    return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def _coset(row: list[int], members: list[int]) -> int:
    """The mask of {row[h] : h in members}: with ``row`` the table row of y,
    the left coset y*H of the subgroup H with these members."""
    mask = 0
    for h in members:
        mask |= 1 << row[h]
    return mask


def _join(mul: list, mask: int, members: list[int], gens: list[int]) -> int:
    """Close a subgroup H (its mask and members) with gens, through the table:
    the union of the left cosets y*H reached from H by left multiplication
    with the generators is the subgroup they generate."""
    return _translates(mul, mask, members, gens, members[:1])


def _translates(mul: list, mask: int, members: list[int], gens: list[int],
                reps: list[int]) -> int:
    """``mask``, a union of left cosets of H (its members) holding the
    cosets of ``reps``, with every left coset those reach by left
    multiplication with ``gens``, breadth-first."""
    for y in reps:
        for s in gens:
            z = mul[s][y]
            if not mask >> z & 1:
                mask |= _coset(mul[z], members)
                reps.append(z)
    return mask


def _verify_closed(mul: list, inv: list, e: int, mask: int, members: list[int]):
    """Every product and inverse of ``members`` lies in ``mask``, and so does e."""
    if not mask >> e & 1:
        raise GroupError("subgroup candidate misses the identity")  # unreachable: joins grow from e
    for a in members:
        if not mask >> inv[a] & 1:
            raise GroupError("subgroup candidate not closed under inversion")
        if _coset(mul[a], members) & ~mask:
            raise GroupError("subgroup candidate not closed under multiplication")


def core_up_to_index(g: Group, k: int) -> frozenset:
    """Intersection of all subgroups of index strictly below k."""
    lat = all_subgroups(g)
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
    order.  Subgroups are solved in canonical order, ascending in size, so
    every proper subgroup of H is solved before H, and ``min`` keeps the
    first of equal candidates.  Returns
    {subgroup: (max_index, index_seq, chain_list)}.
    """
    best: dict = {}
    for h in lat.subgroups:
        best[h] = min(((max(len(h) // len(k), best[k][0]), (len(h) // len(k),) + best[k][1],
                        [h] + best[k][2]) for k in best if k < h),
                      key=lambda t: (t[0], t[1]), default=(0, (), [h]))
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

    if max_len >= 0:  # extend stops there, but would still give a trivial g its empty chain
        extend([lat.whole])
    return out
