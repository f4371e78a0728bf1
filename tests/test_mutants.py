"""A wrong chain never passes: mutants of library chains, and the ones that still do.

Each mutant swaps one stage of a library chain through
``dataclasses.replace`` on its ``block_rule``, with no library change:

- *deeper*: row (b, n) keeps its transversal and takes row n + 1's
  membership test;
- *dropped*: row (b, n) loses the last representative of its largest
  factor;
- *bigger*: the limit stage w*b is step ``levels`` of block b - 1;
- *smaller*: the limit stage w*b is step 1 of block b.

A finite chain has no blocks, so its mutants are of one kind: each row of
its tail, in turn, is *dropped* through ``dataclasses.replace`` on ``tail``.

Every mutant certifies a wrong index or a wrong limit, so a ``pass`` is a
wrong verdict.  ``SURVIVORS`` and ``FINITE_SURVIVORS`` list the mutants that
still pass with the CLI defaults (64 probes, seed 0, word length 8).  They
are an open defect, not a tolerance: a row whose parent stage holds no
non-identity probe is never tested for cover, a dropped row passes when no
probe lands in the coset it lost, and a bigger limit is caught only by an
element deep in the block below it.  A fix removes entries; a new survivor
fails these tests.
"""

import dataclasses

import pytest

from residua.catalog import chain_for
from residua.chains import verify_prefix
from residua.dsl import parse_expr
from residua.stages import Transversal

# (expression, levels checked)
CHAINS = [
    ("Z", 8), ("Dinf", 8), ("wreath(C(2),Z)", 6), ("tower(Z,2)", 6), ("tower(Dinf,2)", 6),
    ("power(Dinf,N)", 6), ("tower(Dinf,3)", 4), ("wreath(wreath(C(2),Z),Z)", 4),
]

# (expression, kind, block, step) of every mutant that passes
SURVIVORS = {
    *[("Z", "dropped", 0, n) for n in (4, 5, 6, 7, 8)], ("Z", "deeper", 0, 8),
    *[("Dinf", "dropped", 0, n) for n in (5, 6, 7, 8)], ("Dinf", "deeper", 0, 8),
    *[("wreath(C(2),Z)", "dropped", b, n) for b, n in ((0, 4), (0, 5), (0, 6), (1, 4),
                                                          (1, 5), (1, 6))],
    *[("wreath(C(2),Z)", "deeper", b, n) for b, n in ((0, 6), (1, 3), (1, 4), (1, 5), (1, 6))],
    ("wreath(C(2),Z)", "bigger", 1, 0),
    *[("tower(Z,2)", "dropped", b, n) for b, n in ((0, 4), (0, 5), (0, 6), (1, 3), (1, 4),
                                                      (1, 5), (1, 6))],
    ("tower(Z,2)", "deeper", 0, 6), ("tower(Z,2)", "deeper", 1, 6), ("tower(Z,2)", "bigger", 1, 0),
    *[("tower(Dinf,2)", "dropped", b, n) for b, n in ((0, 4), (0, 5), (0, 6), (1, 4), (1, 5),
                                                         (1, 6))],
    ("tower(Dinf,2)", "deeper", 0, 6), ("tower(Dinf,2)", "deeper", 1, 6),
    ("tower(Dinf,2)", "bigger", 1, 0),
    *[("power(Dinf,N)", "dropped", 0, n) for n in (4, 5, 6)], ("power(Dinf,N)", "deeper", 0, 6),
    *[("tower(Dinf,3)", kind, b, 4) for kind in ("deeper", "dropped") for b in (0, 1, 2)],
    ("tower(Dinf,3)", "bigger", 1, 0), ("tower(Dinf,3)", "bigger", 2, 0),
    *[("wreath(wreath(C(2),Z),Z)", "dropped", b, n) for b, n in ((0, 4), (1, 3), (1, 4), (2, 2),
                                                                    (2, 3), (2, 4))],
    *[("wreath(wreath(C(2),Z),Z)", "deeper", b, n) for b, n in ((0, 4), (1, 4), (2, 3), (2, 4))],
    ("wreath(wreath(C(2),Z),Z)", "bigger", 1, 0), ("wreath(wreath(C(2),Z),Z)", "bigger", 2, 0),
}

FINITE_CHAINS = ["S(5)", "A(6)", "S(7)", "wreath(C(2),C(4))", "power(C(2),6)", "C(1000)"]

# (expression, tail step) of every dropped finite row that passes: no probe
# lands in the coset that lost its representative
FINITE_SURVIVORS = {("S(5)", 5), ("A(6)", 1), ("S(7)", 1)}


def swapped(chain, b, n, stage):
    """``chain`` with ``stage`` at w*b + n."""
    return dataclasses.replace(
        chain, block_rule=lambda bb, nn: stage if (bb, nn) == (b, n) else chain.stage_at(bb, nn))


def dropped(t: Transversal) -> Transversal:
    """``t`` without the last representative of its first largest factor."""
    reps = [list(r) for r in t.factor_reps()]
    largest = max(reps, key=len)
    largest.pop()
    if len(reps) == 1:
        return Transversal(t.group, largest)
    return Transversal(factors=[Transversal(t.group, r) for r in reps],
                       intermediates=t.intermediates)


def mutants(chain, levels: int):
    """(kind, block, step, mutant chain) of every mutant of ``chain``."""
    for b in range(chain.num_blocks):
        for n in range(1, levels + 1):
            stage = chain.stage_at(b, n)
            deeper = dataclasses.replace(stage, membership=chain.stage_at(b, n + 1).membership)
            yield "deeper", b, n, swapped(chain, b, n, deeper)
            yield "dropped", b, n, swapped(chain, b, n, dataclasses.replace(
                stage, transversal=dropped(stage.transversal)))
        if b >= 1:
            yield "bigger", b, 0, swapped(chain, b, 0, chain.stage_at(b - 1, levels))
            yield "smaller", b, 0, swapped(chain, b, 0, chain.stage_at(b, 1))


@pytest.mark.parametrize("expr, levels", CHAINS, ids=[expr for expr, _ in CHAINS])
def test_exactly_the_listed_mutants_pass(expr, levels):
    passed = {(expr, kind, b, n)
              for kind, b, n, chain in mutants(chain_for(parse_expr(expr)), levels)
              if verify_prefix(chain, levels, 64, 0).verdict == "pass"}
    assert passed == {s for s in SURVIVORS if s[0] == expr}


def test_the_survivors_are_66_of_178_mutants():
    # the list only shrinks; a fix that empties it closes the defect
    count = sum(1 for expr, levels in CHAINS for _ in mutants(chain_for(parse_expr(expr)), levels))
    assert (len(SURVIVORS), count) == (66, 178)


def dropped_tail_rows(chain):
    """(step, mutant chain) for each row of ``chain``'s tail, dropped in turn."""
    for n, stage in enumerate(chain.tail, start=1):
        wrong = dataclasses.replace(stage, transversal=dropped(stage.transversal))
        yield n, dataclasses.replace(chain, tail=(*chain.tail[:n - 1], wrong, *chain.tail[n:]))


def test_exactly_the_listed_dropped_finite_rows_pass():
    passed, count = set(), 0
    for expr in FINITE_CHAINS:
        for n, chain in dropped_tail_rows(chain_for(parse_expr(expr))):
            count += 1
            if verify_prefix(chain, 1, 64, 0).verdict == "pass":
                passed.add((expr, n))
    assert (passed, count) == (FINITE_SURVIVORS, 12)
