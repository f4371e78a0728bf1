"""Certificates and coset trees stay byte-identical.

Each argv is one the benchmark runs; ``bench/golden.json`` pins the first
16 hex digits of the sha256 of its stdout (a list indexed by ``--seed`` for
seeded ops); ``PULLBACK_CASES`` pins a few more argv the same way, and
``VERDICT_CASES`` and ``LIBRARY_CASES`` pin failing and inconclusive
certificates.  Its ``tree`` entries pin the same digest of a library round
trip over chain number i of ``chain_enumerate(group, 3)``.  The file is only
read here.  ``ORACLE_CASES`` and ``MINIMAX_CASES`` pin oracle lattices,
cores, least bounds and minimax chains.
"""

import contextlib
import hashlib
import io
import json
import shlex
from dataclasses import replace
from pathlib import Path

import pytest

from residua import cli, coset_tree, emit, finite_chain, truncate, verify_simple
from residua.catalog import build_group, chain_for
from residua.chains import (
    ChainSchema,
    SubgroupDescriptor,
    Transversal,
    _blocks,
    integers_chain,
    verify_prefix,
)
from residua.dsl import parse_expr
from residua.groups import Element, make_cyclic, make_integers
from residua.oracle import chain_enumerate, minimax_chain
from residua.ordinal import ALEPH0, CardinalBound
from residua.stages import ValueTest

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "bench" / "golden.json").read_text())

# (argv without --seed, seeds to run)
CASES = [
    (("verify", "tower(Dinf,2)", "--format", "json", "--levels", "6"), (0, 7, 45)),
    (("verify", "tower(Dinf,2)", "--format", "json", "--levels", "7"), (0, 3)),
    (("verify", "tower(Dinf,2)", "--format", "json", "--levels", "8"), (2,)),
    (("verify", "tower(Z,3)", "--format", "json", "--levels", "3", "--probes", "16",
      "--limit-budget", "6"), (0, 5, 90)),
    (("verify", "wreath(wreath(C(2),Z),Z)", "--format", "json", "--levels", "3",
      "--probes", "32", "--limit-budget", "8"), (0, 9, 127)),
    (("tree", "tower(Dinf,2)", "--block", "1"), (0,)),
]


@pytest.mark.parametrize(
    "args, seed", [(args, seed) for args, seeds in CASES for seed in seeds],
    ids=lambda v: shlex.join(v) if isinstance(v, tuple) else str(v),
)
def test_output_matches_pinned_digest(args, seed):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*args, "--seed", str(seed)])
    assert code == 0
    pinned = GOLDEN["cli"][shlex.join(args)]
    if isinstance(pinned, list):
        pinned = pinned[seed]
    assert hashlib.sha256(out.getvalue().encode()).hexdigest()[:16] == pinned


def _nested_wreath(n: int) -> str:
    """``wreath(`` nested n deep around ``tower(Dinf,n)``, with ``,C(2))`` at
    each level: rows that map product kernels through every level."""
    return "wreath(" * n + f"tower(Dinf,{n})" + ",C(2))" * n


_SHALLOW = ("--levels", "1", "--probes", "2", "--limit-budget", "1")

# More argv pinned here, not in golden.json, which only holds what the
# benchmark runs: shapes whose rows map product transversals through a
# pullback or a coordinate embedding, towers tall enough that their power
# stages' indices run to millions of bits, the one-step chain of a group
# above the oracle cap, a depth interval with boolean claim fields, and a
# tree deep enough to hold long parent tables.  The same 16 hex digits of
# the stdout sha256.
PULLBACK_CASES = {
    ("verify", "prod(tower(Dinf,2),Z)", "--format", "json", "--levels", "6"): "d9a5a14c80e7ec7e",
    ("verify", "prod(Z,tower(Dinf,2))", "--format", "json", "--levels", "6"): "cbb5614c8d4177eb",
    ("verify", "power(tower(Dinf,2),3)", "--format", "json", "--levels", "5"): "c76e50c4c5d3ef0e",
    ("verify", "power(tower(Z,2),N)", "--format", "json", "--levels", "4"): "4d2b7f189614bb61",
    ("verify", "prod(tower(Z,2),C(3))", "--format", "json", "--levels", "5"): "6c223cb2972b14ec",
    ("tree", "prod(tower(Dinf,2),Z)", "--block", "1", "--levels", "4", "--format", "json"):
        "9b6556ff4ef4cb53",
    ("verify", "tower(Dinf,6)", "--levels", "2"): "c37e4b984000cda7",
    ("verify", "tower(Dinf,7)", "--levels", "2"): "0f611342bc6646d3",
    ("verify", "tower(Dinf,8)", "--levels", "2"): "dbd8692c86badcd3",
    ("verify", "tower(Dinf,16)", "--levels", "1"): "aa0a42a9783a92c2",
    ("verify", "S(7)", "--probes", "4"): "e509c0dc36767ba6",
    ("depth", "tower(Dinf,3)", "--format", "json"): "1de1292c24a46c70",
    ("tree", "wreath(C(2),Z)", "--levels", "12", "--format", "json"): "bec3b93a2a676939",
    ("verify", _nested_wreath(4)): "537dd75f5079e518",
}


@pytest.mark.parametrize("args", list(PULLBACK_CASES), ids=shlex.join)
def test_mapped_product_output_matches_pinned_digest(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(args))
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest()[:16] == PULLBACK_CASES[args]


# Runs that fail or stay inconclusive, pinned the same way with their exit
# status, so that a change to the verifier cannot reorder its failures or drop
# a flag unseen: an index not below kappa, unresolved limits, no probes, and
# nested wreaths whose shallow prefix leaves a limit unresolved.
VERDICT_CASES = {
    ("verify", "C(5)", "--kappa", "3", "--levels", "3", "--format", "json"):
        (2, "973cd1f5037d2dab"),
    ("verify", "tower(Dinf,2)", "--kappa", "3", "--levels", "3", "--format", "json"):
        (2, "f72805c7d8015621"),
    ("verify", "Z", "--limit-budget", "2", "--levels", "5", "--format", "json"):
        (3, "44705bf67f2251a5"),
    ("verify", "prod(C(2),C(3),Z)", "--limit-budget", "0", "--format", "json"):
        (3, "abda8f12df28709f"),
    ("verify", "Z", "--probes", "0", "--format", "json"): (3, "e10dc1a0f8216ab9"),
    ("verify", "S(3)", "--kappa", "3", "--levels", "3"): (2, "0411d7136ab4cafd"),
    ("verify", _nested_wreath(4), *_SHALLOW): (3, "f4843039628c69aa"),
    ("verify", _nested_wreath(8), *_SHALLOW): (3, "c05f394969278666"),
}


@pytest.mark.parametrize("args", list(VERDICT_CASES), ids=shlex.join)
def test_failing_output_matches_pinned_digest(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(args))
    assert (code, hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]) == VERDICT_CASES[args]


def _verify_argvs() -> list:
    """(expression, levels) of every verify argv pinned above."""
    argvs = [args for args, _ in CASES] + list(PULLBACK_CASES) + list(VERDICT_CASES)
    return list(dict.fromkeys(
        (args[1], int(args[args.index("--levels") + 1]) if "--levels" in args else 4)
        for args in argvs if args[0] == "verify"))


@pytest.mark.parametrize("expr, levels", _verify_argvs(), ids=str)
def test_every_checked_stage_tests_values(expr, levels):
    # each stage these runs check, and each subgroup between the factors of
    # its transversal, carries a value test or is a trivial stage, so no
    # library stage kind falls back to building an Element per test
    chain = chain_for(parse_expr(expr))
    stages = [stage for block in _blocks(chain, levels) for stage in block]
    stages += [k for stage in stages if stage.transversal for k in stage.transversal.intermediates]
    assert [stage.label for stage in stages
            if not isinstance(stage.membership, ValueTest)
            and stage.membership is not Element.is_identity] == []


_Z = make_integers()
_ZERO = SubgroupDescriptor(owner=_Z, membership=lambda e: e.value == 0, label="zero")


def _multiples(m, reps=None):
    return SubgroupDescriptor(
        owner=_Z, membership=lambda e: e.value % m == 0, label=f"multiples of {m}",
        transversal=None if reps is None else Transversal(_Z, reps),
    )


def _tail(*stages):
    return ChainSchema(group=_Z, kappa=ALEPH0, num_blocks=0, tail=stages)


# chain -> digests of verify_prefix(chain, 6, 48, 1) at the chain's kappa
# and at kappa 3; one chain for each way a run fails
LIBRARY_CASES = {
    "final stage not trivial": (finite_chain(make_cyclic(4), [{0, 2}]),
                                "6444e95130d64e95", "4ac71406f7b81dba"),
    "limit accepts everything": (
        replace(integers_chain(2, _Z),
                final_limit=SubgroupDescriptor(owner=_Z, membership=lambda e: True)),
        "dec7983f10b5e264", "e5e708fe1b35867e"),
    "descent violated": (_tail(_multiples(4), _multiples(2), _ZERO),
                         "696de8ca147c3120", "912aaff36caf821d"),
    "identity rejected": (
        _tail(SubgroupDescriptor(owner=_Z, membership=lambda e: e.value % 2 == 1), _ZERO),
        "b30dcbfb9c0b1058", "8647c42ea3b56be8"),
    "stage 0 not full": (
        ChainSchema(group=_Z, kappa=ALEPH0, num_blocks=1, final_limit=_ZERO,
                    block_rule=lambda b, n: _multiples(2 ** (n + 1))),
        "27de9273f254e100", "694401df987b439a"),
    "coset missed": (_tail(_multiples(4, (0, 1)), _ZERO), "da42d328917a2707", "9252858b545f960b"),
    "no transversal": (_tail(_multiples(4), _ZERO), "9033732f9eb91743", "bb0384978841674e"),
}


@pytest.mark.parametrize("name", list(LIBRARY_CASES))
def test_failing_certificate_matches_pinned_digest(name):
    chain, *pinned = LIBRARY_CASES[name]
    digests = []
    for kappa in (None, CardinalBound(3)):
        cert = verify_prefix(chain, 6, 48, 1, kappa=kappa)
        text = json.dumps(cert.to_jsonable(), sort_keys=True)
        digests.append(hashlib.sha256(text.encode()).hexdigest()[:16])
    assert digests == pinned


# group -> chain numbers: one of length 2 and two of length 3 each
TREE_CASES = {
    "S(4)": (15, 36, 87),
    "wreath(C(2),C(3))": (13, 40, 71),
    "prod(S(3),C(4))": (10, 29, 67),
    "prod(A(4),C(2))": (13, 40, 71),
}


@pytest.mark.parametrize(
    "name, number", [(name, n) for name, numbers in TREE_CASES.items() for n in numbers],
)
def test_tree_matches_pinned_digest(name, number):
    group = build_group(parse_expr(name))
    sets = chain_enumerate(group, 3)[number]
    chain = finite_chain(group, sets[1:])
    tr = truncate(coset_tree(chain), len(sets) - 1)
    report = json.dumps(verify_simple(chain, tr).to_jsonable(), sort_keys=True)
    data = (emit(tr, "json") + emit(tr, "dot") + report).encode()
    assert hashlib.sha256(data).hexdigest()[:16] == GOLDEN["tree"][f"{name}#{number}"]


# Oracle output above the benchmark's groups, pinned the same way with its
# exit status: lattices up to order 120 and 64, which the benchmark leaves
# out for their run time, and the core and min-kappa that read one of them;
# and the JSON of min-kappa and depth, which no other argv pins.
ORACLE_CASES = {
    ("oracle", "lattice", "S(5)", "--format", "json"): "be0be598fc63ee79",
    ("oracle", "lattice", "A(5)", "--format", "json"): "6fc72e82f7763aa2",
    ("oracle", "lattice", "wreath(C(2),C(4))", "--format", "json"): "3277163d65a26adb",
    ("oracle", "lattice", "power(C(2),5)", "--format", "json"): "d504dbde57663038",
    ("oracle", "lattice", "power(C(2),6)", "--format", "json"): "3fdc8cee39666618",
    ("oracle", "min-kappa", "S(5)"): "06e9d52c1720fca4",
    ("oracle", "core", "S(5)", "--max-index", "3"): "b283ed155cd54e32",
    ("oracle", "min-kappa", "S(4)", "--format", "json"): "e25ac74643f81b54",
    ("oracle", "depth", "S(4)", "--format", "json"): "8b9f31bcc9050514",
}


@pytest.mark.parametrize("args", list(ORACLE_CASES), ids=shlex.join)
def test_oracle_output_matches_pinned_digest(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(args))
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest()[:16] == ORACLE_CASES[args]


# group -> digest of its minimax chain, each subgroup's elements in table
# order; the groups are the oracle ops of the benchmark's finite workload
MINIMAX_CASES = {
    "S(4)": "0c576b3e1520c09d",
    "prod(A(4),C(2))": "bfe1316ff4ba4bfe",
    "prod(S(3),C(4))": "17bcb0554898b173",
    "wreath(C(2),C(3))": "07a1e509be6598b4",
    "power(C(2),4)": "a3f2e7eb182d5644",
    "A(5)": "8584c66409e466b1",
}


@pytest.mark.parametrize("name", list(MINIMAX_CASES))
def test_minimax_chain_matches_pinned_digest(name):
    group = build_group(parse_expr(name))
    index = group.cayley_table().index
    chain = [[group.value_to_jsonable(v) for v in sorted(s, key=index.__getitem__)]
             for s in minimax_chain(group)]
    assert hashlib.sha256(json.dumps(chain).encode()).hexdigest()[:16] == MINIMAX_CASES[name]
