"""The benchmark's workloads: seeded op lists and reference answers.

Each workload is a closed loop with one caller: the next op starts only
after the previous one returns.  Ops come in rounds; every round holds the
same fixed multiset of op kinds (its "deck"), shuffled by the workload
seed, so every run measures the same mix whatever the seed.  The seed also
draws each CLI op's ``--seed`` from a pool of ``SEED_POOL`` values without
replacement, so no argv repeats within a run and every argv the benchmark
can produce has a pinned output digest in ``golden.json``.

``infinite-cli``
    CLI calls over the infinite constructions, about 80% ``verify --format
    json``, 10% ``tree`` and 10% ``depth``.  ``chains`` (stage
    materialization, membership, O(k^2) transversal certification, limit
    coherence) and ``groups`` (finite-support, wreath and dihedral multiply;
    ``tag``) dominate; ``oracle`` and ``trees`` do almost nothing.
``finite``
    Two kinds of op over finite groups, in one stream.  CLI ``oracle
    lattice|core|min-kappa|depth`` over named groups of order 16 to 60: the
    join closure in ``oracle`` and permutation and product multiplication
    in ``groups`` dominate them.  ``core`` builds the lattice twice and
    ``min-kappa`` adds the chain search, so memoizing the lattice and a
    faster search show apart.  And one library round trip per enumerated
    chain of length <= 3 over four groups of order 24: ``finite_chain``,
    ``truncate``, ``emit`` (json and dot), ``parse_truncation``,
    ``thread_of``, ``stabilizer_chain`` and an exhaustive
    ``verify_simple``; ``trees`` and ``groups`` dominate them, and
    transversals are used by index.  Chain enumeration is input generation
    and counts toward set-up time.  Of a round's 66 ops, 40 are round trips
    (0.1-0.2 s each) and 26 are oracle calls that take three quarters of
    the round's time, so ``trees`` moves ``op_p50_ms``, while ``oracle``
    moves ``ops_per_s`` and ``op_p90_ms`` (which falls inside the (C2)^4
    ops; the two A(5) ops are the slowest 3%).  ``chains`` does nothing
    beyond building the finite chains.  A round takes 3 chains of length 2
    and 7 of length 3 from each group; no chain is used twice, so a run
    ends after seven rounds at most.

The round trips and the oracle calls share one workload so that, with a
fixed time for all runs of all workloads, each run can be long: on a
shared 2-core x86-64 virtual machine the speed of the same Python loop
drifts by a fifth over tens of seconds, and only long runs average it out.  ``chains`` work is measured on ``infinite-cli`` and the
``oracle`` and ``trees`` work on ``finite``; each is almost absent from
the other workload.

Sizes left out, because one op would take a whole run or more (single CLI
runs on a 2-core x86-64 virtual machine with Python 3.11): ``verify
"tower(Z,3)" --levels 1 --probes 8`` and ``verify "tower(Dinf,3)" --levels 5`` (killed
after 300 s), ``verify "wreath(wreath(C(2),Z),Z)" --levels 2 --probes 8``
(killed after 120 s), ``verify "tower(Dinf,3)" --levels 2`` and ``verify
"tower(Z,3)" --levels 4`` (each killed after 75 s), and ``oracle lattice``
on ``S(5)`` (33-39 s), ``wreath(C(2),C(4))`` (30-35 s) and ``power(C(2),5)``
(115-130 s).  They can join once lazy transversals and the Cayley-table
oracle land.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
import shlex
from dataclasses import dataclass
from typing import Callable, Optional

SEED_POOL = 128  # --seed values a CLI template can take; golden.json pins each
# Chains of each length that one round of the finite workload takes per group;
# about the share of lengths 2 and 3 among each group's chains.
TREE_PER_ROUND = {2: 3, 3: 7}


@dataclass(frozen=True)
class Template:
    """A CLI op without its --seed; ``seeded`` when the output depends on it."""

    args: tuple[str, ...]
    copies: int  # occurrences in one round
    seeded: bool = False

    @property
    def key(self) -> str:
        return shlex.join(self.args)


def _verify(expr: str, copies: int, *flags: str) -> Template:
    return Template(("verify", expr, "--format", "json", *flags), copies, seeded=True)


# One round of infinite-cli: 119 ops, about 11 s, of which the single
# --levels 8 op takes a quarter.  The other ops come three times as often so
# that this one op, of which a run holds only about five, does not carry
# half of ops_per_s.
INFINITE_CLI = (
    _verify("Z", 9),
    _verify("Dinf", 9),
    _verify("wreath(C(2),Z)", 9),
    _verify("wreath(C(2),Z)", 3, "--probes", "160"),
    _verify("wreath(S(3),Z)", 9),
    _verify("wreath(C(2),Dinf)", 9),
    _verify("prod(Z,Dinf)", 9),
    _verify("power(C(2),N)", 6),
    _verify("tower(Z,2)", 9),
    _verify("tower(Dinf,2)", 6, "--levels", "5"),
    _verify("tower(Dinf,2)", 3, "--levels", "6"),
    _verify("tower(Dinf,2)", 1, "--levels", "7"),
    _verify("tower(Dinf,2)", 1, "--levels", "8"),
    _verify("tower(Z,3)", 9, "--levels", "3", "--probes", "16", "--limit-budget", "6"),
    _verify("wreath(wreath(C(2),Z),Z)", 3, "--levels", "3", "--probes", "32",
            "--limit-budget", "8"),
    Template(("tree", "tower(Dinf,2)", "--block", "1"), 6),
    Template(("tree", "wreath(C(2),Z)", "--levels", "12", "--format", "dot"), 6),
    Template(("depth", "tower(Dinf,3)"), 3),
    Template(("depth", "tower(Dinf,4)"), 3),
    Template(("depth", "tower(Dinf,5)"), 3),
    Template(("depth", "tower(Dinf,6)"), 3),
)

# The oracle ops of one round of the finite workload, beside its 40 tree
# round trips.  The 8 (C2)^4 ops (about 1.1 s each, six times a round trip)
# are 12% of the round's 66 ops and slower than every order-24 op, so
# op_p90_ms falls inside them rather than on a boundary between two kinds of
# op; the two A(5) ops (about 2.2 s each) are the slowest 3%.
_EACH = {"lattice": 1, "core": 1, "min-kappa": 1, "depth": 1}
_ORACLE_DECK = {
    "S(4)": _EACH,
    "prod(A(4),C(2))": _EACH,
    "prod(S(3),C(4))": _EACH,
    "wreath(C(2),C(3))": _EACH,
    "power(C(2),4)": {"lattice": 4, "depth": 4},
    "A(5)": {"lattice": 1, "min-kappa": 1},
}
ORACLE_FINITE = tuple(
    Template(("oracle", sub, expr), copies)
    for expr, mix in _ORACLE_DECK.items()
    for sub, copies in mix.items()
)

TREE_GROUPS = ("S(4)", "wreath(C(2),C(3))", "prod(S(3),C(4))", "prod(A(4),C(2))")

# --- reference answers, known independently of the code -----------------------

# Chain length q of w*q: each omega block comes from one infinite factor (the
# 2-adic chains of Z and Dinf, or the omega-padded power chain of a kernel).
VERIFY_BLOCKS = {
    "Z": 1, "Dinf": 1, "power(C(2),N)": 1,
    "wreath(C(2),Z)": 2, "wreath(S(3),Z)": 2, "wreath(C(2),Dinf)": 2,
    "prod(Z,Dinf)": 2, "tower(Z,2)": 2, "tower(Dinf,2)": 2,
    "tower(Z,3)": 3, "wreath(wreath(C(2),Z),Z)": 3,
}
GROUP_ORDER = {"S(4)": 24, "A(5)": 60, "prod(A(4),C(2))": 24, "prod(S(3),C(4))": 24,
               "wreath(C(2),C(3))": 24, "power(C(2),4)": 16}
SUBGROUP_COUNT = {"S(4)": 30, "A(5)": 59, "power(C(2),4)": 67}
# A solvable group has a chain with prime steps and any chain has a step the
# largest prime divides, so min-kappa is that prime plus one; A(5) > A(4) >
# V4 > C2 > 1 has steps 5, 3, 2, 2 and no subgroup of index 2, 3 or 4.
MIN_KAPPA = {"S(4)": 4, "A(5)": 6, "prod(A(4),C(2))": 4, "prod(S(3),C(4))": 4,
             "wreath(C(2),C(3))": 4}


def _omega_times(q: int) -> dict:
    """The certificate JSON of the ordinal w*q."""
    one = {"terms": [{"coeff": 1, "exp": {"terms": []}}]}
    return {"terms": [{"coeff": q, "exp": one}]}


def _check_verify(args, text) -> Optional[str]:
    cert = json.loads(text)
    if cert["verdict"] != "pass":
        return f"verdict {cert['verdict']}"
    q = VERIFY_BLOCKS[args[1]]
    return None if cert["length"] == _omega_times(q) else f"length is not w*{q}"


def _check_depth(args, text) -> Optional[str]:
    n = int(re.fullmatch(r"tower\(Dinf,(\d+)\)", args[1]).group(1))
    lines = text.splitlines()
    if lines[0] != f"[w, w*{n}]":
        return f"interval {lines[0]!r}"
    if not lines[1].startswith(f"paper_claimed: w*{n} "):
        return f"claim {lines[1]!r}"
    return None


def _check_tree(args, text) -> Optional[str]:
    if "--format" in args:  # dot over the 2-adic chain of Z: 2^k vertices at level k
        levels = int(args[args.index("--levels") + 1])
        nodes = sum(1 for line in text.splitlines() if "[label=" in line)
        edges = sum(1 for line in text.splitlines() if "->" in line)
        if (nodes, edges) != (2 ** (levels + 1) - 1, 2 ** (levels + 1) - 2):
            return f"{nodes} vertices and {edges} edges"
        return None
    sizes = json.loads(re.search(r"^levels: (.*)$", text, re.M).group(1))
    fibres = json.loads(re.search(r"^fibres: (.*)$", text, re.M).group(1))
    if len(fibres) != 4 or any(f < 2 for f in fibres):
        return f"fibres {fibres}"
    if sizes != [math.prod(fibres[:k]) for k in range(len(fibres) + 1)]:
        return f"level sizes {sizes} do not multiply out the fibres {fibres}"
    return None


def _check_oracle(args, text) -> Optional[str]:
    sub, expr = args[1], args[2]
    order = GROUP_ORDER[expr]
    if sub == "lattice":
        lattice = json.loads(text)
        orders = [s["order"] for s in lattice["subgroups"]]
        if lattice["order"] != order or orders[0] != 1 or orders[-1] != order:
            return f"lattice ends {orders[0]}..{orders[-1]} for order {lattice['order']}"
        if any(order % k for k in orders):
            return "a subgroup order does not divide the group order"
        want = SUBGROUP_COUNT.get(expr)
        if want is not None and lattice["count"] != want:
            return f"{lattice['count']} subgroups, expected {want}"
        return None
    if sub == "core":  # only index 1 is below the default --max-index 2
        core = json.loads(text)
        if core["core_order"] != order or core["is_trivial"]:
            return f"core of order {core['core_order']}"
        return None
    if sub == "min-kappa":
        got = int(text)
        return None if got == MIN_KAPPA[expr] else f"min-kappa {got}"
    return None if text == "1\n" else f"depth {text.strip()!r}"


CHECKS = {"verify": _check_verify, "depth": _check_depth, "tree": _check_tree,
          "oracle": _check_oracle}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def pinned_digest(golden: dict, path: tuple) -> Optional[str]:
    """The digest golden.json pins for an op, or None."""
    kind, key, *seed = path
    entry = golden[kind].get(key)
    if entry is None or not seed:
        return entry
    return entry[seed[0]] if seed[0] < len(entry) else None


def outcome_error(op: "Op", code: int, output: bytes, diagnostics: str) -> Optional[str]:
    """Why a returned op counts as failed, or None when its answer is right."""
    if code != 0:
        return f"exit code {code}: {diagnostics.strip()[-200:]}"
    if "Traceback" in diagnostics:
        return "traceback on stderr"
    try:
        return op.check(output)
    except (ValueError, KeyError, IndexError, AttributeError, TypeError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"


# --- ops -------------------------------------------------------------------------


@dataclass
class Op:
    """One closed-loop call.  ``call`` returns (exit code, output, diagnostics)."""

    label: str
    kind: str  # ops of one kind do the same work, up to the seeds they draw
    call: Callable[[], tuple[int, bytes, str]]
    check: Callable[[bytes], Optional[str]]
    golden: tuple  # path into golden.json


def cli_op(cli, template: Template, seed: int) -> Op:
    argv = [*template.args, "--seed", str(seed)]

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue().encode(), err.getvalue()

    def check(output: bytes):
        return CHECKS[template.args[0]](template.args, output.decode())

    golden = ("cli", template.key, seed) if template.seeded else ("cli", template.key)
    return Op(shlex.join(argv), template.key, call, check, golden)


def tree_op(residua, group, name: str, number: int, sets: list) -> Op:
    """The round trip over chain ``number`` of ``chain_enumerate(group, 3)``."""
    state = {}

    def call():
        chain = residua.finite_chain(group, sets[1:])
        depth = len(sets) - 1
        tr = residua.truncate(residua.coset_tree(chain), depth)
        as_json, as_dot = residua.emit(tr, "json"), residua.emit(tr, "dot")
        parsed = residua.parse_truncation(as_json)
        thread = tr.thread_of(group.identity())
        recovered = residua.stabilizer_chain(tr, thread)
        report = residua.verify_simple(chain, tr)
        state["result"] = tr, parsed, recovered, report
        report_text = json.dumps(report.to_jsonable(), sort_keys=True)
        return 0, (as_json + as_dot + report_text).encode(), ""

    def check(_output: bytes):
        tr, parsed, recovered, report = state.pop("result")
        steps = [len(sets[i]) // len(sets[i + 1]) for i in range(len(sets) - 1)]
        if list(tr.fibres) != steps or math.prod(steps) != group.order:
            return f"fibres {list(tr.fibres)}, step indices {steps}"
        if (parsed.levels, parsed.fibres) != (tr.levels, tr.fibres):
            return "parsed truncation differs from the emitted one"
        for k, expected in enumerate(sets):
            stage = residua.chain_at(recovered, k)
            if {e.value for e in group.elements() if stage.contains(e)} != set(expected):
                return f"identity-thread stabilizer {k} differs from the chain"
        return None if report.verdict == "simple" else f"verify_simple says {report.verdict}"

    return Op(f"tree-correspondence {name} #{number}", f"tree-correspondence {name} "
              f"length {len(sets) - 1}", call, check, ("tree", f"{name}#{number}"))


# --- workloads --------------------------------------------------------------------


def _cli_rounds(templates, rng: random.Random, cli) -> list[list[Op]]:
    """Every round the seed pool allows, each a shuffled copy of the deck."""
    pools = {}
    for t in templates:
        pools[t.key] = list(range(SEED_POOL))
        rng.shuffle(pools[t.key])
    deck = [t for t in templates for _ in range(t.copies)]
    rounds = []
    for _ in range(SEED_POOL // max(t.copies for t in templates)):
        rng.shuffle(deck)
        rounds.append([cli_op(cli, t, pools[t.key].pop()) for t in deck])
    return rounds


def tree_inputs(residua) -> dict:
    """Each tree group with its chains, in ``chain_enumerate`` order."""
    out = {}
    for name in TREE_GROUPS:
        group = residua.build_group(residua.parse_expr(name))
        out[name] = (group, residua.chain_enumerate(group, 3))
    return out


def _tree_rounds(rng: random.Random, residua) -> list[list[Op]]:
    """Rounds with the same number of chains of each length from every group,
    none used twice, in an order the seed draws.  Round r takes every n-th
    chain of each group and length from the r-th on (n rounds in all), so
    each round spreads over the whole enumeration and the rounds cost about
    the same whichever a run reaches."""
    pools = []  # (group, name, chains, indices of one length, chains per round)
    for name, (group, chains) in tree_inputs(residua).items():
        for length, per_round in TREE_PER_ROUND.items():
            picked = [i for i, sets in enumerate(chains) if len(sets) - 1 == length]
            pools.append((group, name, chains, picked, per_round))
    n = min(len(picked) // k for *_, picked, k in pools)
    rounds = [[tree_op(residua, group, name, i, chains[i])
               for group, name, chains, picked, k in pools for i in picked[r::n][:k]]
              for r in range(n)]
    rng.shuffle(rounds)
    return rounds


WORKLOADS = ("infinite-cli", "finite")


def make_rounds(workload: str, seed: int) -> list[list[Op]]:
    """Import the package and generate every round of a workload's inputs."""
    import residua
    import residua.cli

    rng = random.Random(seed)
    if workload == "infinite-cli":
        return _cli_rounds(INFINITE_CLI, rng, residua.cli)
    if workload == "finite":
        rounds = [oracle + trees for oracle, trees in
                  zip(_cli_rounds(ORACLE_FINITE, rng, residua.cli), _tree_rounds(rng, residua))]
        for ops in rounds:
            rng.shuffle(ops)
        return rounds
    raise ValueError(f"unknown workload {workload!r}")
