"""Benchmark for residua: one workload, one seed, one run.

    python3 bench/run.py --workload infinite-cli --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --smoke

Workloads and their reference answers are described in ``workloads.py``.
The package is imported from ``src/`` of the checkout that holds this file,
never from an installed copy; without it the run fails before printing a
result.

With ``--trace 0`` a few ops of the last round, which a run never
reaches, run untimed as a warm-up; then ops run round by round until
``--seconds`` of op time have passed and at least ``MIN_OPS`` ops are done,
and the last line of stdout is a JSON object with the end-to-end metrics.
The op latencies are over all ops.  Ops per second (per second of op time)
is that of one round's mix with each kind of op taking its mean time in the
run, so a run that stops inside a round still weighs every kind of op as a
round does.
Set-up time (importing ``residua`` plus generating the inputs) is the
median of this process's set-up and ``SETUP_SAMPLES - 1`` fresh
``--setup-only`` processes, run one after each of the first rounds so that
they meet the same machine as the ops; their time does not count toward
``--seconds``.  Peak RSS is this process's, which runs only the one
workload.

With ``--trace 1`` the first round runs under the per-layer tracer of
``tracer.py`` (set-up is traced too), then the second round runs untraced;
the JSON line carries the per-layer metrics and the tracing overhead, the
ratio of untraced to traced ops per second.  Spans are written to
``bench/traces/``.  Counts depend only on the seed.

``--smoke`` runs a few ops of every workload, traced and untraced, checks
their answers, and checks that the metric names and units printed match
``BENCHMARK.json``.

Every op is checked against a reference answer and against the output
digest pinned in ``golden.json``.  An exception, a traceback, a wrong exit
code, a wrong answer or a hit per-op time limit counts as one failed op.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from tracer import PER_LAYER, Tracer
from workloads import WORKLOADS, digest, make_rounds, outcome_error, pinned_digest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden.json"

MIN_OPS = 100  # so that at least ten ops lie beyond op_p90_ms
WARMUP_OPS = 3
OP_LIMIT_S = 30
LOOP_LIMIT_S = 110  # stop mid-round past this, so a run ends within 180 s
SETUP_SAMPLES = 5
SMOKE_OPS = 3

END_TO_END = (
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("success_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


class OpTimeout(BaseException):
    """The per-op time limit was hit (a BaseException, so no handler in the
    package can swallow it)."""


def _on_alarm(signum, frame):
    raise OpTimeout


def load_package():
    """Import ``residua`` from this checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / "residua" / "__init__.py").is_file():
        raise SystemExit(f"bench: no residua package under {src}")
    sys.path.insert(0, str(src))
    import residua

    if Path(residua.__file__).resolve().parent != (src / "residua").resolve():
        raise SystemExit(f"bench: imported residua from {residua.__file__}, not {src}")


def set_up(workload: str, seed: int, tracer=None):
    """Import the package and generate the inputs; returns (rounds, seconds)."""
    start = perf_counter()
    load_package()
    if tracer is not None:
        missing = tracer.install()
        if missing:
            print(f"bench: not traced, names not found: {', '.join(missing)}", file=sys.stderr)
        tracer.begin_op(0)
    rounds = make_rounds(workload, seed)
    return rounds, perf_counter() - start


def run_op(op, golden: dict, tracer=None):
    """Call one op under the time limit; returns (seconds, error, output bytes).

    The answer is checked with ``tracer`` (if any) taken out, so checking
    adds nothing to the per-layer figures."""
    signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
    start = perf_counter()
    try:
        try:
            code, output, diagnostics = op.call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        return perf_counter() - start, f"hit the {OP_LIMIT_S} s time limit", 0
    except (Exception, SystemExit) as exc:
        return perf_counter() - start, f"raised {type(exc).__name__}: {exc}", 0
    took = perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    try:
        error = outcome_error(op, code, output, diagnostics)
    finally:
        if tracer is not None:
            tracer.install()
    if error is None:
        pinned = pinned_digest(golden, op.golden)
        if pinned is None:
            error = "no pinned output digest"
        elif pinned != digest(output):
            error = "output differs from the pinned digest"
    return took, error, len(output)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            max_ops: int | None = None, setup_samples: int = SETUP_SAMPLES) -> dict:
    golden = json.loads(GOLDEN.read_text())
    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = Tracer() if trace else None
    rounds, setup = set_up(workload, seed, tracer)
    setups = [setup]
    if not trace and max_ops is None:
        for op in rounds[-1][:WARMUP_OPS]:
            run_op(op, golden)
    # the traced run times round 0 traced and round 1 untraced; smoke runs
    # take the first max_ops ops of those rounds
    n_rounds = 2 if trace else 1 if max_ops is not None else len(rounds)
    schedule = [(r, op) for r in range(n_rounds) for op in rounds[r][:max_ops]]
    per_round: list[list[tuple[str, float]]] = [[] for _ in range(n_rounds)]
    failures: list[tuple[str, str]] = []
    cli_bytes = 0
    unmeasured = 0.0  # seconds spent on fresh set-ups between rounds
    loop_start = perf_counter()
    try:
        for i, (r, op) in enumerate(schedule):
            if i and r != schedule[i - 1][0]:  # a new round starts
                if trace:
                    tracer.uninstall()
                elif len(setups) < setup_samples:
                    start = perf_counter()
                    setups.append(setup_in_fresh_process(workload, seed))
                    unmeasured += perf_counter() - start
            active = tracer if trace and r == 0 else None
            if active is not None:
                active.begin_op(i + 1)
            gc.collect()
            took, error, size = run_op(op, golden, active)
            per_round[r].append((op.kind, took))
            if error is not None:
                failures.append((op.label, error))
            if active is not None and op.golden[0] == "cli":
                cli_bytes += size
            measured = perf_counter() - loop_start - unmeasured
            if measured > LOOP_LIMIT_S or (not trace and measured >= seconds
                                           and i + 1 >= MIN_OPS):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()

    for label, error in failures[:10]:
        print(f"bench: FAILED {label}: {error}", file=sys.stderr)
    samples = [sample for ops in per_round for sample in ops]
    times = [took for _, took in samples]
    if trace:
        traced_rate = _rate(rounds[0], per_round[0])
        untraced_rate = _rate(rounds[0], per_round[1]) if per_round[1] else 0.0
        values = tracer.metrics(cli_bytes)
        values["trace.traced_ops_per_s"] = traced_rate
        values["trace.untraced_ops_per_s"] = untraced_rate
        values["trace.overhead"] = untraced_rate / traced_rate if traced_rate else 0.0
        units = PER_LAYER
        (BENCH / "traces").mkdir(exist_ok=True)
        tracer.write_spans(BENCH / "traces" / f"{workload}-seed{seed}.json")
    else:
        setups += [setup_in_fresh_process(workload, seed)
                   for _ in range(setup_samples - len(setups))]
        values = {
            "op_p50_ms": statistics.median(times) * 1000,
            "op_p90_ms": statistics.quantiles(times, n=10, method="inclusive")[8] * 1000,
            "ops_per_s": _rate(rounds[0], samples),
            "success_ratio": (len(times) - len(failures)) / len(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setups),
        }
        units = END_TO_END
    return {
        "correct": not failures,
        "attempted": len(times),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }


def _rate(deck: list, samples: list[tuple[str, float]]) -> float:
    """Ops per second of op time for the mix of ``deck`` (one round), each
    kind of op taking its mean time among ``samples`` (kind, seconds).
    Kinds without a sample are left out of the mix."""
    by_kind = defaultdict(list)
    for kind, took in samples:
        by_kind[kind].append(took)
    mean = {kind: statistics.fmean(times) for kind, times in by_kind.items()}
    mix = [mean[op.kind] for op in deck if op.kind in mean]
    return len(mix) / sum(mix)


def setup_in_fresh_process(workload: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.split()[-1])


def print_result(workload: str, result: dict):
    attempted, failed = result["attempted"], result["failed"]
    print(f"{workload}: {attempted} ops, {failed} failed (fail_ratio {failed / attempted:.4f})")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")


def smoke() -> int:
    """A few ops per workload: answers right, metric names as declared."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            result = measure(workload, 0, 0, trace, max_ops=SMOKE_OPS, setup_samples=2)
            print_result(f"{workload} (trace {int(trace)})", result)
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != declared[trace]:
                problems.append(f"{workload}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(printed.items()) ^ set(declared[trace].items()))}")
            if result["failed"]:
                problems.append(f"{workload}: {result['failed']} ops failed")
    for problem in problems:
        print(f"bench: smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="quick self-check, no result line")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        print(set_up(args.workload, args.seed)[1])
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
