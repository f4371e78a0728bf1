"""The benchmark harness still runs against this checkout.

``bench/run.py --smoke`` runs a few ops of every workload, traced and
untraced, checks their answers and pinned digests, and checks the traced
names and metric units; it writes spans only to the git-ignored
``bench/traces/``.  Every name the tracer wraps resolves in the package,
so a refactor that moves a traced function out of sight of the tracer
fails here instead of reporting its metrics as untraced.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_smoke_passes():
    result = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "smoke: ok"


def test_tracer_resolves_every_traced_name():
    spec = importlib.util.spec_from_file_location("tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    try:
        missing = t.install()
    finally:
        t.uninstall()
    # oracle.mulclose names a function the oracle no longer imports; the
    # tracer's next revision drops it
    assert missing == ["oracle.mulclose"]
