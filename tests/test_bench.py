"""The benchmark harness still runs against this checkout.

``bench/run.py --smoke`` runs a few ops of every workload, traced and
untraced, checks their answers and pinned digests, and checks the traced
names and metric units; it writes spans only to the git-ignored
``bench/traces/``.
"""

import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_smoke_passes():
    result = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "smoke: ok"
