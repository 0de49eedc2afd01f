"""The benchmark's full traced run, in a fresh interpreter.

``bench/test_bench.py`` runs each workload's traced prefix on a fresh
workload object.  ``bench/run.py --trace 1`` runs the untraced prefix
first, on the same object, so a cache that run fills can skip a required
call edge there and nowhere else.  This runs the whole script.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_benchmark_run_keeps_every_required_edge():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--trace", "1", "--seed", "0"],
        capture_output=True, text=True, cwd=ROOT,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
