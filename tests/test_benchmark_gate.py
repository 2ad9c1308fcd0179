"""The benchmark's own tests (``perfbench/test_gate.py``) run against the
library in ``src/``, so a library change that breaks the benchmark's
correctness gate or its tracer fails here too.  About 0.5 s."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_gate_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "test_gate.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
