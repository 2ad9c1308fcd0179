"""The CLI's output bytes equal the digests the benchmark checks its rounds
against (``perfbench/digests.json``, read only): one call of each command a
benchmark workload makes, so a change of output fails here and not only in
the benchmark's gate.  About 1.5 s on a 2-core host."""

import hashlib
import json
from pathlib import Path

import pytest

from tropfan.cli import main

DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / "digests.json"

CALLS = {
    "fan complete:6": ["fan", "--graph", "complete:6", "--format", "json"],
    "verify theorem 5": ["verify", "theorem", "--max-vertices", "5"],
    "moduli 7 complete": ["moduli", "--n", "7", "--graph", "complete", "--format", "json"],
}


@pytest.mark.parametrize("key", sorted(CALLS))
def test_output_matches_benchmark_digest(key, tmp_path):
    out = tmp_path / "out"
    assert main(CALLS[key] + ["-o", str(out)]) == 0
    expected = json.loads(DIGESTS.read_text())[key]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected
