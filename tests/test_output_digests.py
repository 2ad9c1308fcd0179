"""The CLI's output bytes equal the digests the benchmark checks its rounds
against (``perfbench/digests.json``, read only): one call of each command a
benchmark workload makes, so a change of output fails here and not only in
the benchmark's gate.  ``project`` documents, which no workload writes, are
pinned here: the identity image onto K6, and two proper targets with
merged fibers.  About 2 s on a 2-core host."""

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

# K6 less the edge 2-3
K6_MINUS_E23 = "2-4,2-5,2-6,2-7,3-4,3-5,3-6,3-7,4-5,4-6,4-7,5-6,5-7,6-7"

PROJECT_DIGESTS = {
    "complete:6": "3e73e89f40f5d3c16f29f450ad73e8783f0e632e1fee5477e69456ced359e100",
    "k2-2": "9275901c9b73814bcc2584aba97de30f232edfd78b63fcc4b7c5cd233032efa2",
    K6_MINUS_E23: "191c86c7cad53a0fb9481c6ec06b5c324d9564e2f652e62cb4b30acea824744a",
}


def digest_of(argv, tmp_path) -> str:
    out = tmp_path / "out"
    assert main(argv + ["-o", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("key", sorted(CALLS))
def test_output_matches_benchmark_digest(key, tmp_path):
    expected = json.loads(DIGESTS.read_text())[key]
    assert digest_of(CALLS[key], tmp_path) == expected


@pytest.mark.parametrize("graph", sorted(PROJECT_DIGESTS))
def test_project_output_matches_its_digest(graph, tmp_path):
    argv = ["project", "--graph", graph, "--format", "json"]
    assert digest_of(argv, tmp_path) == PROJECT_DIGESTS[graph]
