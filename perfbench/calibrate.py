"""Check that the rescaled times grow in proportion to the work done.

    python3 perfbench/calibrate.py

Times the sampled graphs of trichotomy-6 (seed 1, without the theorem call)
once over (A) and twice over (B), each round a fresh child as in run.py, in
the order A B B A A B ... for PAIRS pairs, so that a slow spell of the host
falls on both variants alike.  The work ratio is exactly 2: every call builds
a new Graph, so nothing that verify_injectivity computes is reused.  Writes
perfbench/baseline/<commit>-calibration.json with every round and the median
and quartiles of the per-pair ratio B/A of verdict_s, verdict_wall_s and
cpu_s.  The rescaling is sound for such a change when the verdict_s ratio is
2 within the quartiles of the ratios.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import run
import workloads

PAIRS = 10
KEYS = ("verdict_s", "verdict_wall_s", "cpu_s")


def timed_round(work: Path, graphs: list, repeat: int) -> dict:
    (work / "inputs.json").write_text(json.dumps({"graphs": graphs * repeat, "theorem": False}))
    r = run.run_child("trichotomy-6", work, False, time.perf_counter() + run.RUN_LIMIT_S)
    if "result" not in r:
        raise SystemExit(f"round crashed (exit {r['exit']}): {r['stderr']}")
    truths = [workloads.multipartite(workloads.LABELS, g) for g in graphs * repeat]
    if r.pop("result")["graphs"] != [[t, t, t] for t in truths]:
        raise SystemExit("a verdict differs from the multipartite test")
    return {"repeat": repeat, **{k: r[k] for k in KEYS}}


def main() -> None:
    graphs = workloads.make_inputs("trichotomy-6", 1)["graphs"]
    rounds = []
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-") as tmp:
        for pair in range(PAIRS):
            order = (1, 2) if pair % 2 == 0 else (2, 1)
            for repeat in order:
                rounds.append(timed_round(Path(tmp), graphs, repeat))
                print(json.dumps(rounds[-1]), flush=True)
    ratios = {}
    for key in KEYS:
        singles = [r[key] for r in rounds if r["repeat"] == 1]
        doubles = [r[key] for r in rounds if r["repeat"] == 2]
        values = [b / a for a, b in zip(singles, doubles)]
        q1, median, q3 = statistics.quantiles(values, n=4)
        ratios[key] = {"median": median, "q1": q1, "q3": q3}
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True,
                            text=True).stdout.strip() or "unknown"
    doc = {"commit": commit, "python": sys.version.split()[0], "graphs": len(graphs),
           "work_ratio": 2, "ratio_b_over_a": ratios, "rounds": rounds}
    out = Path(__file__).resolve().parent / "baseline" / f"{commit[:12]}-calibration.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(ratios))
    print("wrote", out.relative_to(run.ROOT))


if __name__ == "__main__":
    main()
