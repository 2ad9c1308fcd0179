"""Record the digest table, or the baseline of record for the benchmark.

    python3 perfbench/baseline.py digests
        Run every CLI call a workload can make and write perfbench/digests.json
        (sha256 of each output).  Do this only on a commit whose outputs are
        known to be right: the gate compares later outputs with these bytes.
    python3 perfbench/baseline.py runs
        Run every workload of BENCHMARK.json at its run_seconds once per seed
        (SEEDS seeds) untraced and once traced, and add the set to the list
        ``sets`` in perfbench/baseline/<commit>.json: every run, the median,
        quartiles and spread (quartile distance over median) of each metric,
        the Python version, nproc and the probe readings.  From the second
        set on, print how each end-to-end median moved against the first set
        and each spread, both as a share of the metric's bound.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = 10


def record_digests() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import tropfan.cli
    import workloads

    digests = {}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        out = Path(tmp) / "out"
        for key, argv in workloads.cli_invocations().items():
            if tropfan.cli.main(argv + ["-o", str(out)]) != 0:
                raise SystemExit(f"{key}: nonzero exit")
            digests[key] = hashlib.sha256(out.read_bytes()).hexdigest()
            print(key, digests[key], flush=True)
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1) + "\n")


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return {"detail": json.loads(lines[-2]), "result": json.loads(lines[-1]),
            "rounds": [json.loads(line) for line in lines[:-2]]}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def record_runs() -> None:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip() or "unknown"
    out = HERE / "baseline" / f"{commit[:12]}.json"
    doc = json.loads(out.read_text()) if out.is_file() else {"commit": commit, "sets": []}
    seconds = DECLARED["run_seconds"]
    record = {"python": sys.version.split()[0], "nproc": os.cpu_count(), "seconds": seconds,
              "workloads": {}}
    for name in [w["name"] for w in DECLARED["workloads"]]:
        runs = []
        for seed in range(1, SEEDS + 1):
            runs.append(bench(name, seed, seconds, 0))
            print(name, seed, json.dumps(runs[-1]["result"]["metrics"]), flush=True)
        metrics = {m: summary([r["result"]["metrics"][m]["value"] for r in runs])
                   for m in runs[0]["result"]["metrics"]}
        traced = bench(name, 1, seconds, 1)
        print(name, "traced", json.dumps(traced["result"]["metrics"]), flush=True)
        record["workloads"][name] = {
            "end_to_end": metrics,
            "wall_s": {key: summary([r["detail"][key] for r in runs])
                       for key in ("verdict_wall_s", "cpu_wall_s", "setup_wall_s")},
            "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
            "correct": all(r["result"]["correct"] for r in runs + [traced]),
            "probe_s": [p for r in runs for p in r["detail"]["probe_s"]],
            "runs": [{"seed": s + 1, **r["result"], "rounds": r["rounds"]} for s, r in enumerate(runs)],
        }
    doc["sets"].append(record)
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print("wrote", out.relative_to(ROOT))
    if len(doc["sets"]) > 1:
        compare(doc["sets"][0], record)


def compare(first: dict, last: dict) -> None:
    """Each end-to-end metric's median move from the first set and its
    spread in the last, as shares of its bound; both must stay below 1."""
    for name, now in last["workloads"].items():
        for m in DECLARED["end_to_end"]:
            was, cur = first["workloads"][name]["end_to_end"][m["name"]], now["end_to_end"][m["name"]]
            worse = (cur["median"] - was["median"]) / was["median"]
            if m["better"] == "higher":
                worse = -worse
            print(f"{name:13} {m['name']:14} median move {worse / m['bound']:+.2f} bound, "
                  f"spread {cur['spread'] / m['bound']:.2f} bound")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="what", required=True)
    sub.add_parser("digests")
    sub.add_parser("runs")
    args = parser.parse_args()
    if args.what == "digests":
        record_digests()
    else:
        record_runs()


if __name__ == "__main__":
    main()
