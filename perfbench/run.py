"""tropfan's benchmark: time to a verified verdict, end to end and per layer.

    python3 perfbench/run.py --workload fan-k6 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; tropfan is imported from ./src.  Each
round is a fresh single-threaded interpreter (perfbench/child.py), started
one at a time, because tropfan keeps process-wide caches that a CLI user
refills on every invocation.  Rounds repeat while another one still fits in
--seconds (at least one runs).  With --trace 1, untraced and traced rounds
alternate (at least one of each) and the per-layer figures of the traced ones
are reported.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
round, including the host-speed probe readings taken in each child, and the
medians of the plain wall-clock times.  A run with a failed verdict prints
its result and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().with_name("child.py")
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170  # every run ends well within the 180 s a run may take


def run_child(workload: str, work: Path, trace: bool, deadline: float) -> dict:
    """Run child.py once and reap it with os.wait4, which keeps its rusage."""
    for stale in work.glob("*"):
        if stale.name != "inputs.json":
            stale.unlink()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with (work / "stderr.txt").open("wb") as err:
        spawned = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(ROOT), workload, str(work), str(int(trace)), repr(spawned)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err,
        )
    killed = False
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline and not killed:
                proc.kill()
                killed = True
            time.sleep(0.01)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if killed else proc.returncode
    err = (work / "stderr.txt").read_text(errors="replace")
    record_path = work / "record.json"
    round_ = {
        "exit": code,
        "cpu_wall_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "stderr": err[-2000:],
    }
    if code == 0 and record_path.is_file():
        round_.update(json.loads(record_path.read_text()))
    if "verdict_s" in round_:
        # CPU time tracks wall time on a host whose speed drifts, so it and
        # the traced self times are rescaled by the round's measured speed too
        speed = round_["verdict_s"] / round_["verdict_wall_s"]
        round_["cpu_s"] = round_["cpu_wall_s"] * speed
        for key, value in round_.get("trace", {}).items():
            if key.endswith("_s"):
                round_["trace"][key] = value * speed
    return round_


def verified_frac(failed_per_round: list[int], expected: int) -> float:
    """1 - the failed share of the worst round.  A round holds a fixed number
    of verdicts however fast the program is, so one wrong verdict always
    costs at least 1/expected."""
    return 1 - max(failed_per_round) / expected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("fan-k6", "trichotomy-6", "moduli-embed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tropfan" / "__init__.py").is_file():
        print(f"no tropfan source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"no BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    inputs = workloads.make_inputs(args.workload, args.seed)
    expected = workloads.expected_verdicts(args.workload, inputs)
    attempted = failed = 0
    setups: list[float] = []
    setup_walls: list[float] = []
    untraced: list[dict] = []
    traced: list[dict] = []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        work = Path(tmp)
        (work / "inputs.json").write_text(json.dumps(inputs))
        for i in range(SETUP_SAMPLES + 1):  # the first also compiles bytecode
            r = run_child("setup", work, False, deadline)
            if "setup_s" not in r:
                print(f"tropfan does not import: {r['stderr']}", file=sys.stderr)
                return 1
            if i:
                setups.append(r["setup_s"])
                setup_walls.append(r["setup_wall_s"])
        longest = 0.0
        while True:
            trace = bool(args.trace) and len(traced) < len(untraced)
            t0 = time.perf_counter()
            r = run_child(args.workload, work, trace, deadline)
            longest = max(longest, time.perf_counter() - t0)
            if "result" in r:
                problems = workloads.check(args.workload, inputs, r["result"], work)
                del r["result"]
                setups.append(r["setup_s"])
                setup_walls.append(r["setup_wall_s"])
            else:
                problems = [f"round crashed (exit {r['exit']}): {r['stderr']}"] * expected
            r["failed"] = min(len(problems), expected)
            r["problems"] = problems[:5]
            attempted += expected
            failed += r["failed"]
            (traced if trace else untraced).append(r)
            print(json.dumps({"round": len(traced) + len(untraced), "traced": trace,
                              **{k: v for k, v in r.items() if k != "trace"}}), flush=True)
            if r["exit"] is None:
                break
            elapsed = time.perf_counter() - started
            need_more = args.trace and not traced
            if not need_more and (elapsed + longest > args.seconds or elapsed + longest > RUN_LIMIT_S):
                break

    ok = [r for r in untraced if "verdict_s" in r]
    traced_ok = [r for r in traced if "trace" in r]
    if not ok or (args.trace and not traced_ok):
        print("no round reached a verdict", file=sys.stderr)
        return 1
    if args.trace:
        values = {name: statistics.median(r["trace"].get(name, 0) for r in traced_ok)
                  for name in traced_ok[0]["trace"]}
        values["trace.overhead_s"] = (statistics.median(r["verdict_s"] for r in traced_ok)
                                      - statistics.median(r["verdict_s"] for r in ok))
        declared_metrics = declared["per_layer"]
    else:
        values = {
            "verdict_s": statistics.median(r["verdict_s"] for r in ok),
            "cpu_s": statistics.median(r["cpu_s"] for r in ok),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
            "verified_frac": verified_frac([r["failed"] for r in untraced + traced], expected),
        }
        declared_metrics = declared["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared_metrics}
    probes = [p for r in untraced + traced for p in (r.get("probe_before"), r.get("probe_after")) if p]
    wall = {key: statistics.median(r[key] for r in ok) for key in ("verdict_wall_s", "cpu_wall_s")}
    wall["setup_wall_s"] = statistics.median(setup_walls)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "rounds": len(untraced) + len(traced),
                      "setup_samples_s": setups, "probe_s": probes, **wall,
                      "python": sys.version.split()[0], "nproc": os.cpu_count()}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
