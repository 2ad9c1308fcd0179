"""One round of a perfbench workload in a fresh interpreter.

Spawned by run.py as ``child.py ROOT WORKLOAD WORKDIR TRACE SPAWNED``, where
SPAWNED is the parent's perf_counter() just before the spawn.  It reads the
generated inputs from WORKDIR/inputs.json, times the calls into tropfan, and
writes WORKDIR/record.json: setup and verdict times, both as wall time and
rescaled to the reference host speed (see hostspeed.py), the probe readings
before and after the round, the raw verdicts and, when TRACE is 1, the folded
per-layer trace.  It checks nothing: run.py compares the verdicts with known
answers.  Workload ``setup`` only imports tropfan and exits."""

import hostspeed

SETUP = hostspeed.SpeedSampler().start()
import tropfan  # noqa: E402
import tropfan.cli  # noqa: E402

SETUP.stop()

import json  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402


def attempt(fn, *args):
    """(result, None), or (None, error text) when tropfan raised."""
    try:
        return fn(*args), None
    except Exception as exc:  # a crash is a failed verdict, not a failed round
        return None, f"{type(exc).__name__}: {exc}"


def num(x):
    return x if isinstance(x, int) else str(Fraction(x))


def rays(cone) -> list:
    return [[num(c) for c in r.coords] for r in cone.rays]


def fan_k6(inp: dict, work: Path):
    out = work / "fan.json"
    cli = tropfan.cli.main(["fan", "--graph", "complete:6", "--format", "json", "-o", str(out)])
    k5 = tropfan.bergman_fan(tropfan.Graph.complete(range(2, 7)))
    maximal = k5.cones_of_dim(k5.max_dim)
    reports = []
    for i in inp["perturb"]:
        sigma = maximal[i]
        reports.append((sigma, attempt(tropfan.is_balanced, k5.with_weights({sigma.rayset: 2}))))

    def result():
        perturbed = []
        for sigma, (report, error) in reports:
            face = report.failing_face if report is not None else None
            perturbed.append({
                "sigma": rays(sigma),
                "balanced": report.balanced if report is not None else None,
                "face": rays(face) if face is not None else None,
                "error": error,
            })
        return {"cli": {"fan.json": cli}, "k5_census": list(k5.census()), "perturbed": perturbed}

    return result


def trichotomy_6(inp: dict, work: Path):
    cli = {}
    if inp.get("theorem", True):  # calibrate.py times the sampled graphs alone
        out = work / "theorem.txt"
        cli["theorem.txt"] = tropfan.cli.main(["verify", "theorem", "--max-vertices", "5", "-o", str(out)])
    labels = range(2, 8)
    reports = [
        attempt(tropfan.verify_injectivity, tropfan.Graph.from_edges(map(tuple, edges), labels))
        for edges in inp["graphs"]
    ]

    def result():
        return {
            "cli": cli,
            "graphs": [
                [r.injective, r.rank_criterion, r.multipartite] if r is not None else error
                for r, error in reports
            ],
        }

    return result


def embed(metric):
    return tropfan.psi_linear(tropfan.dist_vector(metric))


def moduli_embed(inp: dict, work: Path):
    cli = {}
    for k, spec in enumerate(inp["gammas"]):
        name = f"moduli{k}.json"
        cli[name] = tropfan.cli.main(
            ["moduli", "--n", "7", "--graph", spec, "--format", "json", "-o", str(work / name)]
        )
    samples = inp["samples_per_cone"]
    cones = []
    k = 0
    for _, types in sorted(tropfan.enumerate_types(6).items()):
        for typ in types:
            for radial in tropfan.radial_alignments(typ):
                if radial.num_levels == 0:
                    continue
                chain = tropfan.psi_radial_to_cof(radial)
                level = radial.level_of
                points = []
                for _ in range(samples):
                    steps = inp["increments"][k % len(inp["increments"])]
                    k += 1
                    radii = [0]
                    for lvl in range(radial.num_levels):
                        radii.append(radii[-1] + steps[lvl])
                    lengths = tuple(radii[level[v]] - radii[level[u]] for u, v in typ.edges)
                    metric = tropfan.MetricType(typ, lengths)
                    points.append(attempt(embed, metric))
                cones.append((chain, points))

    def result():
        return {
            "cli": cli,
            "cones": [
                {
                    "chain": [[list(e) for e in flat.edges.edges] for flat in chain],
                    "points": [
                        [num(c) for c in p.coords] if p is not None else error
                        for p, error in points
                    ],
                }
                for chain, points in cones
            ],
        }

    return result


def main() -> int:
    root, workload, work = Path(sys.argv[1]), sys.argv[2], Path(sys.argv[3])
    trace, spawned = sys.argv[4] == "1", float(sys.argv[5])
    expected = (root / "src" / "tropfan").resolve()
    if Path(tropfan.__file__).resolve().parent != expected:
        print(f"tropfan imported from {tropfan.__file__}, not {expected}", file=sys.stderr)
        return 3
    record = {"setup_s": SETUP.reference_s(spawned), "setup_wall_s": SETUP.wall_s(spawned)}
    if workload != "setup":
        inp = json.loads((work / "inputs.json").read_text())
        run = {"fan-k6": fan_k6, "trichotomy-6": trichotomy_6, "moduli-embed": moduli_embed}[workload]
        if workload == "moduli-embed":
            inp["increments"] = [[Fraction(a, b) for a, b in steps] for steps in inp["increments"]]
        tracer = None
        if trace:
            from layertrace import Tracer

            tracer = Tracer()
            tracer.install(tropfan)
        record["probe_before"] = hostspeed.probe()
        speed = hostspeed.SpeedSampler().start()
        try:
            result = run(inp, work)
        finally:  # a crash exits with its traceback, not by the sampler's SIGALRM
            speed.stop()
        record["verdict_s"] = speed.reference_s(speed.started)
        record["verdict_wall_s"] = speed.wall_s(speed.started)
        record["probe_after"] = hostspeed.probe()
        record["result"] = result()
        if tracer is not None:
            record["trace"] = tracer.metrics(workload)
    (work / "record.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
