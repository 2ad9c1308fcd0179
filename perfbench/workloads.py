"""Workload inputs (made from the seed) and the correctness gate.

The gate compares each round's verdicts with known answers: censuses,
balanced/unbalanced flags, trichotomy tallies, an independent
complete-multipartite test, cone membership by the benchmark's own Fraction
elimination, and the sha256 of every CLI output as recorded from the seed
commit.  Nothing here imports tropfan.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

LABELS = tuple(range(2, 8))  # stability graphs for n = 7 ends

# -- known answers ---------------------------------------------------------

K6_CENSUS = [1, 201, 1865, 4245, 2700]
K5_CENSUS = [1, 50, 205, 180]
THEOREM_LINES = [
    "ok: 38 connected graphs on 4 vertices, 14 with bijective projection, all agreeing",
    "ok: 728 connected graphs on 5 vertices, 51 with bijective projection, all agreeing",
]
N6_CONES_BY_LENGTH = {1: 50, 2: 205, 3: 180}  # radial cones of M_{0,6}, origin excluded

PERTURBATIONS = 40
RANDOM_GRAPHS = 98  # drawn next to the 202 complete multipartite graphs
SAMPLES_PER_CONE = 4


def _spec(edges) -> str:
    return ",".join(f"{a}-{b}" for a, b in sorted(tuple(sorted(e)) for e in edges))


def _path(order) -> str:
    return _spec(zip(order, order[1:]))


def _cycle(order) -> str:
    return _spec(zip(order, order[1:] + order[:1]))


def _bipartite(block) -> str:
    other = [v for v in LABELS if v not in block]
    return _spec((a, b) for a in block for b in other)


# Stability graphs for moduli-embed.  Within a pool every graph is a
# relabeling of one shape, so each seed draws the same amount of work.
MODULI_POOLS = {
    "k33": [_bipartite((2,) + rest) for rest in combinations(LABELS[1:], 2)],
    "path": [
        _path(order)
        for order in (
            [2, 3, 4, 5, 6, 7], [2, 4, 6, 3, 5, 7], [3, 2, 5, 7, 4, 6], [4, 2, 7, 3, 6, 5],
            [5, 3, 7, 2, 6, 4], [6, 2, 3, 7, 5, 4], [7, 5, 2, 4, 3, 6], [2, 7, 3, 6, 4, 5],
        )
    ],
    "cycle": [
        _cycle(order)
        for order in (
            [2, 3, 4, 5, 6, 7], [2, 4, 6, 3, 5, 7], [2, 5, 3, 7, 4, 6], [2, 6, 4, 3, 7, 5],
            [2, 7, 5, 3, 6, 4], [2, 3, 5, 7, 6, 4], [2, 4, 3, 6, 7, 5], [2, 6, 3, 5, 4, 7],
        )
    ],
}

DIGESTS = json.loads((Path(__file__).with_name("digests.json")).read_text())


def cli_invocations() -> dict[str, list[str]]:
    """Every CLI call a workload can make, keyed by the digest table's key."""
    calls = {
        "fan complete:6": ["fan", "--graph", "complete:6", "--format", "json"],
        "verify theorem 5": ["verify", "theorem", "--max-vertices", "5"],
    }
    for spec in ["complete"] + [s for pool in MODULI_POOLS.values() for s in pool]:
        calls[f"moduli 7 {spec}"] = ["moduli", "--n", "7", "--graph", spec, "--format", "json"]
    return calls


# -- independent graph tests -----------------------------------------------


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]


def connected(labels, edges) -> bool:
    adj = {v: set() for v in labels}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen, todo = {labels[0]}, [labels[0]]
    while todo:
        for w in adj[todo.pop()] - seen:
            seen.add(w)
            todo.append(w)
    return len(seen) == len(labels)


def multipartite(labels, edges) -> bool:
    """Complete multipartite iff every component of the complement is a
    clique of the complement (an independent set of the graph)."""
    present = {tuple(sorted(e)) for e in edges}
    missing = [e for e in combinations(labels, 2) if e not in present]
    block = {v: v for v in labels}

    def find(v):
        while block[v] != v:
            v = block[v]
        return v

    for a, b in missing:
        block[find(a)] = find(b)
    for a, b in present:
        if find(a) == find(b):
            return False
    members = {}
    for v in labels:
        members.setdefault(find(v), []).append(v)
    return sum(len(m) * (len(m) - 1) // 2 for m in members.values()) == len(missing)


# -- inputs ----------------------------------------------------------------


def make_inputs(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}/{seed}")
    if workload == "fan-k6":
        return {"perturb": rng.sample(range(K5_CENSUS[-1]), PERTURBATIONS)}
    if workload == "trichotomy-6":
        graphs = []
        for part in set_partitions(list(LABELS)):
            if len(part) > 1:
                graphs.append([(a, b) for a, b in combinations(LABELS, 2)
                               if not any(a in p and b in p for p in part)])
        all_edges = list(combinations(LABELS, 2))
        drawn = set()
        while len(drawn) < RANDOM_GRAPHS:
            bits = rng.getrandbits(len(all_edges))
            edges = tuple(e for i, e in enumerate(all_edges) if bits >> i & 1)
            if connected(LABELS, edges) and not multipartite(LABELS, edges):
                drawn.add(edges)
        graphs += [list(g) for g in sorted(drawn)]
        rng.shuffle(graphs)
        return {"graphs": graphs}
    if workload == "moduli-embed":
        gammas = ["complete"] + [rng.choice(MODULI_POOLS[k]) for k in ("k33", "path", "cycle")]
        cones = sum(N6_CONES_BY_LENGTH.values())
        increments = [
            [(rng.randint(1, 24), rng.randint(1, 4)) for _ in range(3)]
            for _ in range(cones * SAMPLES_PER_CONE)
        ]
        return {"gammas": gammas, "samples_per_cone": SAMPLES_PER_CONE, "increments": increments}
    raise ValueError(f"unknown workload {workload!r}")


def expected_verdicts(workload: str, inputs: dict) -> int:
    if workload == "fan-k6":
        return 2 + len(inputs["perturb"])
    if workload == "trichotomy-6":
        return 1 + len(inputs["graphs"])
    return len(inputs["gammas"]) + sum(N6_CONES_BY_LENGTH.values())


# -- the gate --------------------------------------------------------------


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cli_output(work: Path, name: str, rc, key: str, problems: list) -> Path | None:
    """The output file when the CLI exited 0 and its digest is the seed's."""
    path = work / name
    if rc != 0:
        problems.append(f"{key}: exit status {rc}")
    elif not path.is_file():
        problems.append(f"{key}: no output")
    elif sha256(path) != DIGESTS.get(key):
        problems.append(f"{key}: sha256 {sha256(path)[:12]} differs from the seed's")
    else:
        return path
    return None


def census(fan_doc: dict) -> list[int]:
    dims = [len(c["rays"]) for c in fan_doc["cones"]]
    return [dims.count(d) for d in range(max(dims) + 1)]


def check(workload: str, inputs: dict, result: dict, work: Path) -> list[str]:
    """One line per failed verdict of a round."""
    problems: list[str] = []
    if workload == "fan-k6":
        _check_fan(inputs, result, work, problems)
    elif workload == "trichotomy-6":
        _check_trichotomy(inputs, result, work, problems)
    else:
        _check_moduli(inputs, result, work, problems)
    return problems


def _check_fan(inputs, result, work, problems):
    path = _cli_output(work, "fan.json", result["cli"].get("fan.json"), "fan complete:6", problems)
    if path is not None:
        doc = json.loads(path.read_text())
        if census(doc) != K6_CENSUS or doc["balanced"] is not True:
            problems.append(f"K6 fan: census {census(doc)}, balanced {doc['balanced']}")
    if result["k5_census"] != K5_CENSUS:
        problems.append(f"K5 fan census {result['k5_census']}")
    for p in result["perturbed"]:
        # doubling sigma's weight unbalances exactly the facets of sigma
        face_ok = p["face"] is not None and len(p["face"]) == len(p["sigma"]) - 1 and all(
            r in p["sigma"] for r in p["face"]
        )
        if p["error"] or p["balanced"] is not False or not face_ok:
            problems.append(f"perturbation of {p['sigma']}: {p}")


def _check_trichotomy(inputs, result, work, problems):
    path = _cli_output(work, "theorem.txt", result["cli"].get("theorem.txt"), "verify theorem 5", problems)
    if path is not None and path.read_text().splitlines() != THEOREM_LINES:
        problems.append(f"theorem tallies: {path.read_text()!r}")
    for edges, verdict in zip(inputs["graphs"], result["graphs"]):
        truth = multipartite(LABELS, edges)
        if verdict != [truth, truth, truth]:
            problems.append(f"graph {_spec(edges)}: {verdict}, multipartite {truth}")


def _check_moduli(inputs, result, work, problems):
    for k, spec in enumerate(inputs["gammas"]):
        name = f"moduli{k}.json"
        path = _cli_output(work, name, result["cli"].get(name), f"moduli 7 {spec}", problems)
        if path is None:
            continue
        doc = json.loads(path.read_text())
        radial, projected = census(doc["radial_fan"]), census(doc["projected_fan"])
        edges = [tuple(map(int, e.split("-"))) for e in doc["graph"]]
        # the trichotomy: projection keeps every cone exactly for multipartite graphs
        same = radial == projected
        if same != multipartite(LABELS, edges) or (spec == "complete" and radial != K6_CENSUS):
            problems.append(f"{spec}: radial census {radial}, projected {projected}")
    ambient = list(combinations(range(2, 7), 2))
    lengths = [len(c["chain"]) for c in result["cones"]]
    for length, count in N6_CONES_BY_LENGTH.items():
        missing = count - lengths.count(length)
        problems.extend([f"radial cone of length {length} missing"] * max(missing, 0))
    for cone in result["cones"]:
        rays = cone_rays(cone["chain"], ambient)
        for point in cone["points"]:
            if rays is None or isinstance(point, str) or not in_relative_interior(rays, point):
                problems.append(f"cone {cone['chain']}: point {point}")
                break


def cone_rays(chain, ambient) -> list[list[int]] | None:
    """Canonical rays (minus the flat's indicator, last coordinate 0) of a
    strictly increasing chain of flats, or None if the chain is not one."""
    flats = [{tuple(e) for e in flat} for flat in chain]
    if not all(a < b for a, b in zip(flats, flats[1:])):
        return None
    rays = []
    for flat in flats:
        raw = [-1 if e in flat else 0 for e in ambient]
        rays.append([c - raw[-1] for c in raw])
    return rays


def in_relative_interior(rays, point) -> bool:
    """point = sum c_i rays_i with every c_i > 0, by Fraction elimination."""
    target = [Fraction(c) for c in point]
    if len(target) != len(rays[0]) or target[-1] != 0:
        return False
    k = len(rays)
    rows = [[Fraction(r[j]) for r in rays] + [target[j]] for j in range(len(target))]
    pivots = []
    for col in range(k):
        pivot = next((i for i in range(len(pivots), len(rows)) if rows[i][col]), None)
        if pivot is None:
            return False  # rays dependent
        r = len(pivots)
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    if any(row[k] for row in rows[k:]):
        return False  # not in the span
    return all(rows[i][k] > 0 for i in range(k))
