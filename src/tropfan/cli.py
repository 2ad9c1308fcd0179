"""Command-line frontend: flats, lattices, fans, moduli fans, projections,
verification suites, and census tables, as JSON / DOT / text documents.

Exit status: 0 on success, 1 when a verification suite finds a failure or
the reader of stdout closes it before the output ends, 2 on malformed input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from . import matroid, tropmoduli
from .bergman import (
    SCHEMA,
    bergman_fan,
    edge_str,
    fan_json_chunks,
    is_balanced,
    json_array,
    json_scalar,
    lattice_balanced,
    project_fan,
)
from .graphs import EdgeSet, Graph, all_graphs, parse_graph
from .matroid import FlatLattice, SetSystem, verify_matroid_axioms
from .tropmoduli import moduli_fan_rad, qn_relations_check, verify_injectivity


def _petersen() -> Graph:
    outer = [(2, 3), (3, 4), (4, 5), (5, 6), (2, 6)]
    spokes = [(2, 7), (3, 8), (4, 9), (5, 10), (6, 11)]
    inner = [(7, 9), (9, 11), (8, 11), (8, 10), (7, 10)]
    return Graph.from_edges(outer + spokes + inner)


NAMED_GRAPHS = {
    "k4": lambda: Graph.complete([2, 3, 4, 5]),
    "k4-minus-e25": lambda: Graph.from_edges([(2, 3), (2, 4), (3, 4), (3, 5), (4, 5)]),
    "k4-minus-e35-e45": lambda: Graph.from_edges([(2, 3), (2, 4), (2, 5), (3, 4)]),
    "k2-2": lambda: Graph.from_edges([(2, 3), (2, 4), (3, 5), (4, 5)]),
    "petersen-check": _petersen,
}


def resolve_graph(spec: str) -> Graph:
    """A named graph, ``complete:<m>``, a file path, or inline edge text
    (commas or semicolons doubling as newlines).  Anything else raises
    ValueError."""
    if spec in NAMED_GRAPHS:
        return NAMED_GRAPHS[spec]()
    if spec.startswith("complete:"):
        m = int(spec.split(":", 1)[1])
        if not 0 <= m <= matroid.MAX_FLAT_VERTICES:
            # every command enumerates flats, which stops at this size
            raise ValueError(
                f"complete:<m> needs 0 <= m <= {matroid.MAX_FLAT_VERTICES}, got {m}"
            )
        return Graph.complete(range(2, m + 2))
    path = Path(spec)
    try:
        is_file = path.is_file()
    except OSError:  # e.g. inline edges too long to be a file name
        is_file = False
    if is_file:
        try:
            text = path.read_text()
        except OSError as exc:
            raise ValueError(f"cannot read graph file {spec}: {exc}") from exc
        return parse_graph(text)
    return parse_graph(spec.replace(",", "\n").replace(";", "\n"))


# chunks joined into one write; a fan document's cone chunks run to a few
# hundred bytes, so a batch holds some hundred kilobytes
EMIT_BATCH = 512


def _batches(chunks: Iterable[str]) -> Iterator[str]:
    """The chunks joined EMIT_BATCH at a time, in order.  A batch ends the
    stream only when no chunk is left, not when its text is empty, and no
    list of its chunks outlives the join."""
    it = iter(chunks)
    for first in it:
        yield "".join((first, *islice(it, EMIT_BATCH - 1)))


def _emit(doc: Union[str, Iterable[str]], output: Optional[str]):
    """Write a document, given whole or as string chunks in order, and the
    final newline, to the file ``output`` or to stdout.  The chunks are
    written in batches of EMIT_BATCH, each joined once, as they come, so a
    streamed document is never held whole.  An output path that cannot be
    written is malformed input (exit status 2).  When the reader of stdout
    closes it early (``tropfan fan ... | head``), stdout is pointed at
    os.devnull, so the flush at shutdown cannot fail again, and the
    process exits with status 1, with no traceback."""
    chunks = (doc,) if isinstance(doc, str) else _batches(doc)
    if output:
        try:
            with open(output, "w") as fh:
                fh.writelines(chunks)
                fh.write("\n")
        except OSError as exc:
            raise ValueError(f"cannot write {output}: {exc}") from exc
    else:
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.write("\n")
            sys.stdout.flush()
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise SystemExit(1)


def _flat_json(g: Graph, mask: int) -> list[str]:
    """The edges of g's flat with edge mask ``mask``, as JSON strings."""
    return [edge_str(e) for e in EdgeSet(g, mask).edges]


def _check_size(g: Graph, command: str, limit: int):
    if len(g.labels) > limit:
        raise ValueError(
            f"{command} supports graphs with at most {limit} labels, got {len(g.labels)}"
        )


def cmd_flats(args) -> int:
    g = resolve_graph(args.graph)
    lattice = FlatLattice(g)
    flats = ((_flat_json(g, m), r) for m, r in zip(lattice.masks, lattice.ranks))
    if args.format == "json":
        doc = {
            "schema": SCHEMA,
            "graph": [edge_str(e) for e in g.edges],
            "flats": [{"edges": edges, "rank": r} for edges, r in flats],
        }
        _emit(json.dumps(doc, indent=2), args.output)
    else:
        lines = [f"rank {r}: {' '.join(edges) or '{}'}" for edges, r in flats]
        _emit("\n".join(lines), args.output)
    return 0


# ``lattice --format json|dot`` writes the covers of the lattice of flats of
# a graph on up to this many labels.  The covers grow about sixfold per label:
# on a 2-core host K8's 28,337 take 1.2 s to write, and K9's 175,896 take
# 5.1 s and 8.7 MB of JSON, more than a reader or a DOT layout can use.  The
# text format prints only flat counts and builds no covers.
MAX_LATTICE_LABELS = 8


def cmd_lattice(args) -> int:
    g = resolve_graph(args.graph)
    if args.format == "text":
        _emit("flats: " + ",".join(map(str, _flat_counts(FlatLattice(g).ranks))), args.output)
        return 0
    _check_size(g, "lattice --format json|dot", MAX_LATTICE_LABELS)
    lattice = FlatLattice(g)
    flats = [_flat_json(g, m) for m in lattice.masks]
    # the covering pairs (child, parent) as positions, by child and then parent
    covers = [(c, p) for c, above in enumerate(lattice.covers) for p in above]
    if args.format == "json":
        doc = {
            "schema": SCHEMA,
            "flats": flats,
            "covers": covers,
        }
        _emit(json.dumps(doc, indent=2), args.output)
    else:
        lines = ["digraph lattice {"]
        for i, edges in enumerate(flats):
            lines.append(f'  f{i} [label="{" ".join(edges) or "{}"}"];')
        for a, b in covers:
            lines.append(f"  f{a} -> f{b};")
        lines.append("}")
        _emit("\n".join(lines), args.output)
    return 0


def _flat_counts(ranks) -> list[int]:
    """The number of flats of each rank, from the ascending ranks column."""
    counts = [0] * (ranks[-1] + 1)
    for r in ranks:
        counts[r] += 1
    return counts


# ``fan`` and ``project`` handle graphs on up to this many labels.  ``fan``
# reads its text census and its balancing verdict off the lattice of flats
# (``fan --graph complete:7`` takes well under a second), but ``fan --format
# json`` and ``project`` build the Bergman fan, or that of the complete
# graph on the target's labels: K7's JSON document is 164 MB, and K8's fan
# has about 10.3 million cones.
MAX_FAN_LABELS = 7


def cmd_fan(args) -> int:
    g = resolve_graph(args.graph)
    _check_size(g, "fan", MAX_FAN_LABELS)
    lattice = FlatLattice(g)
    balanced = lattice_balanced(lattice)
    if args.format == "json":
        _emit(fan_json_chunks(bergman_fan(g, lattice), balanced=balanced), args.output)
    else:
        lines = [
            "cones by dimension: " + ",".join(map(str, lattice.chain_census(lattice.proper))),
            f"balanced: {str(balanced).lower()}",
        ]
        _emit("\n".join(lines), args.output)
    return 0


def cmd_moduli(args) -> int:
    gamma = "complete" if args.graph in (None, "complete") else resolve_graph(args.graph)
    fan = moduli_fan_rad(args.n, gamma)
    target = gamma if isinstance(gamma, Graph) else Graph.complete(range(2, args.n + 1))
    projected = project_fan(fan, target)
    if args.format == "json":
        _emit(_moduli_json_chunks(args.n, target, fan, projected), args.output)
    else:
        lines = [
            "radial cones by dimension: " + ",".join(map(str, fan.census())),
            "projected cones by dimension: " + ",".join(map(str, projected.census())),
        ]
        _emit("\n".join(lines), args.output)
    return 0


def _moduli_json_chunks(n: int, target: Graph, fan, projected) -> Iterator[str]:
    """The moduli document as ``json.dumps(doc, indent=2)`` writes it, in
    chunks: its schema, n and graph, then both fans' chunks at depth 1."""
    graph = [json_scalar(edge_str(e)) for e in target.edges]
    yield (
        '{\n  "schema": ' + json_scalar(SCHEMA) + ',\n  "n": ' + json_scalar(n)
        + ',\n  "graph": ' + json_array(graph, 1) + ',\n  "radial_fan": '
    )
    yield from fan_json_chunks(fan, 1)
    yield ',\n  "projected_fan": '
    yield from fan_json_chunks(projected, 1)
    yield "\n}"


def cmd_project(args) -> int:
    gamma = resolve_graph(args.graph)
    _check_size(gamma, "project", MAX_FAN_LABELS)
    ambient = Graph.complete(gamma.labels)
    fan = bergman_fan(ambient)
    projected = project_fan(fan, gamma)
    if args.format == "json":
        _emit(fan_json_chunks(projected), args.output)
    else:
        census = ",".join(map(str, projected.census()))
        _emit(f"projected cones by dimension: {census}", args.output)
    return 0


# ``counts`` prints the cone census, a DP over the lattice of flats that
# builds no cone, only up to this many labels; a larger graph gets its flat
# census alone, from the flats without their covers.
MAX_COUNTS_CONES_LABELS = 6


def cmd_counts(args) -> int:
    if args.complete is not None:
        g = resolve_graph(f"complete:{args.complete}")  # with its size check
    else:
        g = resolve_graph(args.graph)
    lattice = FlatLattice(g)
    lines = ["flats: " + ",".join(map(str, _flat_counts(lattice.ranks)))]
    if g.num_vertices <= MAX_COUNTS_CONES_LABELS:
        lines.append("cones: " + ",".join(map(str, lattice.chain_census(lattice.proper))))
    _emit("\n".join(lines), args.output)
    return 0


# ---------------------------------------------------------------------------
# Verification suites


def _verify_axioms(out) -> bool:
    ok = True
    for nv in (3, 4):
        for g in all_graphs(range(2, 2 + nv)):
            ground = tuple(g.edges)
            systems = [
                (SetSystem(ground, members=tuple(matroid.independent_sets(g))), "I"),
                (SetSystem(ground, members=tuple(matroid.bases(g))), "B"),
                (SetSystem(ground, rank=matroid.rank_table(g)), "R"),
                (SetSystem(ground, rank=matroid.rank_table(g)), "R'"),
                (SetSystem(ground, closure=matroid.closure_table(g)), "S"),
                (SetSystem(ground, members=tuple(matroid.circuits(g))), "C"),
            ]
            for system, family in systems:
                report = verify_matroid_axioms(system, family)
                if not report.holds:
                    out(f"FAIL axioms {family} on {g.edges}: {report.counterexample}")
                    ok = False
    if ok:
        out("ok: axiom families I, B, R, R', S, C on all graphs with <= 4 vertices")
    return ok


def _verify_psi(out) -> bool:
    ok = True
    for n in (4, 5, 6):
        report = qn_relations_check(n)
        if not report.holds:
            out(f"FAIL distance-class relations at n={n}: {report}")
            ok = False
        k = Graph.complete(range(2, n + 1))
        for chain in matroid.all_chains(k):
            if len(chain) == 0:
                continue
            radial = tropmoduli.psi_cof_to_radial(chain)
            if tropmoduli.psi_radial_to_cof(radial) != chain:
                out(f"FAIL round trip at n={n}: {chain}")
                ok = False
                break
    if ok:
        out("ok: distance-class relations and chain round trips for n = 4, 5, 6")
    return ok


def _verify_balancing(out) -> bool:
    """The Bergman fans of K3, K4 and K5 balance, and doubling the weight
    of any one maximal cone sigma (201 copies in all) unbalances its fan
    at a facet of sigma, the only faces whose stars hold sigma."""
    ok = True
    for m in (3, 4, 5):
        fan = bergman_fan(Graph.complete(range(2, m + 2)))
        report = is_balanced(fan)
        if not report.balanced:
            out(f"FAIL balancing for the complete graph on {m} vertices")
            ok = False
        for sigma in fan.cones_of_dim(fan.max_dim):
            face = is_balanced(fan.with_weights({sigma.rayset: 2})).failing_face
            if face is None or face.dim != sigma.dim - 1 or not set(face.masks) <= set(sigma.masks):
                found = "no failing face" if face is None else f"the failing face {list(face.masks)}"
                out(f"FAIL doubling the cone on the masks {list(sigma.masks)} of the complete "
                    f"graph on {m} vertices gives {found}")
                ok = False
    if ok:
        out("ok: complete-graph fans balance; a perturbed weight does not")
    return ok


def _verify_theorem(out, max_vertices: int) -> bool:
    if not 4 <= max_vertices <= 6:  # verify_injectivity stops at 6 vertices
        raise ValueError("verify theorem needs --max-vertices between 4 and 6")
    ok = True
    for nv in range(4, max_vertices + 1):
        graphs = injective = splits = 0
        for g in all_graphs(range(2, 2 + nv), connected=True):
            report = verify_injectivity(g)
            if not report.agree:
                out(f"FAIL trichotomy splits on {g.edges}")
                splits += 1
            graphs += 1
            injective += report.injective
        if splits:
            ok = False
        else:
            out(
                f"ok: {graphs} connected graphs on {nv} vertices, "
                f"{injective} with bijective projection, all agreeing"
            )
    return ok


SUITES = {
    "axioms": lambda args, out: _verify_axioms(out),
    "psi": lambda args, out: _verify_psi(out),
    "balancing": lambda args, out: _verify_balancing(out),
    "theorem": lambda args, out: _verify_theorem(
        out, 4 if args.max_vertices is None else args.max_vertices
    ),
}

# the one size each fixed suite runs, as its --max-vertices: graphs on up to
# 4 vertices, n up to 6 ends, and the complete graphs up to K5
FIXED_SIZES = {"axioms": 4, "psi": 6, "balancing": 5}


def cmd_verify(args) -> int:
    size = FIXED_SIZES.get(args.suite)
    if size is not None and args.max_vertices not in (None, size):
        raise ValueError(
            f"verify {args.suite} supports only --max-vertices {size}, got {args.max_vertices}"
        )
    lines: list[str] = []
    passed = SUITES[args.suite](args, lines.append)
    _emit("\n".join(lines), args.output)
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropfan",
        description="Graphic matroids, Bergman fans, and radially aligned moduli fans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("json", "text")):
        p.add_argument("--graph", required=True, help="named graph, file, or inline edges")
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--output", "-o", default=None, help="write to a file instead of stdout")

    p = sub.add_parser("flats", help="flats of the cycle matroid")
    common(p)
    p.set_defaults(func=cmd_flats)

    p = sub.add_parser("lattice", help="Hasse diagram of the lattice of flats")
    common(p, formats=("json", "dot", "text"))
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("fan", help="Bergman fan with a balancing check")
    common(p)
    p.set_defaults(func=cmd_fan)

    p = sub.add_parser("moduli", help="radially aligned stable moduli fan")
    p.add_argument("--n", type=int, required=True, help="number of ends (4..7)")
    p.add_argument("--graph", default="complete")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_moduli)

    p = sub.add_parser("project", help="project the ambient Bergman fan onto a subgraph")
    common(p)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument(
        "--max-vertices", type=int, default=None, dest="max_vertices",
        help="theorem: 4..6 (default 4); axioms runs only 4, psi only 6 (its n) and "
        "balancing only 5, and each refuses any other value",
    )
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_verify)

    about = (
        "census tables: flats by rank, and cones by dimension for graphs "
        f"with at most {MAX_COUNTS_CONES_LABELS} vertices"
    )
    p = sub.add_parser("counts", help=about, description=about)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--graph")
    which.add_argument("--complete", type=int, help="use the complete graph on this many vertices")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_counts)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
