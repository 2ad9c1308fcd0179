import hashlib
import itertools
import json
import re
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropfan import cli
from tropfan.bergman import BalanceReport, edge_str
from tropfan.cli import NAMED_GRAPHS, main, resolve_graph
from tropfan import Graph, all_graphs, bergman_fan, parse_graph

from oracles import flats_by_dedupe, lattice_by_pairs


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    return status, out


def test_counts_complete_four(capsys):
    status, out = run(capsys, "counts", "--complete", "4")
    assert status == 0
    assert out.splitlines()[0] == "flats: 1,6,7,1"
    assert out.splitlines()[1] == "cones: 1,13,18"


def test_counts_prints_cones_only_up_to_six_vertices(capsys):
    """The cone census is limited to graphs on at most 6 vertices, and the
    help says so; K7 gets its flat census alone."""
    status, out = run(capsys, "counts", "--complete", "7")
    assert status == 0
    assert out == "flats: 1,21,140,350,301,63,1\n"
    with pytest.raises(SystemExit) as exc:
        main(["counts", "--help"])
    assert exc.value.code == 0
    assert "at most 6 vertices" in " ".join(capsys.readouterr().out.split())


def test_counts_named_graph(capsys):
    status, out = run(capsys, "counts", "--graph", "k4-minus-e25")
    assert status == 0
    assert out.splitlines()[0] == "flats: 1,5,6,1"


def test_flats_json(capsys):
    status, out = run(capsys, "flats", "--graph", "2-3,2-4,3-4", "--format", "json")
    assert status == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert len(doc["flats"]) == 5


def test_lattice_dot(capsys):
    status, out = run(capsys, "lattice", "--graph", "k4", "--format", "dot")
    assert status == 0
    assert out.startswith("digraph")
    assert out.count("->") == 6 + 18 + 7  # covers between ranks 0-1, 1-2, 2-3


def test_fan_text_and_json(capsys):
    status, out = run(capsys, "fan", "--graph", "k4")
    assert status == 0
    assert "cones by dimension: 1,13,18" in out
    assert "balanced: true" in out
    status, out = run(capsys, "fan", "--graph", "k4", "--format", "json")
    doc = json.loads(out)
    assert doc["balanced"] is True
    assert len(doc["rays"]) == 13


def test_fan_text_of_k7_finishes_in_five_seconds(capsys):
    """``fan`` (text) counts the cones and reads the balancing verdict off
    the lattice of flats without building a cone: K7 takes about 0.4 s on a
    2-core host, against 8 s through the built fan."""
    start = time.perf_counter()
    status, out = run(capsys, "fan", "--graph", "complete:7")
    assert time.perf_counter() - start < 5
    assert status == 0
    assert out == "cones by dimension: 1,875,16674,74165,114345,56700\nbalanced: true\n"


def count_flat_walks(monkeypatch) -> list:
    """Patch the one walk over the set partitions that lists a graph's
    flats (``matroid._flat_rows``) to record each graph it is run on."""
    import tropfan.matroid

    calls = []
    flat_rows = tropfan.matroid._flat_rows

    def counted(g):
        calls.append(g)
        return flat_rows(g)

    monkeypatch.setattr(tropfan.matroid, "_flat_rows", counted)
    return calls


@pytest.mark.parametrize(
    "argv",
    [["fan", "--graph", "complete:5"], ["fan", "--graph", "k4", "--format", "json"],
     ["counts", "--complete", "5"], ["counts", "--complete", "7"],
     ["lattice", "--graph", "complete:5"], ["lattice", "--graph", "k4", "--format", "json"],
     ["flats", "--graph", "complete:5"]],
    ids=["fan-text", "fan-json", "counts", "counts-flats-only", "lattice-text", "lattice-json",
         "flats"],
)
def test_fan_and_counts_enumerate_the_flats_once(argv, capsys, monkeypatch):
    calls = count_flat_walks(monkeypatch)
    status, _ = run(capsys, *argv)
    assert status == 0
    assert len(calls) == 1


def test_moduli_json_obstruction(capsys):
    status, out = run(
        capsys, "moduli", "--n", "5", "--graph", "k4-minus-e35-e45", "--format", "json"
    )
    assert status == 0
    doc = json.loads(out)
    assert len(doc["radial_fan"]["rays"]) == 9
    assert len(doc["projected_fan"]["rays"]) == 8
    two_cones = [c for c in doc["radial_fan"]["cones"] if len(c["rays"]) == 2]
    assert len(two_cones) == 10


def test_project_matches_bergman(capsys):
    status, out = run(capsys, "project", "--graph", "k4-minus-e35-e45", "--format", "json")
    assert status == 0
    doc = json.loads(out)
    assert len(doc["rays"]) == 8


def test_verify_suites_pass(capsys):
    for suite in ("axioms", "psi", "balancing", "theorem"):
        status, out = run(capsys, "verify", suite)
        assert status == 0, (suite, out)
        assert "ok:" in out


def test_verify_balancing_names_the_doubled_cone_and_the_face(capsys, monkeypatch):
    """``verify balancing`` doubles every maximal cone of K3, K4 and K5
    (201 copies); a copy that reports no failing face, or one that is no
    facet of the doubled cone, gets a FAIL line naming both masks."""
    monkeypatch.setattr(cli, "is_balanced", lambda fan: BalanceReport(True))
    status, out = run(capsys, "verify", "balancing")
    assert status == 1 and len(out.splitlines()) == 201
    assert out.splitlines()[0] == (
        "FAIL doubling the cone on the masks [1] of the complete graph on 3 vertices "
        "gives no failing face"
    )
    origin = bergman_fan(Graph.complete([2, 3, 4])).cones[0]

    def at_the_origin(fan):
        return BalanceReport(True) if set(fan._weights) == {1} else BalanceReport(False, origin)

    monkeypatch.setattr(cli, "is_balanced", at_the_origin)
    status, out = run(capsys, "verify", "balancing")
    lines = out.splitlines()
    # the origin is a facet of K3's rays only
    assert status == 1 and len(lines) == 18 + 180
    assert all(line.endswith("gives the failing face []") for line in lines)
    assert lines[-1].startswith("FAIL doubling the cone on the masks [")
    assert "of the complete graph on 5 vertices" in lines[-1]


def test_verify_theorem_refuses_out_of_range_sizes(capsys):
    for size in ("3", "7"):
        status = main(["verify", "theorem", "--max-vertices", size])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert "between 4 and 6" in captured.err


@pytest.mark.parametrize("suite, size, other", [("axioms", 4, 5), ("psi", 6, 8), ("balancing", 5, 6)])
def test_fixed_verify_suites_refuse_another_size_before_any_work(suite, size, other, capsys, monkeypatch):
    """Each fixed suite runs only the size it declares: another
    ``--max-vertices`` exits 2, naming that size, before the suite starts;
    its own size and the default run it."""
    ran = []
    monkeypatch.setitem(cli.SUITES, suite, lambda args, out: ran.append(args.max_vertices) or True)
    status = main(["verify", suite, "--max-vertices", str(other)])
    captured = capsys.readouterr()
    assert status == 2 and captured.out == "" and ran == []
    assert f"supports only --max-vertices {size}, got {other}" in captured.err
    assert main(["verify", suite, "--max-vertices", str(size)]) == 0
    assert main(["verify", suite]) == 0
    assert ran == [size, None]


def test_verify_theorem_full_sweep_to_six_vertices(capsys, tmp_path):
    """All 27,470 connected graphs on 4 to 6 labels, in process, written with
    -o: the three tallies and the file's digest are the seed's (budget
    60 s, about 1.2 s on a 2-core host)."""
    path = tmp_path / "theorem.txt"
    start = time.perf_counter()
    status, out = run(capsys, "verify", "theorem", "--max-vertices", "6", "-o", str(path))
    elapsed = time.perf_counter() - start
    assert status == 0 and out == ""
    assert path.read_text().splitlines() == [
        f"ok: {graphs} connected graphs on {nv} vertices, {injective} with bijective projection, all agreeing"
        for nv, graphs, injective in ((4, 38, 14), (5, 728, 51), (6, 26704, 202))
    ]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "5389c363104b8f194de7bd3a8abeca652d51f1686e31a6b739c64f8d978a182f"
    )
    assert elapsed < 60


def test_verify_theorem_reports_a_split(capsys, monkeypatch):
    import tropfan.tropmoduli as tropmoduli

    monkeypatch.setattr(tropmoduli, "is_complete_multipartite", lambda g: (False, (2, 3, 4)))
    status, out = run(capsys, "verify", "theorem")
    assert status == 1
    lines = out.splitlines()
    assert len(lines) == 14  # one per complete multipartite graph on 4 vertices
    assert all(line.startswith("FAIL trichotomy splits on ") for line in lines)


def test_byte_stable_output(capsys):
    _, first = run(capsys, "moduli", "--n", "5", "--graph", "k2-2", "--format", "json")
    _, second = run(capsys, "moduli", "--n", "5", "--graph", "k2-2", "--format", "json")
    assert first == second


def test_parse_error_exit_code(capsys):
    status = main(["flats", "--graph", "2-2"])
    err = capsys.readouterr().err
    assert status == 2
    assert "loop" in err


def test_named_graphs_resolve():
    assert resolve_graph("k4") == Graph.complete([2, 3, 4, 5])
    assert resolve_graph("complete:3") == Graph.complete([2, 3, 4])
    assert len(resolve_graph("k2-2").edges) == 4


def test_project_refuses_targets_beyond_seven_labels(capsys):
    """The Bergman fan of an 8- or 10-label graph (for ``project``, of the
    complete graph on its target's labels) would not finish, so ``fan`` and
    ``project`` refuse it at once."""
    for command in ("fan", "project"):
        for spec in ("petersen-check", "complete:8"):
            start = time.perf_counter()
            status = main([command, "--graph", spec])
            assert status == 2
            err = capsys.readouterr().err
            assert "at most 7 labels" in err and err.startswith(f"error: {command} ")
            assert time.perf_counter() - start < 5


def test_lattice_covers_enumerate_the_flats_once(capsys, monkeypatch):
    calls = count_flat_walks(monkeypatch)
    for fmt in ("json", "dot"):
        calls.clear()
        status, _ = run(capsys, "lattice", "--graph", "complete:5", "--format", fmt)
        assert status == 0
        assert len(calls) == 1


def graph_spec(g: Graph) -> str:
    """Inline ``--graph`` text for g, isolated vertices included."""
    return ",".join([f"vertices: {' '.join(map(str, g.labels))}"] + [f"{a}-{b}" for a, b in g.edges])


def test_lattice_covers_match_the_pair_scan(capsys):
    """``lattice`` writes as covers the containments that raise the rank by
    one, as positions among the flats it lists and in the pair scan's
    order, both in JSON and as DOT arrows: every graph on at most 4 labels,
    and K5."""
    graphs = [g for k in range(5) for g in all_graphs(range(2, 2 + k))]
    for g in graphs + [Graph.complete(range(2, 7))]:
        flats = flats_by_dedupe(g)
        position = {f: i for i, f in enumerate(flats)}
        pairs = [[position[a], position[b]] for a, b in lattice_by_pairs(g)]
        status, out = run(capsys, "lattice", "--graph", graph_spec(g), "--format", "json")
        doc = json.loads(out)
        assert status == 0 and doc["covers"] == pairs, g
        assert doc["flats"] == [[edge_str(e) for e in f.edges.edges] for f in flats], g
        status, out = run(capsys, "lattice", "--graph", graph_spec(g), "--format", "dot")
        arrows = re.findall(r"^  f(\d+) -> f(\d+);$", out, re.M)
        assert status == 0 and [[int(a), int(b)] for a, b in arrows] == pairs, g


def test_lattice_text_counts_flats_without_covers(capsys):
    """The text format prints only flat counts, so it builds no covers: K9's
    21,147 flats are counted in about a second."""
    start = time.perf_counter()
    status, out = run(capsys, "lattice", "--graph", "complete:9")
    assert status == 0
    assert out == "flats: 1,36,462,2646,6951,7770,3025,255,1\n"
    assert time.perf_counter() - start < 10


def test_lattice_covers_refuse_graphs_beyond_eight_labels(capsys):
    for fmt in ("json", "dot"):
        for spec in ("complete:9", "petersen-check"):
            start = time.perf_counter()
            assert main(["lattice", "--graph", spec, "--format", fmt]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "at most 8 labels" in captured.err
            assert time.perf_counter() - start < 5


def test_counts_needs_exactly_one_graph_flag(capsys):
    for argv in (["--graph", "2-3", "--complete", "3"], []):
        with pytest.raises(SystemExit) as exc:
            main(["counts"] + argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--complete" in captured.err


def test_petersen_named_graph_is_petersen():
    import networkx as nx

    g = resolve_graph("petersen-check")
    assert nx.is_isomorphic(nx.Graph(list(g.edges)), nx.petersen_graph())


def test_graph_file_input(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("2-3\n2-4\n3-4\n")
    status, out = run(capsys, "counts", "--graph", str(path))
    assert status == 0
    assert out.splitlines()[0] == "flats: 1,3,1"


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "fan.json"
    status, _ = run(capsys, "fan", "--graph", "k4", "--format", "json", "-o", str(target))
    assert status == 0
    doc = json.loads(target.read_text())
    assert doc["schema"] == 1


def test_golden_fan_document(capsys):
    from pathlib import Path

    golden = Path(__file__).parent / "golden" / "k4_fan.json"
    status, out = run(capsys, "fan", "--graph", "k4", "--format", "json")
    assert status == 0
    assert out == golden.read_text()


def test_golden_moduli_document(capsys):
    from pathlib import Path

    golden = Path(__file__).parent / "golden" / "obstruction_moduli.json"
    status, out = run(
        capsys, "moduli", "--n", "5", "--graph", "k4-minus-e35-e45", "--format", "json"
    )
    assert status == 0
    assert out == golden.read_text()


# ---------------------------------------------------------------------------
# Malformed graph specs are refused with ValueError, so the CLI exits 2


def returns_graph_or_value_error(fn, spec):
    try:
        g = fn(spec)
    except ValueError:
        return None
    assert isinstance(g, Graph)
    return g


_edge_list = st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=70).map(
    lambda es: ",".join(f"{a}-{b}" for a, b in es)
)
_ascii_texts = st.one_of(
    st.text(alphabet="0123456789-,;: \n\tverticsomplt", max_size=40), _edge_list
)
graph_texts = st.one_of(_ascii_texts, st.text(max_size=30))
graph_specs = st.one_of(
    graph_texts,
    st.sampled_from(sorted(NAMED_GRAPHS)),
    st.text(alphabet="0123456789-+_ x", max_size=7).map(lambda s: "complete:" + s),
)


@settings(max_examples=300, deadline=None)
@given(text=graph_texts)
def test_parse_graph_fuzz(text):
    returns_graph_or_value_error(parse_graph, text)


@settings(max_examples=300, deadline=None)
@given(spec=graph_specs)
def test_resolve_graph_fuzz(spec):
    returns_graph_or_value_error(resolve_graph, spec)


@settings(max_examples=50, deadline=None)
@given(text=_ascii_texts)  # ASCII: the file is read in the locale's encoding
def test_resolve_graph_file_fuzz(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.txt"
        path.write_text(text)
        from_file = returns_graph_or_value_error(resolve_graph, str(path))
        assert from_file == returns_graph_or_value_error(parse_graph, text)


def test_long_inline_graph_is_not_a_file_name():
    # longer than any file name: read as inline edges, not an OSError
    spec = ",".join(f"{a}-{b}" for a, b in itertools.combinations(range(2, 25), 2))
    assert len(spec) > 255
    assert resolve_graph(spec) == Graph.complete(range(2, 25))


def test_unusable_graph_specs_exit_2(tmp_path, capsys):
    for spec in (str(tmp_path), "complete:11", "complete:-1", "complete:x"):
        assert main(["flats", "--graph", spec]) == 2, spec
        assert capsys.readouterr().err.startswith("error: ")


def test_counts_complete_out_of_range_exits_2(capsys):
    # refused before any graph is built, as for --graph complete:<m>
    for m in ("-3", "11", "3000"):
        assert main(["counts", "--complete", m]) == 2, m
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "needs 0 <= m <= 10" in captured.err, m


@pytest.mark.parametrize(
    "argv",
    [
        ["flats", "--graph", "k4"],
        ["verify", "psi"],
        ["fan", "--graph", "k4", "--format", "json"],
        ["moduli", "--n", "5", "--format", "json"],
    ],
    ids=["flats", "verify-psi", "fan-json", "moduli-json"],
)
def test_unwritable_output_exits_2(argv, tmp_path, capsys):
    """An output path that is a directory, or whose parent is missing, is
    refused with an error line and exit status 2, which the CLI keeps for
    malformed input (1 means a verification failed)."""
    for target in (tmp_path, tmp_path / "missing" / "out.txt"):
        assert main(argv + ["-o", str(target)]) == 2, target
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {target}: "), captured.err
    assert not (tmp_path / "missing").exists()
