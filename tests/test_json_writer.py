"""The fan and moduli JSON writer against its oracle, json.dumps(indent=2) of
the dict form ``fan_to_json``, byte for byte, and the CLI's streaming of its
chunks."""

import gc
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from tropfan import (
    Fan,
    Graph,
    QuotientVector,
    bergman_fan,
    fan_json_chunks,
    moduli_fan_rad,
    project_fan,
)
from tropfan import cli
from tropfan.cli import EMIT_BATCH, NAMED_GRAPHS, _emit, main, resolve_graph

from oracles import fan_json_text, fan_to_json, make_cone


def oracle(fan: Fan, **fields) -> str:
    return json.dumps(dict(fan_to_json(fan), **fields), indent=2)


def assert_writes_like_oracle(fan: Fan):
    chunks = list(fan_json_chunks(fan))
    assert len(chunks) == len(fan.cones) + 2  # the header, one per cone, the close
    assert "".join(chunks) == fan_json_text(fan) == oracle(fan)
    # one level down, as the moduli document nests its two fans
    nested = json.dumps({"fan": fan_to_json(fan)}, indent=2)
    assert nested == '{\n  "fan": ' + fan_json_text(fan, 1) + "\n}"


@pytest.mark.parametrize("spec", [f"complete:{m}" for m in range(6)] + ["2-3"])
def test_bergman_fans(spec):
    assert_writes_like_oracle(bergman_fan(resolve_graph(spec)))


def test_extra_fields_follow_the_cones(k4):
    fan = bergman_fan(k4)
    assert fan_json_text(fan, balanced=True) == oracle(fan, balanced=True)
    assert fan_json_text(fan, balanced=False).endswith('  "balanced": false\n}')


def test_reweighted_fan(k4):
    fan = bergman_fan(k4)
    sigma = fan.cones_of_dim(fan.max_dim)[0]
    heavy = fan.with_weights({sigma.rayset: 2})
    assert '"weight": 2' in fan_json_text(heavy)
    assert_writes_like_oracle(heavy)


@pytest.mark.parametrize("step", [1, 3, 7])
def test_reweighted_k5_fans_keep_their_ray_ids(step):
    """Several cones of every dimension reweighted; the new fan shares the
    ray ids of the old one, which must still name each cone's rays."""
    fan = bergman_fan(Graph.complete(range(2, 7)))
    changed = fan.cones[1::step]
    heavy = fan.with_weights({c.rayset: 2 + i % 3 for i, c in enumerate(changed)})
    assert heavy._ray_ids is fan._ray_ids
    assert sum(c.weight > 1 for c in heavy.cones) == len(changed) > 10
    assert_writes_like_oracle(heavy)


@pytest.mark.parametrize("name", ["k4-minus-e25", "k4-minus-e35-e45", "k2-2"])
def test_projected_fans_with_merged_fibers(name):
    gamma = NAMED_GRAPHS[name]()
    projected = project_fan(bergman_fan(Graph.complete(gamma.labels)), gamma)
    assert max(len(c.provenance) for c in projected.cones) > 1
    assert_writes_like_oracle(projected)


def test_moduli_documents_match_the_dict_composition(capsys):
    written = 0
    for n in (4, 5, 6):
        for spec in ["complete", *NAMED_GRAPHS]:
            gamma = "complete" if spec == "complete" else NAMED_GRAPHS[spec]()
            try:
                fan = moduli_fan_rad(n, gamma)
            except ValueError:
                continue  # labels other than 2..n; the CLI exits 2
            target = gamma if isinstance(gamma, Graph) else Graph.complete(range(2, n + 1))
            doc = {
                "schema": 1,
                "n": n,
                "graph": [f"{a}-{b}" for a, b in target.edges],
                "radial_fan": fan_to_json(fan),
                "projected_fan": fan_to_json(project_fan(fan, target)),
            }
            assert main(["moduli", "--n", str(n), "--graph", spec, "--format", "json"]) == 0
            assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"
            written += 1
    assert written == 7


@st.composite
def small_graphs(draw):
    labels = sorted(draw(st.sets(st.integers(2, 6), min_size=1, max_size=5)))
    pairs = list(combinations(labels, 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(tuple(labels), tuple(sorted(edges)))


# no shrink phase: on a failing writer the shrinker ran unbounded
@settings(max_examples=60, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(small_graphs())
def test_random_small_graphs(g):
    assert_writes_like_oracle(bergman_fan(g))
    if g.edges:
        assert_writes_like_oracle(project_fan(bergman_fan(Graph.complete(g.labels)), g))


def test_fraction_coordinates_are_refused():
    """A Fraction never reaches the writer as a coordinate, since a cone
    refuses a Fraction ray; as a field value the writer refuses it with the
    encoder's TypeError."""
    ambient = ((2, 3), (2, 4), (3, 4))
    half = QuotientVector(ambient, (Fraction(1, 2), 0, 0))
    with pytest.raises(ValueError, match="integral"):
        make_cone([half])
    fan = Fan(ambient, [make_cone([QuotientVector(ambient, (1, 0, 0))])])
    with pytest.raises(TypeError):
        oracle(fan, balanced=Fraction(1, 2))
    with pytest.raises(TypeError):
        fan_json_text(fan, balanced=Fraction(1, 2))


def test_fraction_field_is_refused_before_the_first_chunk(k4):
    """The fields are encoded on the call, so the CLI opens no output for a
    document it cannot finish."""
    with pytest.raises(TypeError):
        fan_json_chunks(bergman_fan(k4), balanced=Fraction(1, 2))


def test_emit_writes_the_same_bytes_to_a_file_and_to_stdout(k4, tmp_path, capsys):
    """K4's document, whole and in chunks that fit one batch; K6's chunks,
    which span several batches; and a stream with runs of empty chunks
    longer than a batch, which must not end the stream."""
    fan = bergman_fan(k4)
    k6 = bergman_fan(Graph.complete(range(2, 8)))
    assert len(list(fan_json_chunks(fan))) < EMIT_BATCH < 3 * EMIT_BATCH < sum(k6.census())
    gaps = ["a", *[""] * (2 * EMIT_BATCH), "b", *[""] * EMIT_BATCH, "c", ""]
    inputs = [
        (lambda: fan_json_chunks(fan, balanced=True), oracle(fan, balanced=True)),
        (lambda: oracle(fan, balanced=True), oracle(fan, balanced=True)),
        (lambda: fan_json_chunks(k6, balanced=True), fan_json_text(k6, balanced=True)),
        (lambda: iter(gaps), "abc"),
    ]
    target = tmp_path / "fan.json"
    for make, text in inputs:
        expected = (text + "\n").encode()
        _emit(make(), str(target))
        _emit(make(), None)
        assert target.read_bytes() == capsys.readouterr().out.encode() == expected


def test_closed_stdout_exits_1_with_no_traceback():
    """``tropfan fan ... | head -c 100``: the reader closes the pipe while
    K6's document (about 4 MB, far beyond a pipe's buffer) is still being
    written, and the CLI exits with status 1 and writes nothing to stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}
    argv = [sys.executable, "-m", "tropfan.cli", "fan", "--graph", "complete:6", "--format", "json"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.read(100).startswith(b'{\n  "schema": 1,')
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == b""


def test_streamed_k6_document_is_never_held_whole(tmp_path):
    """Writing K6's fan document (about 4 MB) to a file allocates, beyond
    the built fan, less than a quarter of its size at any moment: no chunk
    list, cone block or whole document is joined (a joined document peaks
    above twice its size)."""
    fan = bergman_fan(Graph.complete(range(2, 8)))
    target = tmp_path / "k6.json"
    tracemalloc.start()
    try:
        _emit(fan_json_chunks(fan, balanced=True), str(target))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = target.stat().st_size
    assert size > 3_000_000
    assert peak < size / 4, (peak, size)


def traced_peak(write) -> int:
    """The traced peak of ``write()``, with the cycle collector off, so no
    collection at a varying moment lowers it."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()


def test_identity_project_document_costs_what_the_fan_document_does(tmp_path):
    """``project --graph complete:6 --format json`` peaks within 10 % of
    ``fan --graph complete:6 --format json``, in process, each run once
    untraced first: the identity image shares the K6 fan's columns, and
    only its weights column is new (about 2.3 MB each; an image rebuilt row
    by row peaked at 5.8 MB)."""

    def run(command):
        return main([command, "--graph", "complete:6", "--format", "json", "-o", str(tmp_path / command)])

    assert run("fan") == run("project") == 0
    fan_peak, project_peak = traced_peak(lambda: run("fan")), traced_peak(lambda: run("project"))
    assert project_peak < 1.1 * fan_peak, (project_peak, fan_peak)


@pytest.mark.parametrize(
    "argv",
    [
        ["fan", "--graph", "k4"],
        ["moduli", "--n", "5", "--graph", "k4-minus-e35-e45"],
        ["project", "--graph", "k2-2"],
    ],
)
def test_cli_documents_bypass_the_json_encoder(argv, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("json encoder called")

    monkeypatch.setattr(json, "dumps", refuse)
    monkeypatch.setattr(json.JSONEncoder, "iterencode", refuse)
    assert main(argv + ["--format", "json"]) == 0
    assert capsys.readouterr().out.startswith("{\n")
