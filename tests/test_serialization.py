import json

from hypothesis import given, settings
from hypothesis import strategies as st

from tropfan import (
    Graph,
    all_chains,
    chain_to_json,
    enumerate_types,
    psi_cof_to_radial,
    radial_alignments,
    radial_from_json,
    radial_to_json,
    tropical_type,
    type_from_json,
    type_to_json,
)


def test_type_round_trip():
    t = tropical_type(6, [frozenset({2, 3}), frozenset({4, 5, 6}), frozenset({5, 6})])
    doc = type_to_json(t)
    assert doc["ends"] == 6
    assert doc["ends_at"]["1"] == 0
    assert type_from_json(json.loads(json.dumps(doc))) == t


def test_type_round_trip_all_n5():
    for d, ts in enumerate_types(5).items():
        for t in ts:
            assert type_from_json(type_to_json(t)) == t


def test_radial_round_trip():
    t = tropical_type(7, [frozenset({2, 3}), frozenset({4, 5}), frozenset({6, 7})])
    for rt in radial_alignments(t):
        doc = radial_to_json(rt)
        assert len(doc["levels"]) == rt.num_levels
        assert radial_from_json(json.loads(json.dumps(doc))) == rt


def test_foreign_vertex_numbering_is_tolerated():
    # the same tree with shuffled vertex ids and reversed edge orientation
    doc = {
        "ends": 5,
        "edges": [[7, 3], [3, 9]],
        "ends_at": {"1": 7, "2": 9, "3": 9, "4": 3, "5": 7},
    }
    t = type_from_json(doc)
    assert t == tropical_type(5, [frozenset({2, 3}), frozenset({2, 3, 4})])
    rdoc = dict(doc, levels=[[3], [9]])
    rt = radial_from_json(rdoc)
    assert [sorted(t.splits[v - 1]) for block in rt.levels for v in block] == [
        [2, 3, 4],
        [2, 3],
    ]


def test_chain_serialization(k4):
    chains = [c for c in all_chains(k4) if len(c) == 2]
    doc = chain_to_json(chains[0])
    assert doc == [["2-3"], ["2-3", "2-4", "3-4"]]
    rt = psi_cof_to_radial(chains[0])
    assert radial_from_json(radial_to_json(rt)) == rt


# ---------------------------------------------------------------------------
# Round trips on generated types, under any vertex numbering


@st.composite
def tropical_types(draw):
    """A type from a random laminar family: candidate splits are kept when
    compatible with every split kept so far."""
    n = draw(st.integers(4, 8))
    candidates = draw(
        st.lists(st.sets(st.integers(2, n), min_size=2, max_size=n - 2), max_size=8)
    )
    kept = []
    for s in map(frozenset, candidates):
        if all(s <= t or t <= s or not s & t for t in kept):
            kept.append(s)
    return tropical_type(n, kept)


def renumbered(draw, doc):
    """The same tree with fresh vertex ids and random edge orientations."""
    ids = sorted({v for e in doc["edges"] for v in e} | set(doc["ends_at"].values()))
    fresh = draw(st.lists(st.integers(0, 99), min_size=len(ids), max_size=len(ids), unique=True))
    new_id = dict(zip(ids, fresh))
    edges = []
    for u, v in doc["edges"]:
        edge = [new_id[u], new_id[v]]
        edges.append(edge[::-1] if draw(st.booleans()) else edge)
    out = dict(doc, edges=edges, ends_at={e: new_id[v] for e, v in doc["ends_at"].items()})
    if "levels" in doc:
        out["levels"] = [[new_id[v] for v in block] for block in doc["levels"]]
    return out


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_type_round_trip_fuzz(data):
    t = data.draw(tropical_types())
    doc = type_to_json(t)
    assert type_from_json(json.loads(json.dumps(doc))) == t
    assert type_from_json(renumbered(data.draw, doc)) == t


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_radial_round_trip_fuzz(data):
    rt = data.draw(tropical_types().map(radial_alignments).flatmap(st.sampled_from))
    doc = radial_to_json(rt)
    assert radial_from_json(json.loads(json.dumps(doc))) == rt
    assert radial_from_json(renumbered(data.draw, doc)) == rt
