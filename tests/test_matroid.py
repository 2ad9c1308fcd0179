import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropfan import (
    ChainOfFlats,
    EdgeSet,
    Flat,
    FlatLattice,
    Graph,
    all_chains,
    all_graphs,
    bases,
    circuits,
    closure,
    closure_table,
    components,
    enumerate_flats,
    graph_rank,
    independent_sets,
    rank_table,
    spanning_forest,
)
from conftest import flat_of
from oracles import (
    _cluster_mask,
    _union_find,
    components_by_union_find,
    is_acyclic,
    lattice_by_pairs,
    presentations_by_union_find,
)


def bell_oracle(m: int) -> int:
    """Bell numbers by the triangle recurrence."""
    row = [1]
    for _ in range(m - 1):
        new = [row[-1]]
        for x in row:
            new.append(new[-1] + x)
        row = new
    return row[-1] if m else 1


def closed_sets_oracle(g: Graph) -> set[tuple]:
    """Flats found definitionally: subsets where every new edge raises rank."""
    out = set()
    for mask in range(1 << len(g.edges)):
        s = EdgeSet(g, mask)
        r = graph_rank(g, s)
        if all(
            graph_rank(g, EdgeSet(g, mask | 1 << i)) == r + 1
            for i in range(len(g.edges))
            if not mask >> i & 1
        ):
            out.add(s.edges)
    return out


# ---------------------------------------------------------------------------
# Flats derive their blocks


def test_flat_refuses_an_edge_set_that_is_not_closed(k4):
    with pytest.raises(ValueError, match="closed"):
        Flat(EdgeSet.from_edges(k4, [(2, 3), (2, 4)]))


def test_flat_accepts_exactly_the_closed_edge_sets():
    """Every edge set of every graph on at most 4 labels: ``Flat`` accepts
    it exactly when adding any other edge raises the rank."""
    for k in range(5):
        for g in all_graphs(range(2, 2 + k)):
            closed = closed_sets_oracle(g)
            for mask in range(1 << len(g.edges)):
                s = EdgeSet(g, mask)
                if s.edges in closed:
                    assert Flat(s).edges == s
                else:
                    with pytest.raises(ValueError, match="closed"):
                        Flat(s)


def test_flat_rebuilt_from_its_edges_is_the_same_flat():
    """For every flat of every graph on at most 5 labels, ``Flat(f.edges)``
    equals f with the same blocks and rank, and the blocks are the vertex
    sets of the edge set's components with at least one edge (networkx)."""
    for k in range(6):
        for g in all_graphs(range(2, 2 + k)):
            for f in enumerate_flats(g):
                again = Flat(f.edges)
                assert again == f and hash(again) == hash(f)
                assert again.blocks == f.blocks and again.rank == f.rank
                parts = nx.connected_components(nx.Graph(list(f.edges.edges)))
                assert f.blocks == tuple(sorted(tuple(sorted(c)) for c in parts))
                assert f.rank == graph_rank(g, f.edges)


# ---------------------------------------------------------------------------
# The bitmask component route against the union-find


def assert_route_matches_union_find(g: Graph, s: EdgeSet):
    """Components, rank, spanning forest and closure of ``s``, with the
    closure's blocks, against the union-find oracle; ``Flat`` refuses
    ``s`` exactly when the oracle's closure differs from it."""
    blocks = components_by_union_find(g, s)
    forest = _union_find(g, s)[1]
    assert components(g, s) == blocks, (g.edges, s.mask)
    assert graph_rank(g, s) == forest.bit_count(), (g.edges, s.mask)
    assert spanning_forest(g, s) == EdgeSet(g, forest), (g.edges, s.mask)
    closed = closure(g, s)
    assert closed.mask == _cluster_mask(g, blocks), (g.edges, s.mask)
    assert list(closed.blocks) == blocks, (g.edges, s.mask)
    if closed.mask != s.mask:
        with pytest.raises(ValueError, match="closed"):
            Flat(s)


def test_bitmask_route_matches_union_find_up_to_five_labels():
    """Every edge mask of every graph on at most 5 labels, and the five
    presentations of each graph, which read one subset table, against
    one union-find per subset."""
    for k in range(6):
        for g in all_graphs(range(2, 2 + k)):
            got = independent_sets(g), bases(g), circuits(g), rank_table(g), closure_table(g)
            assert got == presentations_by_union_find(g), g.edges
            for mask in range(1 << len(g.edges)):
                assert_route_matches_union_find(g, EdgeSet(g, mask))


@pytest.mark.parametrize("size", [8, 10])
def test_bitmask_route_matches_union_find_on_random_graphs(size):
    """Seeded random graphs on 8 and 10 labels, each edge present with a
    density drawn per graph, on sampled edge masks (the full and empty
    ones included)."""
    rng = random.Random(size)
    labels = tuple(range(2, 2 + size))
    pool = list(itertools.combinations(labels, 2))
    for _ in range(30):
        density = rng.random()
        g = Graph(labels, tuple(e for e in pool if rng.random() < density))
        masks = [0, (1 << len(g.edges)) - 1] + [rng.getrandbits(len(g.edges)) for _ in range(40)]
        for mask in masks:
            assert_route_matches_union_find(g, EdgeSet(g, mask))


# ---------------------------------------------------------------------------
# Independence and rank


def test_empty_is_independent(k4):
    assert is_acyclic(k4, EdgeSet(k4, 0))


def test_triangle_is_dependent(k4):
    assert not is_acyclic(k4, EdgeSet.from_edges(k4, [(2, 3), (2, 4), (3, 4)]))


def test_disjoint_edges_independent(k4):
    assert is_acyclic(k4, EdgeSet.from_edges(k4, [(2, 3), (4, 5)]))


def test_rank_examples(k4):
    assert graph_rank(k4, k4.full_edge_set()) == 3
    assert graph_rank(k4, EdgeSet.from_edges(k4, [(2, 5), (3, 4)])) == 2
    assert graph_rank(k4, EdgeSet(k4, 0)) == 0


def test_rank_is_definitional_max(k4):
    for mask in range(1 << 6):
        s = EdgeSet(k4, mask)
        definitional = max(
            len(sub)
            for r in range(mask.bit_count() + 1)
            for sub in itertools.combinations(range(6), r)
            if all(mask >> i & 1 for i in sub)
            and is_acyclic(k4, EdgeSet(k4, sum(1 << i for i in sub)))
        )
        assert graph_rank(k4, s) == definitional


# ---------------------------------------------------------------------------
# Closure


def test_closure_completes_component(k4, k4_flat_labels):
    got = closure(k4, EdgeSet.from_edges(k4, [(2, 3), (2, 4)]))
    assert got == k4_flat_labels[7]


def test_closure_is_idempotent_on_flats(k4):
    for f in enumerate_flats(k4):
        assert closure(k4, f.edges) == f


def test_closure_in_subgraph_restricts():
    gamma = Graph.from_edges([(2, 3), (2, 4), (2, 5), (3, 4), (3, 5)])  # K4 minus 4-5
    s = EdgeSet.from_edges(gamma, [(2, 4), (2, 5)])
    got = closure(gamma, s)
    assert got.edges.edges == ((2, 4), (2, 5))
    # oracle: no addable edge preserves rank
    r = graph_rank(gamma, got.edges)
    for e in gamma.edges:
        if e not in got.edges.edges:
            grown = EdgeSet(gamma, got.mask | 1 << gamma.edge_index[e])
            assert graph_rank(gamma, grown) == r + 1


@settings(max_examples=150)
@given(data=st.data())
def test_closure_properties_random(data):
    g = Graph.complete(range(2, 2 + data.draw(st.integers(3, 5))))
    nedges = len(g.edges)
    x = EdgeSet(g, data.draw(st.integers(0, (1 << nedges) - 1)))
    y = EdgeSet(g, x.mask & data.draw(st.integers(0, (1 << nedges) - 1)))
    cx, cy = closure(g, x), closure(g, y)
    assert x.mask & ~cx.mask == 0  # extensive
    assert cy.mask & ~cx.mask == 0  # monotone
    assert closure(g, cx.edges) == cx  # idempotent
    assert graph_rank(g, cx.edges) == graph_rank(g, x)


# ---------------------------------------------------------------------------
# Flat enumeration


def test_k4_flat_census(k4):
    flats = enumerate_flats(k4)
    by_rank = [sum(1 for f in flats if f.rank == r) for r in range(4)]
    assert by_rank == [1, 6, 7, 1]


def test_k4_minus_e25_flat_census():
    g = Graph.from_edges([(2, 3), (2, 4), (3, 4), (3, 5), (4, 5)])
    flats = enumerate_flats(g)
    by_rank = [sum(1 for f in flats if f.rank == r) for r in range(4)]
    assert by_rank == [1, 5, 6, 1]


def test_single_edge_graph_flats():
    g = Graph.from_edges([(2, 3)])
    assert [f.edges.edges for f in enumerate_flats(g)] == [(), ((2, 3),)]


def test_complete_graph_flats_are_bell_numbers():
    for m in (3, 4, 5):
        g = Graph.complete(range(2, m + 2))
        assert len(enumerate_flats(g)) == bell_oracle(m)


def test_flats_match_definitional_closed_sets():
    for g in all_graphs((2, 3, 4, 5)):
        got = {f.edges.edges for f in enumerate_flats(g)}
        assert got == closed_sets_oracle(g)


def test_flats_of_subgraph_are_restrictions():
    for labels in [(2, 3, 4, 5), (2, 3, 4, 5, 6)]:
        ambient = Graph.complete(labels)
        ambient_flats = [set(f.edges.edges) for f in enumerate_flats(ambient)]
        for g in all_graphs(labels):
            own = {f.edges.edges for f in enumerate_flats(g)}
            restricted = {
                tuple(sorted(fl & set(g.edges))) for fl in ambient_flats
            }
            assert own == restricted


def test_enumeration_size_cap():
    with pytest.raises(ValueError, match="capped"):
        enumerate_flats(Graph.complete(range(2, 14)))


# ---------------------------------------------------------------------------
# Lattice of flats


def test_k4_lattice_covers_of_f1(k4, k4_flat_labels):
    lattice = FlatLattice(k4)
    ups = {lattice.flats[b] for b in lattice.covers[lattice.index[k4_flat_labels[1].mask]]}
    assert ups == {k4_flat_labels[7], k4_flat_labels[8], k4_flat_labels[11]}


def test_bottom_covers_are_rank_one(k4):
    lattice = FlatLattice(k4)
    bottom = [f for f in enumerate_flats(k4) if f.rank == 0][0]
    ups = [lattice.flats[b] for b in lattice.covers[lattice.index[bottom.mask]]]
    assert len(ups) == 6 and all(b.rank == 1 for b in ups)


def test_lattice_is_transitive_reduction(k4):
    flats = enumerate_flats(k4)
    dag = nx.DiGraph()
    dag.add_nodes_from(range(len(flats)))
    for i, a in enumerate(flats):
        for j, b in enumerate(flats):
            if a != b and a.mask & ~b.mask == 0:
                dag.add_edge(i, j)
    reduction = nx.transitive_reduction(dag)
    lattice = FlatLattice(k4)
    got = {
        (flats.index(lattice.flats[a]), flats.index(lattice.flats[b]))
        for a, above in enumerate(lattice.covers)
        for b in above
    }
    assert got == set(reduction.edges())


def test_lattice_covers_match_pair_scan():
    """Covers read off block merges are the containments that raise the
    rank by one, in the same order, on every graph with at most five
    vertices and on K6."""
    graphs = [g for nv in range(6) for g in all_graphs(range(2, 2 + nv))]
    for g in graphs + [Graph.complete(range(2, 8))]:
        lattice = FlatLattice(g)
        flats = lattice.flats
        assert flats == enumerate_flats(g), g
        pairs = [(flats[a], flats[b]) for a, above in enumerate(lattice.covers) for b in above]
        assert pairs == lattice_by_pairs(g), g


# ---------------------------------------------------------------------------
# Chains


def test_chain_counts_k4(k4):
    lengths = [len(c) for c in all_chains(k4)]
    assert lengths.count(1) == 13
    assert lengths.count(2) == 18
    assert lengths.count(4) == 0


def test_chain_validation(k4, k4_flat_labels):
    with pytest.raises(ValueError, match="strictly increase"):
        ChainOfFlats((k4_flat_labels[7], k4_flat_labels[1]))
    # a repeated flat fails the containment test
    with pytest.raises(ValueError, match="^chain must strictly increase$"):
        ChainOfFlats((k4_flat_labels[1], k4_flat_labels[1]))
    with pytest.raises(ValueError, match="proper"):
        ChainOfFlats((flat_of(k4, []),))
    other = Graph.complete([2, 3, 4])
    with pytest.raises(ValueError):
        ChainOfFlats((flat_of(other, [(2, 3)]), k4_flat_labels[7]))
    ChainOfFlats((k4_flat_labels[1], k4_flat_labels[7]))  # fine


def test_chain_validation_reports_a_bad_flat_before_a_bad_pair(k4, k4_flat_labels):
    """A chain with several faults raises the same error whatever order the
    checks read its flats in: an improper flat anywhere first, then the
    first bad pair, a foreign graph before a failed containment."""
    f1, f7 = k4_flat_labels[1], k4_flat_labels[7]
    with pytest.raises(ValueError, match="proper"):
        ChainOfFlats((f7, f1, flat_of(k4, [])))
    k3_flat = flat_of(Graph.complete([2, 3, 4]), [(2, 3)])
    with pytest.raises(ValueError, match="share a parent graph"):
        ChainOfFlats((k3_flat, f1, f1))
    with pytest.raises(ValueError, match="strictly increase"):
        ChainOfFlats((f7, f1, k3_flat))


def test_all_chains_counts(k4):
    chains = list(all_chains(k4))
    assert sum(1 for c in chains if len(c) == 0) == 1
    assert len(chains) == 1 + 13 + 18


def test_chains_are_deterministic(k4):
    once = [tuple(f.edges.edges for f in c) for c in all_chains(k4)]
    again = [tuple(f.edges.edges for f in c) for c in all_chains(k4)]
    assert once == again
    assert len(set(once)) == len(once)
