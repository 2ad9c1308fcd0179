import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropfan import (
    EdgeSet,
    Graph,
    all_graphs,
    components,
    graph_rank,
    is_complete_multipartite,
    parse_graph,
    spanning_forest,
)

from oracles import complement, connected_graphs_by_filter


# ---------------------------------------------------------------------------
# Independent oracles


def nx_graph(g: Graph, s: EdgeSet) -> nx.Graph:
    h = nx.Graph()
    h.add_edges_from(s.edges)
    return h


def is_forest(edges) -> bool:
    if not edges:
        return True
    return nx.is_forest(nx.Graph(list(edges)))


def rank_oracle(g: Graph, s: EdgeSet) -> int:
    """Definitional rank: the largest forest inside s, via networkx."""
    edges = s.edges
    for size in range(len(edges), -1, -1):
        for sub in itertools.combinations(edges, size):
            if is_forest(sub):
                return size
    return 0


def adjacent(g: Graph, a: int, b: int) -> bool:
    return (min(a, b), max(a, b)) in g.edge_index


def multipartite_oracle_partition(g: Graph) -> bool:
    """Non-adjacency must be an equivalence relation (transitivity is the
    only part at stake)."""
    for a, b, c in itertools.permutations(g.labels, 3):
        if not adjacent(g, a, b) and not adjacent(g, b, c) and adjacent(g, a, c):
            return False
    return True


def multipartite_oracle_extension(g: Graph) -> bool:
    """Every edge extends: for an edge ij and any other vertex k, ik or jk."""
    for (i, j) in g.edges:
        for k in g.labels:
            if k in (i, j):
                continue
            if not adjacent(g, i, k) and not adjacent(g, j, k):
                return False
    return True


# ---------------------------------------------------------------------------
# Parsing


def test_parse_triangle():
    g = parse_graph("2-3\n2-4\n3-4")
    assert g.labels == (2, 3, 4)
    assert g.edges == ((2, 3), (2, 4), (3, 4))


def test_parse_rejects_loop():
    with pytest.raises(ValueError, match="loop"):
        parse_graph("2-2")


def test_parse_rejects_duplicate():
    with pytest.raises(ValueError, match="duplicate"):
        parse_graph("2-3\n3-2")


def test_parse_rejects_garbage():
    with pytest.raises(ValueError, match="malformed"):
        parse_graph("2-3\nnot an edge")


def test_parse_labeled_k4():
    text = "2-3\n2-4\n2-5\n3-4\n3-5\n4-5"
    assert parse_graph(text) == Graph.complete([2, 3, 4, 5])


def test_parse_isolated_vertices():
    g = parse_graph("vertices: 7 9\n2-3")
    assert g.labels == (2, 3, 7, 9)
    assert g.edges == ((2, 3),)


# ---------------------------------------------------------------------------
# Rank, forests, components


def test_rank_disconnected_flat(k4):
    s = EdgeSet.from_edges(k4, [(2, 3), (4, 5)])
    assert graph_rank(k4, s) == 2


def test_rank_empty(k4):
    assert graph_rank(k4, EdgeSet(k4, 0)) == 0


def test_rank_connected_flat(k4):
    assert graph_rank(k4, EdgeSet.from_edges(k4, [(2, 3), (2, 4), (3, 4)])) == 2


def test_spanning_forest_triangle():
    g = parse_graph("2-3\n2-4\n3-4")
    forest = spanning_forest(g, g.full_edge_set())
    assert forest.edges == ((2, 3), (2, 4))
    h = nx.Graph(list(forest.edges))
    assert nx.is_forest(h)
    assert all(
        not nx.is_forest(nx.Graph(list(forest.edges) + [e]))
        for e in g.edges
        if e not in forest.edges
    )


def test_spanning_forest_fixes_forests(k4):
    s = EdgeSet.from_edges(k4, [(2, 3), (4, 5)])
    assert spanning_forest(k4, s) == s


def test_spanning_forest_k4_is_spanning_tree(k4):
    forest = spanning_forest(k4, k4.full_edge_set())
    assert forest.mask.bit_count() == 3 == rank_oracle(k4, k4.full_edge_set())


def test_components(k4):
    assert components(k4, EdgeSet.from_edges(k4, [(2, 3), (4, 5)])) == [(2, 3), (4, 5)]
    assert components(k4, EdgeSet(k4, 0)) == []
    assert components(k4, EdgeSet.from_edges(k4, [(2, 3), (3, 4)])) == [(2, 3, 4)]


def test_rank_against_definitional_oracle():
    for g in all_graphs((2, 3, 4, 5)):
        for mask in range(1 << len(g.edges)):
            s = EdgeSet(g, mask)
            assert graph_rank(g, s) == rank_oracle(g, s)


@settings(max_examples=200)
@given(data=st.data())
def test_rank_equals_forest_size(data):
    labels = tuple(range(2, 2 + data.draw(st.integers(3, 6))))
    pool = list(itertools.combinations(labels, 2))
    edges = tuple(sorted(data.draw(st.sets(st.sampled_from(pool)))))
    g = Graph(labels, edges)
    mask = data.draw(st.integers(0, (1 << len(edges)) - 1))
    s = EdgeSet(g, mask)
    assert graph_rank(g, s) == spanning_forest(g, s).mask.bit_count()


# ---------------------------------------------------------------------------
# Equal ranks iff a common spanning forest


def test_equal_rank_iff_common_spanning_forest():
    g = Graph.complete([2, 3, 4, 5])
    full = g.full_edge_set()
    for mask in range(1 << len(g.edges)):
        s = EdgeSet(g, mask)
        if mask.bit_count() > 6:
            continue
        equal_rank = graph_rank(g, s) == graph_rank(g, full)
        shares = any(
            nx.is_forest(nx.Graph(list(sub)))
            and len(sub) == graph_rank(g, full)
            and all(e in s.edges for e in sub)
            for sub in itertools.combinations(g.edges, graph_rank(g, full))
        )
        assert equal_rank == shares


# ---------------------------------------------------------------------------
# Complete multipartiteness


def test_k4_is_multipartite(k4):
    assert is_complete_multipartite(k4) == (True, None)


def test_k4_minus_two_adjacent_edges_is_not(gamma_obstruction):
    ok, witness = is_complete_multipartite(gamma_obstruction)
    assert not ok
    assert witness == (3, 4, 5)


def test_star_is_multipartite():
    g = Graph.from_edges([(2, 4), (2, 5)])
    assert is_complete_multipartite(g)[0]


def test_three_characterizations_agree_exhaustively():
    for nv in (1, 2, 3, 4, 5, 6):
        for g in all_graphs(tuple(range(2, 2 + nv))):
            a = is_complete_multipartite(g)[0]
            b = multipartite_oracle_partition(g)
            c = multipartite_oracle_extension(g)
            assert a == b == c, g


def test_multipartite_witness_matches_triple_count_exhaustively():
    """Verdict and witness equal the definition read edge by edge: the first
    triple, in label order, that induces exactly one edge.  Every graph on
    0 to 6 labels; the labels have gaps, so a label and its position in
    the label tuple differ."""
    for size in range(7):
        for g in all_graphs((0, 3, 4, 9, 10, 17)[:size]):
            triple = next(
                (
                    t
                    for t in itertools.combinations(g.labels, 3)
                    if sum(e in g.edge_index for e in itertools.combinations(t, 2)) == 1
                ),
                None,
            )
            assert is_complete_multipartite(g) == (triple is None, triple), g.edges


def test_multipartite_complement_is_cluster_graph():
    for g in all_graphs((2, 3, 4, 5)):
        if not is_complete_multipartite(g)[0]:
            continue
        comp = complement(g)
        # each component of the complement must be a clique
        for block in components(comp, comp.full_edge_set()):
            for a, b in itertools.combinations(block, 2):
                assert (a, b) in comp.edge_index


# ---------------------------------------------------------------------------
# Helpers


def test_is_connected_matches_networkx():
    """Every labeled graph on 0 to 5 labels, isolated vertices included."""
    for size in range(6):
        labels = range(2, 2 + size)
        for g in all_graphs(labels):
            h = nx.Graph()
            h.add_nodes_from(labels)
            h.add_edges_from(g.edges)
            expected = size == 0 or nx.is_connected(h)  # networkx refuses no nodes
            assert g.is_connected == expected, g
    assert Graph((), ()).is_connected
    assert Graph((7,), ()).is_connected
    assert not Graph((2, 3, 4), ((2, 3),)).is_connected


def test_connectivity_on_bitmasks_matches_graph_rank():
    """``is_connected`` and ``all_graphs(connected=True)``, which test
    adjacency bitmasks, against the spanning forest's size on every graph
    with up to 5 labels: a graph is connected when its rank is one less
    than its label count.  The connected graphs keep the order of all."""
    for size in range(6):
        labels = range(2, 2 + size)
        graphs = list(all_graphs(labels))
        spans = [size == 0 or graph_rank(g, g.full_edge_set()) == size - 1 for g in graphs]
        assert [g.is_connected for g in graphs] == spans
        assert list(all_graphs(labels, connected=True)) == [
            g for g, ok in zip(graphs, spans) if ok
        ]
    assert [len(list(all_graphs(range(2, 2 + k), connected=True))) for k in range(6)] == [
        1, 1, 1, 4, 38, 728,
    ]


def test_connected_sweep_hands_each_graph_its_masks():
    """Every connected graph on up to 6 labels comes with the adjacency
    masks and connectivity verdict that a fresh ``Graph`` would compute,
    and the sweep yields the graphs that filtering every edge subset
    keeps, in its order (27,477 graphs).  Without ``connected``, every
    graph on up to 5 labels comes with its fresh adjacency masks."""
    for k in range(7):
        labels = range(2, 2 + k)
        graphs = list(all_graphs(labels, connected=True))
        for g in graphs:
            assert g.adjacency == Graph(g.labels, g.edges).adjacency, g.edges
            assert g.is_connected, g.edges
        assert [g.edges for g in graphs] == [g.edges for g in connected_graphs_by_filter(labels)]
        if k < 6:
            for g in all_graphs(labels):
                assert g.adjacency == Graph(g.labels, g.edges).adjacency, g.edges


def test_edge_set_ops(k4):
    """Edge sets combine through their masks, which name their edges."""
    a = EdgeSet.from_edges(k4, [(2, 3), (4, 5)])
    b = EdgeSet.from_edges(k4, [(2, 3)])
    assert b.mask & ~a.mask == 0 and b.mask != a.mask
    assert EdgeSet(k4, a.mask & ~b.mask).edges == ((4, 5),)
    assert EdgeSet(k4, a.mask & b.mask) == b
    assert EdgeSet(k4, a.mask | b.mask) == a
    assert b.mask >> k4.edge_index[(2, 3)] & 1 and not b.mask >> k4.edge_index[(4, 5)] & 1
