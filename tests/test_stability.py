import itertools

import pytest

from tropfan import (
    Graph,
    all_graphs,
    enumerate_types,
    flat_gamma_stable,
    is_gamma_stable,
    reduce,
    star_type,
    tropical_type,
)

from oracles import contract_edge, vertex_stable


def k4_minus(*missing):
    edges = [e for e in itertools.combinations((2, 3, 4, 5), 2) if e not in missing]
    return Graph((2, 3, 4, 5), tuple(edges))


# ---------------------------------------------------------------------------
# Stability of types


def test_split_345_unstable_when_bottom_clique_removed():
    gamma = k4_minus((3, 4), (3, 5), (4, 5))
    t = tropical_type(5, [frozenset({3, 4, 5})])
    ok, vertex = is_gamma_stable(t, gamma)
    assert not ok and vertex == 1


def test_everything_stable_for_complete_graph(k4):
    for d, ts in enumerate_types(5).items():
        for t in ts:
            assert is_gamma_stable(t, k4)[0]


def test_split_34_stable_in_obstruction_graph(gamma_obstruction):
    t = tropical_type(5, [frozenset({3, 4})])
    assert is_gamma_stable(t, gamma_obstruction)[0]


def test_two_bounded_edge_vertex_needs_an_end(k4):
    # nested splits give the middle vertex one end, which suffices
    t = tropical_type(5, [frozenset({2, 3}), frozenset({2, 3, 4})])
    assert is_gamma_stable(t, k4)[0]


def stability_by_vertices(t, gamma):
    """(verdict, first unstable vertex) by the vertex-local rule."""
    unstable = [v for v in range(t.num_vertices) if not vertex_stable(t, gamma, v)]
    return (not unstable, unstable[0] if unstable else None)


def test_leaf_split_rule_matches_vertex_rule_exhaustive():
    for n in (4, 5, 6):
        types = [t for ts in enumerate_types(n).values() for t in ts]
        for gamma in all_graphs(range(2, n + 1), connected=True):
            for t in types:
                expected = stability_by_vertices(t, gamma)
                assert is_gamma_stable(t, gamma) == expected, (t.splits, gamma.edges)


def test_leaf_split_rule_matches_vertex_rule_seven_ends():
    # the graphs of test_chain_walk_matches_type_route_seven_ends
    path = Graph.from_edges([(2, 4), (4, 6), (6, 3), (3, 5), (5, 7)])
    types = [t for ts in enumerate_types(7).values() for t in ts]
    for gamma in (Graph.complete(range(2, 8)), path):
        verdicts = [is_gamma_stable(t, gamma) for t in types]
        assert verdicts == [stability_by_vertices(t, gamma) for t in types]
    # the path leaves some types unstable, so both verdicts are compared
    assert not all(ok for ok, _ in verdicts)


def test_stability_requires_matching_labels():
    t = star_type(5)
    with pytest.raises(ValueError, match="2..n"):
        is_gamma_stable(t, Graph.complete([2, 3, 4]))
    with pytest.raises(ValueError, match="connected"):
        is_gamma_stable(t, Graph((2, 3, 4, 5), ((2, 3),)))


def test_stable_type_counts_obstruction(gamma_obstruction):
    counts = {
        d: sum(1 for t in types if is_gamma_stable(t, gamma_obstruction)[0])
        for d, types in sorted(enumerate_types(5).items())
    }
    assert counts == {0: 1, 1: 8, 2: 9}


def test_stability_monotone_under_adding_edges():
    labels = (2, 3, 4, 5)
    types = [t for ts in enumerate_types(5).values() for t in ts]
    for small in all_graphs(labels, connected=True):
        extra = [e for e in itertools.combinations(labels, 2) if e not in small.edges]
        for e in extra:
            big = Graph(labels, tuple(sorted(small.edges + (e,))))
            for t in types:
                if is_gamma_stable(t, small)[0]:
                    assert is_gamma_stable(t, big)[0]


# ---------------------------------------------------------------------------
# Stability of flats


def test_flat_stability_examples(k4, k4_flat_labels, gamma_obstruction):
    assert flat_gamma_stable(k4_flat_labels[9], gamma_obstruction)  # 3-4 present
    gamma_no34 = k4_minus((3, 4))
    assert not flat_gamma_stable(k4_flat_labels[3], gamma_no34)
    for idx in range(1, 14):
        assert flat_gamma_stable(k4_flat_labels[idx], k4)


def test_flat_stability_matches_clique_criterion(k4, gamma_obstruction):
    from oracles import proper_flats

    for gamma in (gamma_obstruction, k4_minus((2, 5)), k4_minus((2, 5), (3, 4))):
        for f in proper_flats(k4):
            by_type = flat_gamma_stable(f, gamma)
            by_cliques = all(
                any(e in gamma.edge_index for e in itertools.combinations(block, 2))
                for block in f.blocks
            )
            assert by_type == by_cliques


# ---------------------------------------------------------------------------
# Reduction


def test_unstable_split_collapses_to_star():
    gamma = k4_minus((3, 4), (3, 5), (4, 5))
    t = tropical_type(5, [frozenset({3, 4, 5})])
    assert reduce(t, gamma) == star_type(5)


def test_reduce_fixes_stable_types(gamma_obstruction):
    for d, ts in enumerate_types(5).items():
        for t in ts:
            if is_gamma_stable(t, gamma_obstruction)[0]:
                assert reduce(t, gamma_obstruction) == t


def test_caterpillar_leaf_contraction():
    # leaf vertex {6,7} unstable when 6-7 is missing: one contraction step
    gamma = Graph.from_edges(
        [(2, 3), (3, 4), (4, 5), (5, 6), (6, 2), (2, 4), (3, 7), (7, 2)]
    )
    t = tropical_type(
        7, [frozenset({2, 3}), frozenset({2, 3, 4}), frozenset({2, 3, 4, 5})]
    )
    stable = reduce(t, gamma)
    assert stable == t  # caterpillar over edges of gamma is stable
    gamma_no23 = Graph.from_edges(
        [(3, 4), (4, 5), (5, 6), (6, 2), (2, 4), (3, 7), (7, 2)]
    )
    reduced = reduce(t, gamma_no23)
    assert frozenset({2, 3}) not in reduced.splits
    assert is_gamma_stable(reduced, gamma_no23)[0]


def all_reductions(t, gamma):
    """Every terminal type over every order of unstable-edge contractions."""
    stable, _ = is_gamma_stable(t, gamma)
    if stable:
        return {t}
    out = set()
    unstable = [
        v for v in range(t.num_vertices) if not vertex_stable(t, gamma, v)
    ]
    for v in unstable:
        for e in t.edges:
            if v in e:
                out |= all_reductions(contract_edge(t, e), gamma)
    return out


def test_reduction_confluence_exhaustive_four_vertices():
    types = [t for ts in enumerate_types(5).values() for t in ts]
    for gamma in all_graphs((2, 3, 4, 5), connected=True):
        for t in types:
            terminals = all_reductions(t, gamma)
            assert len(terminals) == 1
            assert terminals == {reduce(t, gamma)}


def test_reduction_confluence_exhaustive_five_vertices():
    types = [t for ts in enumerate_types(6).values() for t in ts]
    for gamma in all_graphs((2, 3, 4, 5, 6), connected=True):
        for t in types:
            terminals = all_reductions(t, gamma)
            assert len(terminals) == 1
            assert terminals == {reduce(t, gamma)}
