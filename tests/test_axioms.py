import pytest

from tropfan import (
    Graph,
    SetSystem,
    all_graphs,
    bases,
    circuits,
    closure_table,
    independent_sets,
    rank_table,
    verify_matroid_axioms,
)

from oracles import circuits_by_pairs


def cycle_systems(g: Graph):
    ground = tuple(g.edges)
    return {
        "I": SetSystem(ground, members=tuple(independent_sets(g))),
        "B": SetSystem(ground, members=tuple(bases(g))),
        "R": SetSystem(ground, rank=rank_table(g)),
        "R'": SetSystem(ground, rank=rank_table(g)),
        "S": SetSystem(ground, closure=closure_table(g)),
        "C": SetSystem(ground, members=tuple(circuits(g))),
    }


def test_k3_independence_axioms():
    g = Graph.complete([2, 3, 4])
    report = verify_matroid_axioms(cycle_systems(g)["I"], "I")
    assert report.holds


def test_missing_subset_breaks_i2():
    system = SetSystem(("a", "b"), members=(frozenset(), frozenset({"a", "b"})))
    report = verify_matroid_axioms(system, "I")
    assert not report.holds
    # the canonically first counterexample: the superset with its first
    # missing subset
    assert report.counterexample == ("I2", ("a", "b"), ("a",))


def test_k4_circuits_are_triangles_and_c2_holds(k4):
    cs = circuits(k4)
    assert len(cs) == 7  # four triangles and three 4-cycles
    triangles = [c for c in cs if len(c) == 3]
    assert len(triangles) == 4
    report = verify_matroid_axioms(
        SetSystem(tuple(k4.edges), members=tuple(cs)), "C"
    )
    assert report.holds
    # the specific exchange: circuits through edge 2-3
    c1 = frozenset({(2, 3), (2, 4), (3, 4)})
    c2 = frozenset({(2, 3), (2, 5), (3, 5)})
    union_minus = (c1 | c2) - {(2, 3)}
    assert any(c <= union_minus for c in cs)


def test_all_graphs_up_to_four_vertices_pass_all_families():
    for g in all_graphs((2, 3, 4, 5)):
        for family, system in cycle_systems(g).items():
            report = verify_matroid_axioms(system, family)
            assert report.holds, (g, family, report)


def test_circuits_are_the_minimal_dependent_sets():
    """The one-edge-deletion test gives the pairwise definition's circuits,
    in the same order, on every graph with at most four vertices."""
    for nv in range(5):
        for g in all_graphs(range(2, 2 + nv)):
            assert circuits(g) == circuits_by_pairs(g), g


def test_mutation_deleting_independent_set_is_caught():
    g = Graph.complete([2, 3, 4])
    members = independent_sets(g)
    victim = next(s for s in members if len(s) == 1)
    mutated = tuple(s for s in members if s != victim)
    report = verify_matroid_axioms(SetSystem(tuple(g.edges), members=mutated), "I")
    assert not report.holds
    assert report.counterexample[0] == "I2"


def test_mutation_per_graph_on_four_vertices():
    for g in all_graphs((2, 3, 4, 5)):
        members = independent_sets(g)
        victim = next((s for s in members if s and any(s < t for t in members)), None)
        if victim is None:
            continue
        mutated = tuple(s for s in members if s != victim)
        report = verify_matroid_axioms(
            SetSystem(tuple(g.edges), members=mutated), "I"
        )
        assert not report.holds


def test_rank_table_must_be_total():
    with pytest.raises(ValueError, match="total"):
        verify_matroid_axioms(
            SetSystem(("a", "b"), rank={frozenset(): 0}), "R"
        )


def test_ground_size_cap():
    ground = tuple(range(9))
    with pytest.raises(ValueError, match="cap"):
        verify_matroid_axioms(SetSystem(ground, members=(frozenset(),)), "I")
    # the cap is adjustable for bigger desk-scale runs
    report = verify_matroid_axioms(
        SetSystem(ground, members=(frozenset(),)), "I", max_ground=9
    )
    assert report.holds  # the rank-zero matroid


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="axiom family"):
        verify_matroid_axioms(SetSystem((), members=(frozenset(),)), "X")


def test_broken_rank_axioms_detected():
    # rank jumping by two violates R2
    table = {
        frozenset(): 0,
        frozenset({"a"}): 2,
        frozenset({"b"}): 1,
        frozenset({"a", "b"}): 2,
    }
    report = verify_matroid_axioms(SetSystem(("a", "b"), rank=table), "R")
    assert not report.holds
    report = verify_matroid_axioms(SetSystem(("a", "b"), rank=table), "R'")
    assert not report.holds


def test_broken_closure_detected():
    table = {
        frozenset(): frozenset(),
        frozenset({"a"}): frozenset(),  # not extensive
        frozenset({"b"}): frozenset({"b"}),
        frozenset({"a", "b"}): frozenset({"a", "b"}),
    }
    report = verify_matroid_axioms(SetSystem(("a", "b"), closure=table), "S")
    assert not report.holds
    assert report.counterexample[0] == "S1"


def test_empty_bases_rejected():
    report = verify_matroid_axioms(SetSystem(("a",), members=()), "B")
    assert not report.holds
    assert report.counterexample == ("B-nonempty",)
