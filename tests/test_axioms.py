import random
from collections import Counter
from itertools import combinations

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

from oracles import circuits_by_ordered_pairs, circuits_by_pairs, rank_global_by_ordered_pairs


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


def subsets(ground) -> list[frozenset]:
    return [frozenset(c) for k in range(len(ground) + 1) for c in combinations(ground, k)]


def random_rank_tables(rng: random.Random, count: int) -> list[SetSystem]:
    """Rank tables on up to five elements: half grow by 0 or 1 over their
    largest one-smaller subset, so R1' and R2' hold and R3' is what can
    fail; the rest are arbitrary values from 0 to the set's size, plus one
    in every other table, so that R1' or R2' can fail first."""
    systems = []
    for i in range(count):
        ground = tuple("abcde"[: rng.randint(1, 5)])
        rank = {}
        for s in subsets(ground):
            if i % 2:
                rank[s] = rng.randint(0, len(s) + i % 4 // 3)
            else:
                below = max((rank[s - {x}] for x in s), default=0)
                rank[s] = below + (rng.random() < 0.5 if s else 0)
        systems.append(SetSystem(ground, rank=rank))
    return systems


def random_circuit_families(rng: random.Random, count: int) -> list[SetSystem]:
    """Families of nonempty subsets of up to five elements: half with
    their proper supersets dropped, so C1 holds and C2 is what can fail."""
    systems = []
    for i in range(count):
        ground = tuple("abcde"[: rng.randint(1, 5)])
        family = {s for s in subsets(ground) if s and rng.random() < 0.3}
        if i % 2 == 0:
            family = {s for s in family if not any(t < s for t in family)}
        systems.append(SetSystem(ground, members=tuple(sorted(family, key=sorted))))
    return systems


def test_unordered_scans_report_what_the_ordered_pair_scans_report():
    """R3' and C2 are symmetric and hold for a set paired with itself, so
    scanning each unordered pair once finds the same first counterexample
    as scanning every ordered pair: whole reports agree on seeded random
    rank tables and circuit families, failing ones included, and on every
    graph with at most four vertices."""
    rng = random.Random(20191)
    graphs = list(all_graphs((2, 3, 4, 5)))
    rank_systems = random_rank_tables(rng, 600)
    rank_systems += [SetSystem(tuple(g.edges), rank=rank_table(g)) for g in graphs]
    circuit_systems = random_circuit_families(rng, 600)
    circuit_systems += [SetSystem(tuple(g.edges), members=tuple(circuits(g))) for g in graphs]
    kinds = Counter()
    for system in rank_systems:
        report = verify_matroid_axioms(system, "R'")
        assert report == rank_global_by_ordered_pairs(system), system
        kinds[report.counterexample[0] if report.counterexample else "R' holds"] += 1
    for system in circuit_systems:
        report = verify_matroid_axioms(system, "C")
        assert report == circuits_by_ordered_pairs(system), system
        kinds[report.counterexample[0] if report.counterexample else "C holds"] += 1
    assert min(kinds[k] for k in ("R1'", "R2'", "R3'", "R' holds", "C1", "C2", "C holds")) >= 20, kinds
