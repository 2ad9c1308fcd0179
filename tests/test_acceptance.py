"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
All comparisons are exact (integer or rational arithmetic); each test also
holds itself to the criterion's wall-clock budget.
"""

import itertools
import random
import time
from fractions import Fraction

from tropfan import (
    Graph,
    MetricType,
    SetSystem,
    all_chains,
    all_graphs,
    bases,
    bergman_fan,
    circuits,
    closure_table,
    dist_vector,
    enumerate_flats,
    enumerate_types,
    fans_equal,
    independent_sets,
    is_balanced,
    is_gamma_stable,
    moduli_fan_rad,
    project_fan,
    project_vector,
    psi_cof_to_radial,
    psi_linear,
    psi_radial_to_cof,
    qn_relations_check,
    radial_alignments,
    radial_face_census,
    rank_table,
    ray_of_flat,
    rho_split,
    tropical_type,
    verify_injectivity,
    verify_matroid_axioms,
)
from tropfan.matroid import set_partitions

from oracles import solve_in_span


class budget:
    """Assert the body stays within the criterion's time budget."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.seconds, f"budget {self.seconds}s exceeded"
        return False


def report(number, text, timer):
    print(f"criterion {number}: PASS ({timer.elapsed:.2f}s) - {text}")


def bell_oracle(m):
    """Bell numbers by the binomial recurrence, independent of enumeration."""
    from math import comb

    b = [1]
    for n in range(m):
        b.append(sum(comb(n, k) * b[k] for k in range(n + 1)))
    return b[m]


def test_criterion_1_flat_censuses():
    with budget(1) as t:
        k4 = Graph.complete([2, 3, 4, 5])
        flats = enumerate_flats(k4)
        census = [sum(1 for f in flats if f.rank == r) for r in range(4)]
        assert census == [1, 6, 7, 1]
        g = Graph.from_edges([(2, 3), (2, 4), (3, 4), (3, 5), (4, 5)])
        flats = enumerate_flats(g)
        census2 = [sum(1 for f in flats if f.rank == r) for r in range(4)]
        assert census2 == [1, 5, 6, 1]
        bells = {}
        for m, expected in [(3, 5), (4, 15), (5, 52)]:
            got = len(enumerate_flats(Graph.complete(range(2, m + 2))))
            assert got == expected == bell_oracle(m)
            bells[m] = got
    report(1, f"censuses {census} and {census2}; Bell counts {bells}", t)


def test_criterion_2_petersen_structure():
    with budget(1) as t:
        types = enumerate_types(5)
        assert len(types[1]) == 10 and len(types[2]) == 15
        k4 = Graph.complete([2, 3, 4, 5])
        fan = bergman_fan(k4)
        assert len(fan.rays) == 13
        assert len(fan.cones_of_dim(2)) == 18
        moduli = moduli_fan_rad(5, "complete")
        assert fans_equal(moduli, fan)
    report(2, "10/15 trivalent census, 13/18 subdivided, fans equal", t)


def test_criterion_3_radial_subdivision_censuses():
    with budget(1) as t:
        six = tropical_type(
            6, [frozenset({2, 3}), frozenset({4, 5, 6}), frozenset({5, 6})]
        )
        census6 = radial_face_census(six)
        assert census6 == {0: 1, 1: 5, 2: 7, 3: 3}
        seven = tropical_type(
            7, [frozenset({2, 3}), frozenset({4, 5}), frozenset({6, 7})]
        )
        census7 = radial_face_census(seven)
        assert census7 == {0: 1, 1: 7, 2: 12, 3: 6}
        assert sum(census7.values()) == 26
    report(3, f"six-end cone {census6}, seven-end cone {census7}", t)


def test_criterion_4_bijection_round_trips():
    with budget(300) as t:
        totals = {}
        for n in (5, 6, 7):
            k = Graph.complete(range(2, n + 1))
            count = 0
            for chain in all_chains(k):
                if len(chain) == 0:
                    continue
                radial = psi_cof_to_radial(chain)
                assert radial.num_levels == len(chain)
                assert psi_radial_to_cof(radial) == chain
                count += 1
            back = 0
            for d, ts in sorted(enumerate_types(n).items()):
                for typ in ts:
                    for radial in radial_alignments(typ):
                        chain = psi_radial_to_cof(radial)
                        assert len(chain) == radial.num_levels
                        assert psi_cof_to_radial(chain, n=n) == radial
                        back += 1
            assert back == count + 1  # the star's empty chain
            totals[n] = count
    report(4, f"round trips over {totals} chains", t)


def test_criterion_5_obstruction_example():
    with budget(1) as t:
        gamma = Graph.from_edges([(2, 3), (2, 4), (2, 5), (3, 4)])
        types = enumerate_types(5)
        stable_counts = {
            d: sum(1 for c in ts if is_gamma_stable(c, gamma)[0])
            for d, ts in types.items()
        }
        assert stable_counts == {0: 1, 1: 8, 2: 9}
        fan = moduli_fan_rad(5, gamma)
        assert fan.census() == (1, 9, 10)
        projected = project_fan(fan, gamma)
        assert projected.census() == (1, 8, 9)
        k4 = Graph.complete([2, 3, 4, 5])
        f9 = next(
            f for f in enumerate_flats(k4) if f.edges.edges == ((3, 4), (3, 5), (4, 5))
        )
        collapsed = project_vector(ray_of_flat(f9, k4.edges), gamma)
        fiber = projected.cone_with_rayset(frozenset([collapsed])).provenance
        assert len(fiber) == 3
    report(5, "8/9 stable, 9/10 radial, 3 cones onto the collapsed ray", t)


def test_criterion_6_main_theorem():
    with budget(120) as t:
        totals = {}
        for nv in (4, 5):
            labels = tuple(range(2, 2 + nv))
            agree = 0
            for g in all_graphs(labels, connected=True):
                rep = verify_injectivity(g)
                assert rep.agree, g
                agree += 1
            totals[nv] = agree
        assert totals == {4: 38, 5: 728}
    report(6, f"trichotomy agrees on {totals} connected graphs", t)


def test_criterion_7_balancing():
    with budget(120) as t:
        for m in (3, 4, 5):
            fan = bergman_fan(Graph.complete(range(2, m + 2)))
            assert is_balanced(fan).balanced
            for sigma in fan.cones_of_dim(fan.max_dim):
                perturbed = fan.with_weights({sigma.rayset: 2})
                assert not is_balanced(perturbed).balanced
        checked = 0
        for labels in [(2, 3, 4), (2, 3, 4, 5), (2, 3, 4, 5, 6)]:
            for part in set_partitions(list(labels)):
                if len(part) < 2:
                    continue
                block_of = {v: i for i, b in enumerate(part) for v in b}
                edges = tuple(
                    e
                    for e in itertools.combinations(labels, 2)
                    if block_of[e[0]] != block_of[e[1]]
                )
                g = Graph(labels, edges)
                projected = project_fan(moduli_fan_rad(labels[-1], g), g)
                assert fans_equal(projected, bergman_fan(g))
                assert is_balanced(projected).balanced
                checked += 1
        assert checked == 4 + 14 + 51
    report(7, f"unit-weight balancing, all 201 perturbations break, {checked} multipartite image fans", t)


def test_criterion_8_axiom_suites():
    with budget(120) as t:
        graphs = 0
        for nv in (1, 2, 3, 4, 5):
            for g in all_graphs(tuple(range(2, 2 + nv))):
                ground = tuple(g.edges)
                systems = [
                    (SetSystem(ground, members=tuple(independent_sets(g))), "I"),
                    (SetSystem(ground, members=tuple(bases(g))), "B"),
                    (SetSystem(ground, rank=rank_table(g)), "R"),
                    (SetSystem(ground, rank=rank_table(g)), "R'"),
                    (SetSystem(ground, closure=closure_table(g)), "S"),
                    (SetSystem(ground, members=tuple(circuits(g))), "C"),
                ]
                for system, family in systems:
                    rep = verify_matroid_axioms(system, family, max_ground=10)
                    assert rep.holds, (g, family, rep)
                graphs += 1
        # mutation testing: deleting a nested independent set must be reported
        mutations = 0
        for g in all_graphs((2, 3, 4, 5)):
            members = independent_sets(g)
            victim = next(
                (s for s in members if s and any(s < b for b in members)), None
            )
            if victim is None:
                continue
            mutated = SetSystem(
                tuple(g.edges), members=tuple(s for s in members if s != victim)
            )
            rep = verify_matroid_axioms(mutated, "I")
            assert not rep.holds and rep.counterexample[0] == "I2"
            mutations += 1
        assert mutations > 30
    report(8, f"all families on {graphs} graphs; {mutations} mutations caught", t)


def test_criterion_9_pairwise_distance_relations():
    with budget(10) as t:
        for n in (4, 5, 6, 7):
            rep = qn_relations_check(n)
            assert rep.holds, (n, rep)
            total = None
            for pair in itertools.combinations(range(2, n + 1), 2):
                img = psi_linear(rho_split(n, pair))
                total = img if total is None else total + img
            assert total.is_zero
    report(9, "both ray relations and their image under the linear map, n=4..7", t)


def test_criterion_10_embedding_compatibility():
    with budget(60) as t:
        rng = random.Random(20250810)
        sampled = 0
        for n in (5, 6):
            k = Graph.complete(range(2, n + 1))
            for d, ts in sorted(enumerate_types(n).items()):
                for typ in ts:
                    for radial in radial_alignments(typ):
                        if radial.num_levels == 0:
                            continue
                        chain = psi_radial_to_cof(radial)
                        rays = [ray_of_flat(f, k.edges) for f in chain]
                        level = radial.level_of
                        for _ in range(100):
                            radii = [Fraction(0)]
                            for _lvl in range(radial.num_levels):
                                radii.append(
                                    radii[-1]
                                    + Fraction(rng.randint(1, 24), rng.randint(1, 4))
                                )
                            lengths = tuple(
                                radii[level[v]] - radii[level[u]]
                                for u, v in typ.edges
                            )
                            point = psi_linear(dist_vector(MetricType(typ, lengths)))
                            coeffs = solve_in_span(
                                [r.coords for r in rays], point.coords
                            )
                            assert coeffs is not None and all(c > 0 for c in coeffs)
                            sampled += 1
    report(10, f"{sampled} sampled metrics in their cones' relative interiors", t)
