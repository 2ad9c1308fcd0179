"""The lattice of flats as one object: its columns from the walk over
vertex partitions, its covers and up-sets, the chain walk on them, the
census by a DP over them, and the balancing verdict read off its rank-2
intervals, each against a route that shares none of its code."""

import random
from itertools import combinations
from math import comb, factorial

import pytest

import tropfan.tropmoduli as tm
from tropfan import (
    ChainOfFlats,
    EdgeSet,
    Flat,
    FlatLattice,
    Graph,
    all_chains,
    all_graphs,
    bergman_fan,
    enumerate_flats,
    is_balanced,
    lattice_balanced,
    moduli_fan_rad,
)
from tropfan.cli import resolve_graph
from tropfan.matroid import _chains_in_cone_order

from oracles import (
    chains_in_cone_order,
    flats_by_dedupe,
    lattice_by_containment,
    pairwise_chain_walk,
    proper_flats,
    ray_order,
    stable_flats,
)


def small_graphs():
    """Every graph on at most five labels, then K6."""
    for nv in range(6):
        yield from all_graphs(range(2, 2 + nv))
    yield Graph.complete(range(2, 8))


def bits(positions) -> int:
    return sum(1 << i for i in positions)


def seven_end_stability_graphs():
    """The complete graph, K3,3, the path and the 6-cycle on 2..7."""
    labels = range(2, 8)
    return {
        "complete": Graph.complete(labels),
        "k33": Graph.from_edges([(a, b) for a in (2, 3, 4) for b in (5, 6, 7)], labels),
        "path": Graph.from_edges([(v, v + 1) for v in range(2, 7)], labels),
        "cycle": Graph.from_edges([(v, v + 1) for v in range(2, 7)] + [(2, 7)], labels),
    }


def random_graphs(num_labels: int, count: int, seed: int) -> list[Graph]:
    """``count`` graphs on labels 2.., each label pair an edge with
    probability one half."""
    rng = random.Random(seed)
    labels = tuple(range(2, 2 + num_labels))
    pairs = list(combinations(labels, 2))
    return [Graph(labels, tuple(e for e in pairs if rng.random() < 0.5)) for _ in range(count)]


def test_lattice_columns_covers_and_up_sets_match_the_dedupe_route():
    """The walk over vertex partitions that keeps those with connected
    blocks gives the masks, ranks and blocks of the flats that deduplicating
    every partition's cluster graph gives, in its order; the covers read
    off block merges and the up-sets ORed from them are the ones read off
    containment.  Every graph on at most five labels, K6 to K8, and seeded
    random graphs on 7 and 8 labels."""
    graphs = [g for nv in range(6) for g in all_graphs(range(2, 2 + nv))]
    graphs += [Graph.complete(range(2, m + 2)) for m in (6, 7, 8)]
    graphs += random_graphs(7, 6, 7) + random_graphs(8, 4, 8)
    for g in graphs:
        lattice = FlatLattice(g)
        flats = flats_by_dedupe(g)
        assert list(lattice.masks) == [f.mask for f in flats], g
        assert list(lattice.ranks) == [f.rank for f in flats], g
        position = {v: i for i, v in enumerate(g.labels)}
        blocks = [sorted(sum(1 << position[v] for v in b) for b in f.blocks) for f in flats]
        assert [sorted(b) for b in lattice.blocks] == blocks, g
        assert (lattice.covers, lattice.up) == lattice_by_containment(g, lattice.masks), g


def test_petersen_flats_match_the_dedupe_route():
    """The 8,581 flats of the Petersen graph, from the 115,975 partitions
    of its ten labels."""
    g = resolve_graph("petersen-check")
    assert enumerate_flats(g) == flats_by_dedupe(g)


def test_up_sets_are_the_strict_containments():
    """Bit j of ``up[i]`` is set exactly when flat i is a proper subset of
    flat j, and ``proper`` holds the nonempty flats other than E."""
    for g in small_graphs():
        lattice = FlatLattice(g)
        flats = lattice.flats
        for i, a in enumerate(flats):
            above = [j for j, b in enumerate(flats) if a != b and a.mask & ~b.mask == 0]
            assert lattice.up[i] == bits(above), (g, i)
        assert [flats[i] for i in range(len(flats)) if lattice.proper >> i & 1] == proper_flats(g)
        assert lattice.index == {f.mask: i for i, f in enumerate(flats)}


def walk_checked(lattice: FlatLattice, allowed: int, flats) -> list[ChainOfFlats]:
    """The walk's chains, after checking that the walk in ray order yields
    the oracle's chains sorted into cone order, as an exact sequence: its
    rays are the allowed flats' masks in the order of their rays'
    coordinates, each chain's masks are its flats' masks, ascending, and
    its ray ids their positions among the rays, ascending; each chain
    equals a validated chain of freshly built flats with the walk's masks."""
    g = lattice.graph
    rays, ids, masks = _chains_in_cone_order(lattice, allowed)
    expected = chains_in_cone_order(g, pairwise_chain_walk(flats))
    assert rays == [f.mask for f in ray_order(g, flats)]
    assert masks == tuple(tuple(f.mask for f in chain) for chain in expected)
    position = {x: i for i, x in enumerate(rays)}
    assert ids == tuple(tuple(sorted(position[x] for x in chain)) for chain in masks)
    chains = [ChainOfFlats(tuple(Flat(EdgeSet(g, m)) for m in chain)) for chain in masks]
    assert chains == expected
    return chains


def test_chain_walk_matches_pairwise_scan_on_small_graphs_and_k6():
    for g in small_graphs():
        lattice = FlatLattice(g)
        assert list(all_chains(g)) == walk_checked(lattice, lattice.proper, proper_flats(g))


def test_chain_walk_matches_pairwise_scan_on_stable_flats_of_seven_ends():
    lattice = tm._complete_lattice(7)
    for name, gamma in seven_end_stability_graphs().items():
        gmask = EdgeSet.from_edges(lattice.graph, gamma.edges).mask
        stable = stable_flats(7, gmask)
        allowed = bits(lattice.index[f.mask] for f in stable)
        assert allowed & ~lattice.proper == 0, name
        walk_checked(lattice, allowed, stable)


def test_census_matches_built_fans_k1_to_k7():
    """K7's fan takes about 5 s to build on a 2-core host."""
    for m in range(1, 8):
        g = Graph.complete(range(2, m + 2))
        lattice = FlatLattice(g)
        assert lattice.chain_census(lattice.proper) == bergman_fan(g, lattice).census(), m


def test_census_of_stable_flats_matches_moduli_fans():
    lattice = tm._complete_lattice(7)
    for name, gamma in seven_end_stability_graphs().items():
        gmask = EdgeSet.from_edges(lattice.graph, gamma.edges).mask
        allowed = bits(lattice.index[f.mask] for f in stable_flats(7, gmask))
        assert lattice.chain_census(allowed) == moduli_fan_rad(7, gamma).census(), name


def stirling2(n: int, k: int) -> int:
    """Stirling numbers of the second kind by the alternating sum."""
    return sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1)) // factorial(k)


def partition_chain_census(m: int) -> tuple[int, ...]:
    """Chains of proper flats of K_m by length, in closed form: a flat with
    a blocks coarsens to one with b < a blocks in S(a, b) ways, so the
    chains with block counts m > a_1 > ... > a_k > 1 number S(m, a_1)
    S(a_1, a_2) ... S(a_{k-1}, a_k)."""
    # ways[a][k]: chains of k proper flats whose last flat has a blocks
    ways = {m: {0: 1}}
    for a in range(m - 1, 1, -1):
        ways[a] = {}
        for above in range(a + 1, m + 1):
            for k, w in ways[above].items():
                ways[a][k + 1] = ways[a].get(k + 1, 0) + w * stirling2(above, a)
    census = [0] * m
    for a, by_length in ways.items():
        for k, w in by_length.items():
            census[k] += w
    while len(census) > 1 and census[-1] == 0:
        census.pop()
    return tuple(census)


def test_census_matches_stirling_closed_form_k8():
    lattice = FlatLattice(Graph.complete(range(2, 10)))
    census = lattice.chain_census(lattice.proper)
    assert census == partition_chain_census(8)
    assert sum(census) == 10_270_696
    for m in range(1, 8):
        lattice = FlatLattice(Graph.complete(range(2, m + 2)))
        assert lattice.chain_census(lattice.proper) == partition_chain_census(m), m


def test_interval_verdict_matches_is_balanced():
    for g in small_graphs():
        lattice = FlatLattice(g)
        assert lattice_balanced(lattice) == is_balanced(bergman_fan(g, lattice)).balanced, g


def test_rank2_intervals_hold_their_atoms():
    """Each interval [A, B] has rank B = rank A + 2 and lists every flat
    strictly between, which is at least two flats; every such pair occurs."""
    for g in small_graphs():
        lattice = FlatLattice(g)
        flats = lattice.flats
        found = []
        for a, b, atoms in lattice.rank2_intervals():
            assert flats[b].rank == flats[a].rank + 2
            up = lattice.up
            between = [c for c in range(len(flats)) if up[a] >> c & 1 and up[c] >> b & 1]
            assert atoms == between and len(atoms) >= 2
            found.append((a, b))
        pairs = [
            (a, b)
            for a in range(len(flats))
            for b in range(len(flats))
            if lattice.up[a] >> b & 1 and flats[b].rank == flats[a].rank + 2
        ]
        assert found == pairs, g


@pytest.mark.parametrize("spec", ["k4", "k4-minus-e25", "complete:5"])
def test_dropping_one_atom_from_an_interval_unbalances(spec):
    """A lattice whose covers lose one atom of one rank-2 interval leaves
    that atom's edges outside A uncovered in B - A, so the verdict fails;
    every such mutation is tried."""
    g = resolve_graph(spec)
    assert lattice_balanced(FlatLattice(g))
    tried = 0
    for a, _, atoms in list(FlatLattice(g).rank2_intervals()):
        for c in atoms:
            mutant = FlatLattice(g)
            mutant.covers[a] = [p for p in mutant.covers[a] if p != c]
            assert not lattice_balanced(mutant), (a, c)
            tried += 1
    assert tried > 0


def test_bergman_fan_refuses_another_graphs_lattice():
    with pytest.raises(ValueError, match="lattice"):
        bergman_fan(Graph.complete([2, 3, 4]), FlatLattice(Graph.complete([2, 3, 4, 5])))

