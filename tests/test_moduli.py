import functools
import itertools
import operator
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tropfan.tropmoduli as tm

from tropfan import (
    ChainOfFlats,
    Fan,
    Graph,
    all_graphs,
    bergman_fan,
    enumerate_types,
    flat_gamma_stable,
    caterpillar_cof,
    fans_equal,
    graph_rank,
    is_balanced,
    is_complete_multipartite,
    is_gamma_stable,
    moduli_fan_rad,
    project_fan,
    project_vector,
    psi_cof_to_radial,
    psi_radial_to_cof,
    radial_alignments,
    ray_of_flat,
    verify_injectivity,
)
from tropfan.graphs import EdgeSet, _connected_on
from tropfan.matroid import _positions, set_partitions

from oracles import (
    caterpillar_by_growth,
    fan_to_json,
    flat_demand_rows,
    injectivity_two_pass,
    make_cone,
    proper_flats,
    vertex_demand,
)


def multipartite_graphs(labels):
    labels = tuple(labels)
    out = []
    for part in set_partitions(list(labels)):
        if len(part) < 2:
            continue
        block_of = {v: i for i, b in enumerate(part) for v in b}
        edges = tuple(
            e for e in itertools.combinations(labels, 2) if block_of[e[0]] != block_of[e[1]]
        )
        out.append(Graph(labels, edges))
    return out


# ---------------------------------------------------------------------------
# Moduli fans


def test_moduli_fan_complete_equals_bergman_fan(k4):
    fan = moduli_fan_rad(5, "complete")
    assert fans_equal(fan, bergman_fan(k4))


def test_moduli_fan_obstruction_census(gamma_obstruction):
    fan = moduli_fan_rad(5, gamma_obstruction)
    assert fan.census() == (1, 9, 10)
    projected = project_fan(fan, gamma_obstruction)
    assert projected.census() == (1, 8, 9)


def test_obstruction_fiber_over_collapsed_ray(k4, k4_flat_labels, gamma_obstruction):
    from tropfan import QuotientVector

    fan = moduli_fan_rad(5, gamma_obstruction)
    projected = project_fan(fan, gamma_obstruction)
    image_ray = project_vector(
        ray_of_flat(k4_flat_labels[9], k4.edges), gamma_obstruction
    )
    assert image_ray == QuotientVector.from_raw(gamma_obstruction.edges, [0, 0, 0, -1])
    cone = projected.cone_with_rayset(frozenset([image_ray]))
    assert cone is not None
    assert len(cone.provenance) == 3
    sources = {tuple(len(f.edges.edges) for f in chain) for chain in cone.provenance}
    assert sources == {(1,), (3,), (1, 3)}


def test_moduli_fan_rejects_out_of_range():
    with pytest.raises(ValueError):
        moduli_fan_rad(3, "complete")
    with pytest.raises(ValueError):
        moduli_fan_rad(8, "complete")
    with pytest.raises(ValueError, match="Graph"):
        moduli_fan_rad(5, "nonsense")


def test_moduli_fan_n6_matches_bergman_k5():
    fan = moduli_fan_rad(6, "complete")
    assert fans_equal(fan, bergman_fan(Graph.complete(range(2, 7))))


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_complete_moduli_fan_is_the_bergman_fan_cone_for_cone(n):
    """Both fans come from ``bergman._chain_fan``: for the complete graph
    every flat is stable, so the cones, weights and provenance coincide."""
    moduli = moduli_fan_rad(n, "complete").cones
    bergman = bergman_fan(Graph.complete(range(2, n + 1))).cones
    assert [(c.rays, c.weight, c.provenance) for c in moduli] == [
        (c.rays, c.weight, c.provenance) for c in bergman
    ]


def test_five_end_cone_structure_is_petersen():
    # rays of the five-end space with edges for compatible split pairs
    import networkx as nx

    from tropfan import enumerate_types

    types = enumerate_types(5)
    rays = [t.splits[0] for t in types[1]]
    graph = nx.Graph()
    graph.add_nodes_from(rays)
    for t in types[2]:
        a, b = t.splits
        graph.add_edge(a, b)
    assert nx.is_isomorphic(graph, nx.petersen_graph())


def test_three_two_cones_subdivide(k4):
    # maximal cones through a disconnected-flat ray come in pairs, two per
    # disjoint-split cone of the coarse structure; the other twelve are whole
    fan = bergman_fan(k4)
    split_cones = [
        c
        for c in fan.cones_of_dim(2)
        if any(len(f.blocks) == 2 for f in c.provenance[0])
    ]
    assert len(split_cones) == 6
    assert len(fan.cones_of_dim(2)) - len(split_cones) == 12


def test_path_stability_gives_two_opposite_rays():
    # four ends, stability graph a two-edge path: one split is unstable and
    # the image fan is a line through the origin
    path = Graph.from_edges([(2, 3), (3, 4)])
    fan = moduli_fan_rad(4, path)
    assert fan.census() == (1, 2)
    projected = project_fan(fan, path)
    assert [r.coords for r in projected.rays] == [(-1, 0), (1, 0)]
    assert is_balanced(projected).balanced
    assert fans_equal(projected, bergman_fan(path))


def typed_radial_cones(n):
    """The type route's graph-independent half: every combinatorial type with
    n ends, paired with the cones of its radial alignments, each embedded
    through ``psi_radial_to_cof``."""
    ambient = Graph.complete(range(2, n + 1)).edges
    out = []
    for _, by_dim in sorted(enumerate_types(n).items()):
        for typ in by_dim:
            cones = []
            for radial in radial_alignments(typ):
                chain = psi_radial_to_cof(radial)
                rays = [ray_of_flat(f, ambient) for f in chain]
                cones.append(make_cone(rays, weight=1, provenance=(chain,), ambient=ambient))
            out.append((typ, cones))
    return ambient, out


def moduli_fan_by_types(gamma, ambient, typed_cones):
    """The type route the chain walk replaced: the radial cones of every
    gamma-stable combinatorial type."""
    cones = [c for typ, cs in typed_cones if is_gamma_stable(typ, gamma)[0] for c in cs]
    return Fan(ambient, cones)


def assert_same_moduli_fan(n, gamma, typed, cones=True):
    """The chain walk's fan and the type route's agree row by row: masks,
    weights and provenance mask chains over one source graph, in cone
    order, and in their JSON dict form.  With ``cones``, the ``Cone``
    objects and their ``ChainOfFlats`` provenance made at the API edge are
    compared too."""
    fan = moduli_fan_rad(n, gamma)
    oracle = moduli_fan_by_types(gamma, *typed)
    assert fan._rows.masks == oracle._rows.masks, gamma.edges
    assert fan._weights == oracle._weights, gamma.edges
    assert fan._rows.provenance == oracle._rows.provenance, gamma.edges
    assert fan._rows.source == oracle._rows.source, gamma.edges
    if cones:
        assert fan.cones == oracle.cones, gamma.edges
        assert [c.provenance for c in fan.cones] == [c.provenance for c in oracle.cones]
    assert fan_to_json(fan) == fan_to_json(oracle)


def test_chain_walk_matches_type_route_up_to_six_ends():
    """Every connected stability graph for 4 to 6 ends; the ``Cone``
    objects are compared for the complete graph of each n."""
    for n in (4, 5, 6):
        typed = typed_radial_cones(n)
        complete = Graph.complete(range(2, n + 1))
        for gamma in all_graphs(range(2, n + 1), connected=True):
            assert_same_moduli_fan(n, gamma, typed, cones=gamma == complete)


def test_chain_walk_matches_type_route_seven_ends():
    typed = typed_radial_cones(7)
    path = Graph.from_edges([(2, 4), (4, 6), (6, 3), (3, 5), (5, 7)])
    for gamma in (Graph.complete(range(2, 8)), path):
        assert_same_moduli_fan(7, gamma, typed)


# ---------------------------------------------------------------------------
# Caterpillar chains


def test_caterpillar_for_complete_graph(k4):
    chain = caterpillar_cof(k4)
    assert len(chain) == 2
    assert [len(f.blocks[0]) for f in chain] == [2, 3]
    assert all(len(f.blocks) == 1 for f in chain)


def test_caterpillar_rank_sequence(gamma_obstruction):
    chain = caterpillar_cof(gamma_obstruction)
    for k, flat in enumerate(chain, start=1):
        assert flat.rank == k
        restricted = EdgeSet.from_edges(
            gamma_obstruction,
            (e for e in flat.edges.edges if e in gamma_obstruction.edge_index),
        )
        assert graph_rank(gamma_obstruction, restricted) == k


def test_caterpillar_projection_keeps_top_dimension(gamma_obstruction):
    chain = caterpillar_cof(gamma_obstruction)
    rays = [ray_of_flat(f, Graph.complete([2, 3, 4, 5]).edges) for f in chain]
    images = [project_vector(r, gamma_obstruction) for r in rays]
    from oracles import rational_rank

    assert rational_rank([r.coords for r in images]) == len(chain) == 2


def test_caterpillar_radial_type_is_a_caterpillar():
    for gamma in list(all_graphs((2, 3, 4, 5), connected=True))[:10]:
        chain = caterpillar_cof(gamma)
        rt = psi_cof_to_radial(chain)
        # a caterpillar: nested splits, one vertex per level
        assert all(len(block) == 1 for block in rt.levels)
        ordered = sorted(rt.type.splits, key=len)
        assert all(a < b for a, b in zip(ordered, ordered[1:]))


def test_caterpillar_matches_growth_oracle():
    """The chain from the growth order equals the one grown as a vertex set
    on every connected graph with at most 6 labels (27,477 graphs; budget
    60 s, about 11 s on a 2-core host)."""
    start = time.perf_counter()
    for k in range(7):
        for g in all_graphs(range(2, 2 + k), connected=True):
            assert caterpillar_cof(g) == caterpillar_by_growth(g), g.edges
    assert time.perf_counter() - start < 60


def test_caterpillar_requires_connected():
    with pytest.raises(ValueError, match="connected"):
        caterpillar_cof(Graph((2, 3, 4, 5), ((2, 3),)))


# ---------------------------------------------------------------------------
# Injectivity trichotomy


def test_obstruction_report(k4_flat_labels, gamma_obstruction):
    report = verify_injectivity(gamma_obstruction)
    assert not report.injective
    assert not report.rank_criterion
    assert not report.multipartite
    assert report.witness_flat == k4_flat_labels[9]
    assert report.witness_triple == (3, 4, 5)


def test_complete_graph_report(k4):
    report = verify_injectivity(k4)
    assert report.injective and report.rank_criterion and report.multipartite


def test_bipartite_report(gamma_bipartite):
    report = verify_injectivity(gamma_bipartite)
    assert report.injective and report.rank_criterion and report.multipartite


def test_trichotomy_all_connected_graphs_four_vertices():
    seen_multipartite = 0
    for g in all_graphs((2, 3, 4, 5), connected=True):
        report = verify_injectivity(g)
        assert report.agree
        seen_multipartite += report.multipartite
    assert seen_multipartite == 14  # partitions of 4 labels into >= 2 blocks


def test_size_cap():
    """Graphs on 1 to 6 vertices; the empty graph is refused before its
    labels are read."""
    with pytest.raises(ValueError, match="6"):
        verify_injectivity(Graph.complete(range(2, 9)))
    with pytest.raises(ValueError, match="1 to 6 vertices"):
        verify_injectivity(Graph((), ()))
    assert verify_injectivity(Graph((2,), ())).agree


def test_split_trichotomy_is_reported_not_raised(k4, monkeypatch):
    monkeypatch.setattr(tm, "is_complete_multipartite", lambda g: (False, (2, 3, 4)))
    report = verify_injectivity(k4)
    assert report.injective and report.rank_criterion and not report.multipartite
    assert not report.agree


def sampled_six_vertex_graphs():
    """200 seeded random connected graphs on 2..7, plus 50 seeded complete
    multipartite ones, where restriction is injective."""
    rng = random.Random(3)
    labels = tuple(range(2, 8))
    pool = list(itertools.combinations(labels, 2))
    sample = {}
    while len(sample) < 200:
        bits = rng.getrandbits(len(pool))
        g = Graph(labels, tuple(e for i, e in enumerate(pool) if bits >> i & 1))
        if g.is_connected:
            sample[bits] = g
    return list(sample.values()) + rng.sample(multipartite_graphs(labels), 50)


def oracle_graphs():
    yield from all_graphs((2, 3, 4, 5), connected=True)
    yield from all_graphs((2, 3, 4, 5, 6), connected=True)
    yield from sampled_six_vertex_graphs()


def unstable_flats(n, gmask) -> int:
    """The bitset of the lattice positions of the proper flats that are
    unstable for the graph with edge mask ``gmask``: the holders of the
    blocks it has no edge in."""
    unstable = 0
    for _, clique, holders in tm._block_index(n):
        if not clique & gmask:
            unstable |= holders
    return unstable


@functools.cache
def proper_positions(n) -> tuple[int, ...]:
    """The positions of the proper flats in ``tm._complete_lattice(n)``."""
    return tuple(_positions(tm._complete_lattice(n).proper))


@functools.cache
def indexed_flats(n):
    """Each proper flat of the complete graph on 2..n as its edge mask,
    from the lattice's masks column, and its blocks, read off the block
    index's holders: ``(vertex mask, clique mask)`` pairs in index order."""
    masks, index = tm._complete_lattice(n).masks, tm._block_index(n)
    return tuple(
        (masks[i], tuple((v, c) for v, c, holders in index if holders >> i & 1))
        for i in proper_positions(n)
    )


def test_block_index_matches_flat_gamma_stable():
    for n in (5, 6, 7):
        ambient = Graph.complete(range(2, n + 1))
        assert [mask for mask, _ in indexed_flats(n)] == [f.mask for f in proper_flats(ambient)]
    for gamma in oracle_graphs():
        n = gamma.labels[-1]
        ambient = Graph.complete(range(2, n + 1))
        gmask = EdgeSet.from_edges(ambient, gamma.edges).mask
        unstable = unstable_flats(n, gmask)
        for i, (f, _) in zip(proper_positions(n), flat_demand_rows(n)):
            stable = not unstable >> i & 1
            assert stable == flat_gamma_stable(f, gamma), (gamma.edges, f.edges.edges)


def test_lattice_masks_are_the_proper_flats_in_order():
    """The masks column of the complete graph's lattice, built from vertex
    partitions, lists at its proper positions the proper flats of the
    complete graph on 2..n in canonical order, for n = 4..9 (4,140 flats
    at n = 9)."""
    for n in range(4, 10):
        ambient = Graph.complete(range(2, n + 1))
        masks = tm._complete_lattice(n).masks
        got = tuple(masks[i] for i in proper_positions(n))
        assert got == tuple(f.mask for f in proper_flats(ambient)), n


def test_flat_demands_are_the_flat_blocks():
    """The blocks holding each flat are the flat's blocks, each once, as
    its labels' bits (label v at bit v - 2) with the edge mask of the
    clique on them, and as a set the clique masks are what the vertex-local
    rule (``oracles.vertex_demand``) asks of the one-flat type's vertices.
    Each distinct block is listed once, with its one-block flat as its
    first holder, in the order of those flats."""
    for n in (4, 5, 6, 7):
        ambient = Graph.complete(range(2, n + 1))
        masks, blocks = tm._complete_lattice(n).masks, tm._block_index(n)
        flats = proper_flats(ambient)
        for f, (mask, held) in zip(flats, indexed_flats(n)):
            assert mask == f.mask
            expected = {
                functools.reduce(operator.or_, (1 << ambient.labels.index(v) for v in b)):
                EdgeSet.from_edges(ambient, itertools.combinations(b, 2)).mask
                for b in f.blocks
            }
            assert dict(held) == expected and len(held) == len(f.blocks)
            demands = [c for _, c in held]
            typ = psi_cof_to_radial(ChainOfFlats((f,))).type
            by_type = set()
            for v in range(typ.num_vertices):
                ends = vertex_demand(typ, v)
                if ends is not None:
                    by_type.add(
                        EdgeSet.from_edges(ambient, itertools.combinations(ends, 2)).mask
                    )
            assert set(demands) == by_type and len(demands) == len(by_type)
        distinct = {v for f in flats for v in (sum(1 << (x - 2) for x in b) for b in f.blocks)}
        assert sorted(v for v, _, _ in blocks) == sorted(distinct)
        firsts = [(holders & -holders).bit_length() - 1 for _, _, holders in blocks]
        assert firsts == sorted(firsts)
        for (v, clique, _), first in zip(blocks, firsts):
            held = indexed_flats(n)[proper_positions(n).index(first)][1]
            assert masks[first] == clique and held == ((v, clique),)


@functools.cache
def complete_proper_flats(labels) -> list:
    """The proper flats of the complete graph on ``labels``, enumerated
    once per label set."""
    return proper_flats(Graph.complete(labels))


def verify_injectivity_by_flat(gamma):
    """The per-flat computation the block index replaced: every flat's
    radial type is rebuilt and checked for stability against gamma."""
    stable = [f for f in complete_proper_flats(gamma.labels) if flat_gamma_stable(f, gamma)]
    images = {}
    injective = True
    for f in stable:
        restricted = frozenset(e for e in f.edges.edges if e in gamma.edge_index)
        if restricted in images:
            injective = False
        images.setdefault(restricted, f)
    rank_ok = True
    witness = None
    for f in stable:
        restricted = EdgeSet.from_edges(
            gamma, (e for e in f.edges.edges if e in gamma.edge_index)
        )
        if graph_rank(gamma, restricted) != f.rank:
            rank_ok = False
            if witness is None:
                witness = f
    multipartite, triple = is_complete_multipartite(gamma)
    return tm.InjectivityReport(injective, rank_ok, multipartite, witness, triple)


def test_verify_injectivity_matches_per_flat_computation():
    for gamma in oracle_graphs():
        assert verify_injectivity(gamma) == verify_injectivity_by_flat(gamma), gamma.edges


def block_rule_graphs():
    """Every connected graph on 3 to 5 labels and every 7th on 6 labels."""
    graphs = [g for k in (3, 4, 5) for g in all_graphs(range(2, 2 + k), connected=True)]
    return graphs + list(all_graphs(range(2, 8), connected=True))[::7]


@functools.cache
def block_rule_cases():
    """Each of ``block_rule_graphs`` with its two-pass oracle verdicts,
    computed once for the tests that read them."""
    return tuple((g, injectivity_two_pass(g)) for g in block_rule_graphs())


def witness_mask(f):
    return None if f is None else f.mask


def test_verify_injectivity_matches_two_pass_oracle():
    """Every report field, the witness flat by its mask, equals the two-pass
    computation on every connected graph with 3 to 5 labels and on every
    7th connected graph with 6 labels (4,585 graphs; budget 60 s, about
    5 s on a 2-core host, most of it the oracle's)."""
    start = time.perf_counter()
    for g, (injective, rank_ok, multipartite, witness, triple) in block_rule_cases():
        r = verify_injectivity(g)
        got = (r.injective, r.rank_criterion, r.multipartite, r.witness_triple)
        assert got == (injective, rank_ok, multipartite, triple), g.edges
        assert witness_mask(r.witness_flat) == witness_mask(witness), g.edges
    assert time.perf_counter() - start < 60


def test_first_stable_flat_to_lose_rank_is_a_one_block_flat():
    """The lemma behind ``verify_injectivity``'s early exit: in the two-pass
    oracle, which ranks every stable flat by a union-find, the first
    stable flat whose restriction loses rank has one block."""
    witnesses = [(g, case[3]) for g, case in block_rule_cases()]
    assert any(w is not None for _, w in witnesses)
    for g, witness in witnesses:
        assert witness is None or len(witness.blocks) == 1, g.edges


def test_witness_order_mutation_is_caught(monkeypatch):
    """A block index that lists its blocks in reverse order, so that they
    are no longer tested in the order of their one-block flats, makes some
    witness flat differ from the two-pass oracle's."""
    index = tm._block_index
    monkeypatch.setattr(tm, "_block_index", lambda n: index(n)[::-1])
    split = next(
        (
            g
            for g, case in block_rule_cases()
            if witness_mask(verify_injectivity(g).witness_flat) != witness_mask(case[3])
        ),
        None,
    )
    assert split is not None


def test_rank_survives_restriction_exactly_when_blocks_are_connected():
    """The lemma behind ``verify_injectivity``'s rank verdict: a proper flat
    F of the complete graph keeps its rank on restriction to gamma exactly
    when every block of F induces a connected subgraph of gamma.  Checked
    for every proper flat of the complete graph on gamma's labels, flat
    stable or not, its blocks read off the block index (budget 60 s,
    about 6 s on a 2-core host)."""
    start = time.perf_counter()
    for gamma in block_rule_graphs():
        n = gamma.labels[-1]
        ambient = Graph.complete(range(2, n + 1))
        gmask = EdgeSet.from_edges(ambient, gamma.edges).mask
        adj = gamma.adjacency
        for (f, _), (mask, blocks) in zip(flat_demand_rows(n), indexed_flats(n)):
            assert mask == f.mask
            connected = all(_connected_on(adj, v) for v, _ in blocks)
            keeps_rank = graph_rank(ambient, EdgeSet(ambient, f.mask & gmask)) == f.rank
            assert connected == keeps_rank, (gamma.edges, f.edges.edges)
    assert time.perf_counter() - start < 60


def test_block_rule_mutation_is_caught(monkeypatch):
    """A connectivity test that calls every block connected makes
    ``verify_injectivity`` disagree with the two-pass oracle, which ranks
    each restriction by a union-find."""
    monkeypatch.setattr(tm, "_connected_on", lambda adj, vertices: True)
    split = next(
        (
            g
            for g, case in block_rule_cases()
            if verify_injectivity(g).rank_criterion != case[1]
        ),
        None,
    )
    assert split is not None


def test_importing_the_package_builds_no_lattice_or_block_index():
    """The complete graphs' lattices and block indexes are built on first
    use, not at import, so importing the package and its CLI (what a
    benchmark round's setup times) does not pay for them."""
    code = (
        "import tropfan, tropfan.cli, tropfan.tropmoduli as tm; "
        "print(tm._complete_lattice.cache_info().currsize, "
        "tm._block_index.cache_info().currsize)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(tm.__file__).resolve().parent.parent)}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0 0\n"


# ---------------------------------------------------------------------------
# The main correspondence: image fans and bijectivity


def test_projection_image_always_equals_bergman_fan():
    # holds for every connected stability graph, multipartite or not
    for g in list(all_graphs((2, 3, 4, 5), connected=True))[::3]:
        fan = moduli_fan_rad(5, g)
        projected = project_fan(fan, g)
        assert fans_equal(projected, bergman_fan(g))


def test_bijectivity_iff_multipartite_four_vertices():
    for g in all_graphs((2, 3, 4, 5), connected=True):
        fan = moduli_fan_rad(5, g)
        projected = project_fan(fan, g)
        collision_free = all(len(c.provenance) <= 1 for c in projected.cones)
        same_count = len(projected.cones) == len(fan.cones)
        assert collision_free == same_count == is_complete_multipartite(g)[0]


def test_multipartite_projected_fans_balance():
    for g in multipartite_graphs((2, 3, 4, 5)):
        fan = project_fan(moduli_fan_rad(5, g), g)
        assert fans_equal(fan, bergman_fan(g))
        assert is_balanced(fan).balanced
