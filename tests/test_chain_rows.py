"""Chains kept as edge masks in cone order, and one certificate per masks column.

A chain fan's columns come straight from a walk over the allowed flats in
ray order, which yields the chains in cone order with their ray ids; they
must equal the columns that the sorting row builder, ``Fan._from_rows``,
lays out from the same chains given in another order.  A fan's provenance
column holds each source chain as the ascending tuple of its flats' edge
masks over the fan's source graph, and the row check on the chain's masks
is its one check; ``Cone.provenance`` turns them into validating
``ChainOfFlats`` at the API's edge, each distinct flat built once per fan,
and the CLI's fan documents build no ``Flat`` at all.  The provenance
tests rebuild every chain from its masks through fresh ``Flat``s and the
validating constructor, for Bergman fans, moduli fans and their
projections, fibers included; a walk that yields a chain that is not
nested must be refused.  ``is_balanced`` records the maximal rows it
certifies in the balancing index that reweighted copies share, so the
certificate tests count ``saturation`` calls across reweightings and check
that a failed certificate raises every time and records nothing."""

import random
from collections import Counter

import pytest

import tropfan.bergman as bergman
import tropfan.intlinalg as ila
import tropfan.tropmoduli as tm
from tropfan import (
    ChainOfFlats,
    EdgeSet,
    Flat,
    Graph,
    all_graphs,
    bergman_fan,
    enumerate_types,
    is_balanced,
    moduli_fan_rad,
    project_fan,
    psi_cof_to_radial,
    psi_radial_to_cof,
    radial_alignments,
)
from tropfan.cli import main

from test_cone_masks import cycle_on, path_on
from test_flat_lattice import random_graphs, seven_end_stability_graphs


def fresh_chains(g: Graph):
    """A function from a chain's masks over g's edges to the chain built
    through fresh flats of a fresh copy of g and the validating
    ``ChainOfFlats``, each flat built once per mask."""
    g = Graph(g.labels, g.edges)
    flats: dict[int, Flat] = {}

    def chain(masks) -> ChainOfFlats:
        for m in masks:
            if m not in flats:
                flats[m] = Flat(EdgeSet(g, m))
        return ChainOfFlats(tuple(flats[m] for m in masks))

    return chain


def image_masks(masks, positions) -> tuple[int, ...]:
    """The chain of the nonempty, not full traces of ``masks`` on the edge
    ``positions``, ascending, without repeats."""
    full = (1 << len(positions)) - 1
    traces = {sum(1 << j for j, i in enumerate(positions) if m >> i & 1) for m in masks}
    return tuple(sorted(t for t in traces if 0 < t < full))


def assert_rows_are_walked_chains(fan, g: Graph):
    """Each row's provenance is one chain, the row's own masks tuple over
    the source graph g, and its ``Cone`` gets it back as the chain rebuilt
    from the masks."""
    chain = fresh_chains(g)
    assert fan._source == g
    for row, masks in zip(fan._provenance, fan._masks):
        assert len(row) == 1 and type(row[0]) is tuple
        assert row[0] is masks
    for cone in fan.cones:
        assert cone.provenance == (chain(cone.masks),)
        assert all(type(c) is ChainOfFlats for c in cone.provenance)


def assert_fibers_are_walked_chains(image, fan, g: Graph, gamma: Graph):
    """Each cone of the projection holds as its fiber the rebuilt chains of
    the source cones that map onto it, in the source fan's order."""
    chain = fresh_chains(g)
    positions = [i for i, e in enumerate(g.edges) if e in gamma.edge_index]
    fibers: dict[tuple, list] = {}
    for masks in fan._masks:
        fibers.setdefault(image_masks(masks, positions), []).append(masks)
    assert sorted(fibers) == sorted(image._masks)
    assert image._source is fan._source
    for row in image._provenance:
        assert all(type(c) is tuple and all(type(x) is int for x in c) for c in row)
    for cone in image.cones:
        assert cone.provenance == tuple(chain(m) for m in fibers[cone.masks]), cone.masks


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_bergman_provenance_is_the_walked_chains(m):
    labels = tuple(range(2, m + 2))
    g = Graph.complete(labels)
    fan = bergman_fan(g)
    assert_rows_are_walked_chains(fan, g)
    for gamma in (path_on(labels), cycle_on(labels)):
        assert_fibers_are_walked_chains(project_fan(fan, gamma), fan, g, gamma)


MODULI_TARGETS = [(n, name) for n in (5, 6, 7) for name in ("complete", "path", "cycle")]
MODULI_TARGETS.append((7, "k33"))


@pytest.mark.parametrize("n, name", MODULI_TARGETS)
def test_moduli_provenance_is_the_walked_chains(n, name):
    """The moduli fans of the benchmark's four stability graph shapes."""
    labels = tuple(range(2, n + 1))
    g = Graph.complete(labels)
    gamma = {"complete": g, "path": path_on(labels), "cycle": cycle_on(labels)}.get(name)
    if gamma is None:
        gamma = seven_end_stability_graphs()[name]
    fan = moduli_fan_rad(n, gamma)
    assert_rows_are_walked_chains(fan, g)
    assert_fibers_are_walked_chains(project_fan(fan, gamma), fan, g, gamma)


def test_fan_from_cones_keeps_the_chains_as_mask_tuples(k4):
    """``Fan(ambient, cones)`` stores each given chain's masks and its
    flats' graph, and hands back equal chains."""
    fan = bergman_fan(k4)
    rebuilt = bergman.Fan(k4.edges, fan.cones)
    assert rebuilt._provenance == fan._provenance
    assert rebuilt._source == k4
    assert [c.provenance for c in rebuilt.cones] == [c.provenance for c in fan.cones]


def test_fan_from_cones_refuses_chains_of_two_graphs(k4):
    fan = bergman_fan(k4)
    other = bergman_fan(Graph.complete(range(3, 7)))
    cones = list(fan.cones)
    cones[5] = bergman.Cone(k4.edges, cones[5].masks, 1, other.cones[5].provenance)
    with pytest.raises(ValueError, match="two graphs"):
        bergman.Fan(k4.edges, cones)
    # an equal graph built apart is the same source
    twin = Graph(k4.labels, k4.edges)
    cones[5] = bergman.Cone(k4.edges, cones[5].masks, 1, (fresh_chains(twin)(cones[5].masks),))
    assert bergman.Fan(k4.edges, cones)._provenance == fan._provenance


@pytest.mark.parametrize("build", ["bergman", "moduli"])
def test_a_walk_that_is_not_nested_is_refused(monkeypatch, build):
    """The row check on the walked masks is the walked chain's one check:
    a walk that yields a reversed chain, or one flat twice, is refused."""
    walk = bergman._chains_in_cone_order

    def broken(bad):
        def walked(lattice, allowed):
            # the bad chain follows the first chain of two flats
            rays, *columns = walk(lattice, allowed)
            at = next(i for i, k in enumerate(columns[1]) if len(k) == 2) + 1
            return rays, *(c[:at] + (bad(c[at - 1]),) + c[at:] for c in columns)

        return walked

    for bad in (lambda c: c[::-1], lambda c: c[:1] * 2):
        monkeypatch.setattr(bergman, "_chains_in_cone_order", broken(bad))
        with pytest.raises(ValueError, match="strictly nested"):
            if build == "bergman":
                bergman_fan(Graph.complete(range(2, 6)))
            else:
                moduli_fan_rad(5)


def assert_walk_matches_the_row_sort(fan):
    """The columns laid out from the walk equal those that the sorting row
    builder lays out from the same rows in a shuffled order: masks, ray
    ids, the rays' masks and coordinates in their order, weights,
    provenance, the rows of each dimension and the source graph."""
    rows = list(zip(fan._masks, fan._weights, fan._provenance))
    random.Random(len(rows)).shuffle(rows)
    sorted_fan = bergman.Fan._from_rows(fan.ambient, rows, fan._source)
    for column in ("_masks", "_ray_ids", "_weights", "_provenance", "_by_dim", "max_dim", "_source"):
        assert getattr(fan, column) == getattr(sorted_fan, column), (fan.ambient, column)
    assert list(fan._coords.items()) == list(sorted_fan._coords.items()), fan.ambient


def test_walked_bergman_columns_match_the_row_sort():
    """K1 to K7, every graph on at most five labels, and seeded random
    graphs on six and seven labels."""
    graphs = [Graph.complete(range(2, m + 2)) for m in range(1, 8)]
    graphs += [g for nv in range(6) for g in all_graphs(range(2, 2 + nv))]
    graphs += random_graphs(6, 8, 6) + random_graphs(7, 4, 7)
    for g in graphs:
        assert_walk_matches_the_row_sort(bergman_fan(g))


def test_walked_moduli_columns_match_the_row_sort():
    """Every connected stability graph for 4 to 6 ends, and the benchmark's
    four shapes at 7 ends."""
    for n in (4, 5, 6):
        for gamma in all_graphs(range(2, n + 1), connected=True):
            assert_walk_matches_the_row_sort(moduli_fan_rad(n, gamma))
    for gamma in seven_end_stability_graphs().values():
        assert_walk_matches_the_row_sort(moduli_fan_rad(7, gamma))


@pytest.fixture
def flats_made(monkeypatch):
    """The edge masks of every ``Flat`` built, in order."""
    made = []
    check = Flat.__post_init__

    def counted(self):
        made.append(self.mask)
        check(self)

    monkeypatch.setattr(Flat, "__post_init__", counted)
    return made


def test_fan_documents_build_no_flat(flats_made, tmp_path):
    out = str(tmp_path / "doc.json")
    assert main(["fan", "--graph", "complete:6", "--format", "json", "-o", out]) == 0
    assert main(["moduli", "--n", "7", "--format", "json", "-o", out]) == 0
    assert flats_made == []


def test_cones_build_each_flat_once_per_fan(flats_made):
    """Reading a fan's cones, or its projection's, builds one ``Flat`` per
    distinct mask of its provenance; reading them again, or a reweighted
    copy's, builds none."""
    g = Graph.complete(range(2, 7))
    fan = bergman_fan(g)
    image = project_fan(fan, cycle_on(g.labels))
    for f in (fan, image):
        flats_made.clear()
        cones = f.cones
        assert sorted(flats_made) == sorted({x for row in f._provenance for c in row for x in c})
        flats_made.clear()
        assert f.cones_of_dim(2) == cones[f._by_dim[2].start : f._by_dim[2].stop]
        f.with_weights({}).cones  # a reweighted copy shares the fan's flats
        assert flats_made == []


def test_psi_radial_to_cof_equals_a_fresh_chain():
    """For every radial type with at most 7 ends, the chain read off the
    cached flats equals the chain rebuilt through fresh flats, and maps
    back to the type; each flat is built once per (n, mask)."""
    counts = {}
    for n in range(4, 8):
        chain = fresh_chains(Graph.complete(range(2, n + 1)))
        count = 0
        for ts in enumerate_types(n).values():
            for t in ts:
                for rt in radial_alignments(t):
                    got = psi_radial_to_cof(rt)
                    assert got == chain(tuple(f.mask for f in got))
                    assert psi_cof_to_radial(got, n=n) == rt
                    for f in got:
                        assert tm._complete_flat(n, f.mask) is f
                    count += 1
        counts[n] = count
    # the chains of proper flats of K3..K6, the empty chain included
    assert counts == {4: 4, 5: 32, 6: 436, 7: 9012}


# ---------------------------------------------------------------------------
# One certificate per masks column


@pytest.fixture
def saturation_calls(monkeypatch):
    """The rows of every ``saturation`` call, in order."""
    calls = []
    saturation = ila.saturation

    def counted(rows, ncols):
        calls.append(tuple(map(tuple, rows)))
        return saturation(rows, ncols)

    monkeypatch.setattr(ila, "saturation", counted)
    return calls


def reweightings(fan, count=40):
    """``count`` copies of the fan, each with one maximal cone's weight
    doubled, spread over the maximal cones."""
    maximal = fan.cones_of_dim(fan.max_dim)
    step = max(len(maximal) // count, 1)
    return [fan.with_weights({maximal[i * step % len(maximal)].rayset: 2}) for i in range(count)]


def test_reweighted_fans_certify_each_maximal_cone_once(saturation_calls):
    k5 = bergman_fan(Graph.complete(range(2, 7)))
    assert is_balanced(k5).balanced
    certified = len(saturation_calls)
    assert certified == len(k5.cones_of_dim(k5.max_dim)) == 180
    for fan in reweightings(k5):
        assert not is_balanced(fan).balanced
        assert fan._balancing.certified is k5._balancing.certified
    assert len(saturation_calls) == certified
    # reweightings first, then the fan: still each cone once in all
    saturation_calls.clear()
    k5 = bergman_fan(Graph.complete(range(2, 7)))
    for fan in reweightings(k5):
        assert not is_balanced(fan).balanced
    assert 0 < len(saturation_calls) <= 180
    assert is_balanced(k5).balanced
    counts = Counter(saturation_calls)
    assert len(counts) == len(saturation_calls) == 180
    assert k5._balancing.certified == set(k5._maximal)


def test_a_failed_certificate_raises_every_time_and_records_nothing(monkeypatch):
    k5 = bergman_fan(Graph.complete(range(2, 7)))
    heavy = reweightings(k5, 1)[0]
    # a basis of the same lattice, but not the rays handed in
    monkeypatch.setattr(ila, "saturation", lambda rows, ncols: [[-x for x in r] for r in rows])
    for fan in (k5, heavy, k5, heavy):
        with pytest.raises(RuntimeError, match="basis"):
            is_balanced(fan)
        assert not k5._balancing.certified
        assert heavy._balancing.certified is k5._balancing.certified
    monkeypatch.undo()
    assert not is_balanced(heavy).balanced
    assert is_balanced(k5).balanced
