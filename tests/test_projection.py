"""Projection shares what it does not change.

Onto every edge of its ambient, ``project_fan`` returns the source fan's
rows as they are: the image shares the masks, ray-id, ray-coordinate and
provenance columns, the source graph and the balancing index, and gets a
new all-ones weights column and empty caches.  Onto a proper subgraph it
merges each fiber as source row numbers and sorts the images.  Both must
equal the sorting route kept in ``oracles.project_by_sorting``, which
traces every row, joins each fiber's chains and sorts every image, as
columns and as ``Cone``s, a reweighted source included."""

import pytest

from tropfan import Graph, bergman_fan, moduli_fan_rad, project_fan

from oracles import project_by_sorting
from test_cone_masks import K33, cycle_on, path_on

SHARED = ("_masks", "_ray_ids", "_provenance", "_coords", "_source", "_balancing", "_by_dim")


def complete(m: int) -> Graph:
    return Graph.complete(range(2, m + 2))


def columns(fan) -> tuple:
    return (
        fan.ambient, fan._source, list(fan._coords.items()), fan._ray_ids,
        fan._masks, fan._weights, fan._provenance, fan.max_dim, fan._by_dim,
    )


def reweighted_k5():
    """B(K5) with every third maximal cone given weight 2 or 3."""
    fan = bergman_fan(complete(5))
    top = fan.cones_of_dim(fan.max_dim)
    return fan.with_weights({c.rayset: 2 + i % 2 for i, c in enumerate(top[::3])})


@pytest.mark.parametrize("m", range(1, 8))
def test_identity_image_is_the_sorting_route_on_complete_graphs(m):
    """K1 to K7 (K7's 262,760 rows take about 2 s)."""
    k = complete(m)
    fan = bergman_fan(k)
    image = project_fan(fan, k)
    assert columns(image) == columns(project_by_sorting(fan, k))
    assert all(image._masks[i] is fan._masks[i] for i in (0, -1))


@pytest.mark.parametrize("name", ["complete", "K33", "path", "cycle"])
def test_moduli_images_are_the_sorting_route(name):
    """The benchmark's four n = 7 stability graph shapes: the identity
    image onto the complete graph, and three proper images with merged
    fibers."""
    labels = tuple(range(2, 8))
    gamma = {"complete": Graph.complete(labels), "K33": K33,
             "path": path_on(labels), "cycle": cycle_on(labels)}[name]
    fan = moduli_fan_rad(7, gamma)
    image = project_fan(fan, gamma)
    assert columns(image) == columns(project_by_sorting(fan, gamma))
    assert (image._masks is fan._masks) == (name == "complete")


def test_identity_image_shares_the_source_columns():
    fan = reweighted_k5()
    fan.cones  # a cached tuple of Cones, with the source's weights
    image = project_fan(fan, complete(5))
    for name in SHARED:
        assert getattr(image, name) is getattr(fan, name), name
    assert image._weights == (1,) * len(fan._masks) != fan._weights
    assert image._made == image._flats == {}
    assert image._made is not fan._made and image._flats is not fan._flats
    assert "cones" not in image.__dict__
    assert fan.cones[0] is fan._made[0]  # the source keeps its own caches


@pytest.mark.parametrize("m", range(1, 6))
def test_identity_image_cones_are_the_sorting_route(m):
    k = complete(m)
    fan = bergman_fan(k)
    image, expected = project_fan(fan, k), project_by_sorting(fan, k)
    assert image.cones == expected.cones
    assert [c.provenance for c in image.cones] == [c.provenance for c in expected.cones]


def test_reweighted_source_has_an_image_of_weight_one():
    """Every image cone has weight one, whatever the source's weights, as
    columns and as ``Cone``s made before and after the projection."""
    fan = reweighted_k5()
    before = fan.cones
    k5 = complete(5)
    image, expected = project_fan(fan, k5), project_by_sorting(fan, k5)
    assert columns(image) == columns(expected)
    assert image.cones == expected.cones
    assert {c.weight for c in image.cones} == {1} != {c.weight for c in before}
    assert [c.provenance for c in image.cones] == [c.provenance for c in expected.cones]


@pytest.mark.parametrize("m", [4, 5, 6])
def test_proper_image_shares_each_single_rows_provenance(m):
    """Onto a cycle, an image row with one source row holds that row's
    provenance tuple itself; a merged fiber joins its rows' chains in
    source row order."""
    k = complete(m)
    fan = bergman_fan(k)
    image = project_fan(fan, cycle_on(k.labels))
    source = {id(p) for p in fan._provenance}
    singles = [p for p in image._provenance if len(p) == 1]
    merged = [p for p in image._provenance if len(p) > 1]
    assert singles and merged
    assert all(id(p) in source for p in singles)
    assert not any(id(p) in source for p in merged)
    order = {p[0]: r for r, p in enumerate(fan._provenance)}
    assert all([order[c] for c in p] == sorted(order[c] for c in p) for p in merged)
