"""Cones stored as chains of edge masks, against the vector route.

A fan answers ``cone_with_rayset``, ``with_weights``, ``primitive_normal``
and ``failing_face.rays`` in vectors; the first tests pin what those views
return and refuse.  A fan keeps its cones as rows, checked by one row
builder, and makes ``Cone`` objects from them only when asked; the row
tests pin what the builder refuses and what reweighting shares.  The
oracles' vector route builds each cone from its rays as vectors, keyed by
ray sets, and projects by coordinates; the mask route must match it cone
for cone, and so must a fan built from the vector route's ``Cone``
objects.  The fan routines themselves make no vector at all."""

import json
from fractions import Fraction
from types import SimpleNamespace

import pytest

from tropfan import (
    EdgeSet,
    Fan,
    Graph,
    QuotientVector,
    bergman_fan,
    fans_equal,
    is_balanced,
    moduli_fan_rad,
    primitive_normal,
    project_fan,
)
from tropfan.tropmoduli import _stable_flats

from oracles import (
    cone_of_rays,
    fan_json_text,
    fan_to_json,
    proper_flats,
    scale_vector,
    vector_chain_fan,
    vector_cones,
    vector_project_fan,
    zero_vector,
)


@pytest.fixture
def k4_fan(k4):
    return bergman_fan(k4)


def coords(rays):
    return [r.coords for r in rays]


def not_cones(k4):
    """Ray sets that name no cone of K4's fan, each for another reason."""
    ray = bergman_fan(Graph.complete([2, 3, 4, 5])).rays[0]
    k3 = Graph.complete([2, 3, 4]).edges
    other = tuple(reversed(k4.edges))  # the same edges, listed in another order
    return {
        "zero vector": frozenset([zero_vector(k4.edges)]),
        "Fraction vector": frozenset([scale_vector(ray, Fraction(1, 2))]),
        "foreign ambient": frozenset([QuotientVector(other, ray.coords)]),
        "foreign length": frozenset([QuotientVector.from_raw(k3, [-1, 0, 0])]),
        "non-nested pair": frozenset(
            [
                QuotientVector(k4.edges, (-1, 0, 0, 0, 0, 0)),
                QuotientVector(k4.edges, (0, -1, 0, 0, 0, 0)),
            ]
        ),
    }


@pytest.mark.parametrize(
    "name", ["zero vector", "Fraction vector", "foreign ambient", "foreign length", "non-nested pair"]
)
def test_ray_sets_of_no_cone_are_not_found_and_not_reweighted(k4, k4_fan, name):
    rays = not_cones(k4)[name]
    assert k4_fan.cone_with_rayset(rays) is None
    with pytest.raises(ValueError, match="not a cone of this fan"):
        k4_fan.with_weights({rays: 2})


def test_every_cone_is_found_by_its_ray_set(k4_fan):
    for cone in k4_fan.cones:
        assert k4_fan.cone_with_rayset(cone.rayset) is cone
        assert k4_fan.cone_with_rayset(frozenset(cone.rays)) is cone


def test_failing_faces_are_the_vectors_they_were(k4_fan):
    """The first failing face after doubling a maximal cone of K4's fan,
    by its rays' canonical coordinates."""
    maximal = k4_fan.cones_of_dim(2)
    expected = {
        0: ([(-1, -1, 0, -1, 0, 0), (-1, 0, 0, 0, 0, 0)], [(-1, -1, 0, -1, 0, 0)]),
        5: ([(-1, 0, -1, 0, -1, 0), (0, 0, 0, 0, -1, 0)], [(-1, 0, -1, 0, -1, 0)]),
        17: ([(1, 1, 1, 0, 0, 0), (1, 1, 1, 1, 1, 0)], [(1, 1, 1, 0, 0, 0)]),
    }
    for i, (sigma_rays, face_rays) in expected.items():
        sigma = maximal[i]
        assert coords(sigma.rays) == sigma_rays
        report = is_balanced(k4_fan.with_weights({sigma.rayset: 2}))
        assert coords(report.failing_face.rays) == face_rays
    k3 = bergman_fan(Graph.complete([2, 3, 4]))
    for ray in k3.cones_of_dim(1):
        assert is_balanced(k3.with_weights({ray.rayset: 2})).failing_face.rays == ()


def test_primitive_normals_are_the_vectors_they_were(k4_fan):
    """The normal of a maximal cone over each of its facets is the ray the
    facet lacks, as a vector over the fan's edges."""
    sigma = k4_fan.cones_of_dim(2)[5]
    normals = []
    for ray in sigma.rays:
        tau = k4_fan.cone_with_rayset(sigma.rayset - {ray})
        normal = primitive_normal(sigma, tau)
        assert normal == ray and normal.ambient == k4_fan.ambient
        normals.append((coords(tau.rays), normal.coords))
    assert normals == [
        ([(0, 0, 0, 0, -1, 0)], (-1, 0, -1, 0, -1, 0)),
        ([(-1, 0, -1, 0, -1, 0)], (0, 0, 0, 0, -1, 0)),
    ]
    for sigma in k4_fan.cones_of_dim(2):
        for tau in k4_fan.cones_of_dim(1):
            if tau.rayset <= sigma.rayset:
                assert {primitive_normal(sigma, tau)} == sigma.rayset - tau.rayset


# ---------------------------------------------------------------------------
# Rows


def stand_in(ambient, masks, weight=1):
    """A cone's fields without ``Cone``'s own check, so that only the fan's
    row builder can refuse them."""
    return SimpleNamespace(ambient=ambient, masks=masks, weight=weight, provenance=())


NESTED = "strictly nested nonempty proper"
BAD_ROWS = {
    "empty mask": ((0, 0b11), 1, NESTED),
    "full mask": ((0b1, 0b111111), 1, NESTED),
    "out-of-order chain": ((0b11, 0b1), 1, NESTED),
    "weight 0": ((0b1,), 0, "positive integers"),
    "weight True": ((0b1,), True, "positive integers"),
    "weight Fraction(2)": ((0b1,), Fraction(2), "positive integers"),
}


@pytest.mark.parametrize("name", sorted(BAD_ROWS))
def test_row_builder_refuses_bad_rows(k4, k4_fan, name):
    """Every row is checked once, by the row builder, whether it comes
    through ``Fan(...)`` or, for a weight, through ``with_weights``."""
    masks, weight, message = BAD_ROWS[name]
    good = [stand_in(k4.edges, ()), stand_in(k4.edges, (0b1,))]
    with pytest.raises(ValueError, match=message):
        Fan(k4.edges, good + [stand_in(k4.edges, masks, weight)])
    if message != NESTED:
        sigma = k4_fan.cones_of_dim(2)[3]
        with pytest.raises(ValueError, match=message):
            k4_fan.with_weights({sigma.rayset: weight})


def test_row_builder_refuses_a_chain_given_twice(k4):
    cones = [stand_in(k4.edges, (0b1, 0b11)), stand_in(k4.edges, (0b1,))]
    with pytest.raises(ValueError, match="given twice"):
        Fan(k4.edges, cones + [stand_in(k4.edges, (0b1, 0b11), 2)])
    assert Fan(k4.edges, cones).census() == (1, 1, 1)


def test_reweighting_shares_every_column_but_the_weights(k4_fan):
    """``with_weights`` makes a new weights column and shares the masks,
    provenance and ray ids columns, the ray coordinates, both indexes and
    the balancing index; each fan makes its own ``Cone`` objects, with its
    own weights."""
    sigma = k4_fan.cones_of_dim(2)[3]
    heavy = k4_fan.with_weights({sigma.rayset: 2})
    for column in ("_masks", "_provenance", "_ray_ids", "_coords", "_index", "_mask_of", "_balancing"):
        assert getattr(heavy, column) is getattr(k4_fan, column), column
    assert heavy._weights != k4_fan._weights
    assert heavy.cone_with_rayset(sigma.rayset).weight == 2
    assert k4_fan.cone_with_rayset(sigma.rayset) is sigma and sigma.weight == 1
    assert [c.weight for c in heavy.cones_of_dim(heavy.max_dim)].count(2) == 1


# ---------------------------------------------------------------------------
# The mask route against the vector route


def path_on(labels):
    return Graph.from_edges(list(zip(labels, labels[1:])), labels)


def cycle_on(labels):
    return Graph.from_edges(list(zip(labels, labels[1:])) + [(labels[0], labels[-1])], labels)


K33 = Graph.from_edges([(a, b) for a in (2, 3, 4) for b in (5, 6, 7)], range(2, 8))


def assert_matches(fan: Fan, cones: dict):
    """The fan's cones, in order, have the vector route's ray coordinates,
    weights and provenance, and its JSON document is the oracle's.  The
    ``Cone`` objects it makes on demand equal those of the fan built by
    ``Fan(ambient, cones)`` from the vector route's ``Cone`` objects."""
    assert all(c.ambient == fan.ambient for c in fan.cones)
    got = [(tuple(r.coords for r in c.rays), c.weight, c.provenance) for c in fan.cones]
    assert got == vector_cones(cones)
    assert all(r.ambient == fan.ambient for c in fan.cones for r in c.rays)
    given = [cone_of_rays(rays, w, tuple(p), fan.ambient) for rays, (w, p) in cones.items()]
    built = Fan(fan.ambient, given)
    assert fan.cones == built.cones
    assert set(fan.cones) == set(given)
    assert [c.provenance for c in fan.cones] == [c.provenance for c in built.cones]
    assert fan._maximal == built._maximal
    assert fan.rays == built.rays
    assert fan_json_text(fan) == json.dumps(fan_to_json(fan), indent=2)


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_bergman_fans_match_the_vector_route(m):
    labels = tuple(range(2, m + 2))
    g = Graph.complete(labels)
    fan = bergman_fan(g)
    cones = vector_chain_fan(g, proper_flats(g))
    assert_matches(fan, cones)
    for gamma in (path_on(labels), cycle_on(labels)):
        assert_matches(project_fan(fan, gamma), vector_project_fan(cones, gamma))


MODULI_TARGETS = [
    (n, name)
    for n in (5, 6, 7)
    for name in ("complete", "path", "cycle")
] + [(7, "K33")]


@pytest.mark.parametrize("n, name", MODULI_TARGETS)
def test_moduli_fans_match_the_vector_route(n, name):
    labels = tuple(range(2, n + 1))
    ambient = Graph.complete(labels)
    gamma = {"complete": ambient, "path": path_on(labels), "cycle": cycle_on(labels), "K33": K33}[name]
    fan = moduli_fan_rad(n, gamma)
    gmask = EdgeSet.from_edges(ambient, gamma.edges).mask
    cones = vector_chain_fan(ambient, _stable_flats(n, gmask))
    assert_matches(fan, cones)
    assert_matches(project_fan(fan, gamma), vector_project_fan(cones, gamma))


def test_fan_routines_make_no_vectors(monkeypatch):
    """Building, balancing, projecting, comparing and writing fans make no
    ``QuotientVector``; the vector views make one per ray."""
    made = []
    check = QuotientVector.__post_init__

    def counted(self):
        made.append(self)
        check(self)

    monkeypatch.setattr(QuotientVector, "__post_init__", counted)
    k6 = bergman_fan(Graph.complete(range(2, 8)))
    assert is_balanced(k6).balanced
    path = path_on(tuple(range(2, 8)))
    moduli = moduli_fan_rad(7, path)
    image = project_fan(moduli, path)
    assert fans_equal(k6, Fan(k6.ambient, k6.cones[::-1]))
    assert fans_equal(image, project_fan(moduli, path))
    fan_json_text(image)
    assert len(made) == 0
    assert len(k6.rays) == len(made) == 201
