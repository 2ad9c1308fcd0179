"""Error paths of the public constructors and operations."""

from decimal import Decimal
from fractions import Fraction

import pytest

import tropfan.bergman as bergman
import tropfan.tropmoduli as tropmoduli
from tropfan import (
    ChainOfFlats,
    EdgeSet,
    Fan,
    Flat,
    Graph,
    MetricType,
    QnVector,
    QuotientVector,
    RadialType,
    closure,
    components,
    enumerate_flats,
    graph_rank,
    is_balanced,
    primitive_normal,
    psi_linear,
    ray_of_flat,
    rho_split,
    spanning_forest,
    tropical_type,
)

from conftest import closed_fan, flat_of
from oracles import cone_of_rays, make_cone, scale_vector, sub_vectors, zero_vector


def test_graph_rejects_foreign_endpoints():
    with pytest.raises(ValueError, match="outside label set"):
        Graph((2, 3), ((2, 9),))


def test_edge_set_rejects_foreign_edges(k4):
    with pytest.raises(ValueError, match="not in parent graph"):
        EdgeSet.from_edges(k4, [(2, 9)])
    with pytest.raises(ValueError, match="mask"):
        EdgeSet(k4, 1 << 10)


def test_mixed_parent_edge_sets(k4):
    """Components, rank, forests and closure refuse another graph's edge
    set, and a chain refuses flats of two graphs."""
    other = Graph.complete([2, 3, 4])
    foreign = EdgeSet.from_edges(other, [(2, 3)])
    for read in (components, graph_rank, spanning_forest, closure):
        with pytest.raises(ValueError, match="does not belong to this graph"):
            read(k4, foreign)
    with pytest.raises(ValueError, match="share a parent graph"):
        ChainOfFlats((flat_of(k4, [(2, 3)]), Flat(foreign)))


def test_quotient_vector_validation(k4):
    with pytest.raises(ValueError, match="length"):
        QuotientVector.from_raw(k4.edges, [1, 2])
    with pytest.raises(ValueError, match="end in 0"):
        QuotientVector(k4.edges, (0, 0, 0, 0, 0, 1))
    # coordinates are ints or Fractions, never floats
    for raw in ([0.5, 0, 0, 0, 0, 0], [1.0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0.5]):
        with pytest.raises(ValueError, match="ints or Fractions"):
            QuotientVector.from_raw(k4.edges, raw)
    with pytest.raises(ValueError, match="ints or Fractions"):
        QuotientVector(k4.edges, (0.5, 0, 0, 0, 0, 0))
    half = QuotientVector.from_raw(k4.edges, [Fraction(1, 2), 0, 0, 0, 0, 0])
    assert half.coords == (Fraction(1, 2), 0, 0, 0, 0, 0)
    a = zero_vector(k4.edges)
    b = zero_vector(Graph.complete([2, 3, 4]).edges)
    with pytest.raises(ValueError, match="ambient"):
        a + b


def test_ray_of_flat_needs_covering_ambient(k4):
    f = flat_of(k4, [(2, 5)])
    with pytest.raises(ValueError, match="ambient"):
        ray_of_flat(f, Graph.complete([2, 3, 4]).edges)


def test_cone_weight_must_be_positive(k4):
    r = ray_of_flat(flat_of(k4, [(2, 3)]), k4.edges)
    with pytest.raises(ValueError, match="positive"):
        make_cone([r], weight=0)


def test_fan_rejects_dependent_rays(k4):
    """A cone takes only the rays of strictly nested nonempty proper edge
    sets: dependent rays are refused, and so are independent ones that no
    such chain has, which were once accepted."""
    r = ray_of_flat(flat_of(k4, [(2, 3)]), k4.edges)
    s = ray_of_flat(flat_of(k4, [(2, 4)]), k4.edges)
    t = ray_of_flat(flat_of(k4, [(3, 4)]), k4.edges)
    with pytest.raises(ValueError, match="nonempty proper edge sets"):
        Fan(k4.edges, [make_cone([r, scale_vector(r, 2)])])
    with pytest.raises(ValueError, match="nonempty proper edge sets"):
        Fan(k4.edges, [make_cone([r, s, scale_vector(r, 2) + s])])
    k3 = Graph.complete([2, 3, 4]).edges
    a, b = QuotientVector(k3, (1, 0, 0)), QuotientVector(k3, (1, 2, 0))
    for rays in (
        [a, b],  # spans a sublattice of index two
        [scale_vector(r, 2)],
        [scale_vector(t, 3)],
        [r, s, scale_vector(t, 3)],
        [sub_vectors(r, s)],  # mixed signs
        [zero_vector(k4.edges)],
    ):
        with pytest.raises(ValueError, match="nonempty proper edge sets"):
            make_cone(rays)
    with pytest.raises(ValueError, match="strictly nested"):
        make_cone([r, s])  # {2-3} and {2-4} are incomparable
    # rays with Fraction coordinates are refused, dependent or not
    with pytest.raises(ValueError, match="integral"):
        make_cone([r, s, r + scale_vector(s, Fraction(1, 2))])
    with pytest.raises(ValueError, match="integral"):
        make_cone([r, s, scale_vector(t, Fraction(1, 3))])
    with pytest.raises(ValueError, match="integral"):
        make_cone([QuotientVector(k4.edges, (Fraction(-1), 0, 0, 0, 0, 0))])
    assert make_cone([r, r + s]).dim == 2  # {2-3} below {2-3, 2-4}


@pytest.mark.parametrize("weight", [0, -1, Fraction(3, 2)])
def test_reweighting_refuses_non_positive_integer_weights(k4, weight):
    fan = bergman.bergman_fan(k4)
    sigma = fan.cones_of_dim(fan.max_dim)[0]
    with pytest.raises(ValueError, match="positive integers"):
        fan.with_weights({sigma.rayset: weight})


def test_reweighting_refuses_a_ray_set_that_is_not_a_cone(k4):
    """A weight for a cone the fan does not have is refused, not dropped: a
    maximal cone of K5's fan is not a cone of K4's."""
    fan = bergman.bergman_fan(k4)
    k5 = bergman.bergman_fan(Graph.complete(range(2, 7)))
    foreign = k5.cones_of_dim(k5.max_dim)[0].rayset
    with pytest.raises(ValueError, match="not a cone of this fan"):
        fan.with_weights({foreign: 2})
    sigma = fan.cones_of_dim(fan.max_dim)[0]
    with pytest.raises(ValueError, match="not a cone of this fan"):
        fan.with_weights({sigma.rayset: 2, foreign: 2})
    assert fan.with_weights({sigma.rayset: 2}).cone_with_rayset(sigma.rayset).weight == 2


def test_fan_refuses_cones_over_another_ambient(k4):
    """Edge masks name rays only over one edge list, so a fan refuses K3's
    cones in K4's edge space; an equal edge list that is another tuple is
    the same ambient."""
    k3_fan = bergman.bergman_fan(Graph.complete([2, 3, 4]))
    with pytest.raises(ValueError, match="another ambient"):
        Fan(k4.edges, k3_fan.cones)
    k4_fan = bergman.bergman_fan(k4)
    assert bergman.fans_equal(Fan(list(k4.edges), k4_fan.cones), k4_fan)


def test_cone_built_directly_rejects_dependent_rays(k4):
    """Rays given as vectors, in order and with repeats kept."""
    r = ray_of_flat(flat_of(k4, [(2, 3)]), k4.edges)
    s = ray_of_flat(flat_of(k4, [(2, 4)]), k4.edges)
    with pytest.raises(ValueError, match="strictly nested"):
        cone_of_rays((r, s, r + s))
    with pytest.raises(ValueError, match="strictly nested"):
        cone_of_rays((r, r))
    with pytest.raises(ValueError, match="nonempty proper edge sets"):
        cone_of_rays((zero_vector(k4.edges),))
    assert cone_of_rays((r, r + s)).dim == 2


def test_cone_built_directly_refuses_masks_of_no_chain(k4):
    """A ``Cone`` takes the ascending masks of strictly nested nonempty
    proper edge sets over its ambient edge list, and no other masks."""
    full = (1 << len(k4.edges)) - 1
    for masks in [
        (0b11, 0b101),  # {2-3, 2-4} and {2-3, 2-5} are incomparable
        (0b11, 0b11),  # a repeated set
        (0b111, 0b11),  # nested, but descending
        (0,),  # the empty set
        (0b1, 0),
        (full,),  # the full set
        (0b1, full),
        (1 << len(k4.edges),),  # out of range: an edge the ambient lacks
        (0b1, full | 1 << len(k4.edges)),
        (-1,),
    ]:
        with pytest.raises(ValueError, match="strictly nested nonempty proper edge sets"):
            bergman.Cone(k4.edges, masks)
    assert bergman.Cone(k4.edges, (0b1, 0b11, full >> 1)).dim == 3
    assert bergman.Cone(k4.edges, ()).rays == ()


def test_fan_rejects_conflicting_weights(k4):
    r = ray_of_flat(flat_of(k4, [(2, 3)]), k4.edges)
    with pytest.raises(ValueError, match="conflicting"):
        Fan(k4.edges, [make_cone([r], weight=1), make_cone([r], weight=2)])


def test_fan_rejects_a_repeated_ray_set(k4):
    """Each ray set is given once, even with an equal weight; fibers merge
    in ``project_fan``, never in ``Fan``."""
    r = ray_of_flat(flat_of(k4, [(2, 3)]), k4.edges)
    s = ray_of_flat(flat_of(k4, [(2, 3), (2, 4), (3, 4)]), k4.edges)
    with pytest.raises(ValueError, match="conflicting"):
        Fan(k4.edges, [make_cone([r]), make_cone([r])])
    with pytest.raises(ValueError, match="conflicting"):
        Fan(k4.edges, [make_cone([r, s]), make_cone([s, r], weight=1)])
    with pytest.raises(ValueError, match="conflicting"):
        Fan(k4.edges, [make_cone([], ambient=k4.edges), make_cone([], ambient=k4.edges)])


def test_primitive_normal_needs_integral_rays(k4):
    half = QuotientVector.from_raw(k4.edges, [Fraction(1, 2), 0, 0, 0, 0, 0])
    other = ray_of_flat(flat_of(k4, [(2, 4)]), k4.edges)
    with pytest.raises(ValueError, match="integral"):
        primitive_normal(make_cone([half, other]), make_cone([other]))
    with pytest.raises(ValueError, match="integral"):
        is_balanced(closed_fan(k4.edges, [make_cone([half, other])]))


def test_broken_invariants_raise(k4, monkeypatch):
    """Library invariants are explicit checks, kept under ``python -O``."""
    monkeypatch.setattr(bergman, "graph_rank", lambda g, edges: 0)
    with pytest.raises(RuntimeError, match="dimension"):
        bergman.bergman_fan(k4)
    monkeypatch.undo()
    fan = bergman.bergman_fan(k4)
    # a basis of the same lattice, but not the rays handed in
    monkeypatch.setattr(bergman.ila, "saturation", lambda rows: [[-x for x in r] for r in rows])
    with pytest.raises(RuntimeError, match="basis"):
        is_balanced(fan)


def test_broken_moduli_invariants_raise(gamma_obstruction, monkeypatch):
    """The invariant of ``caterpillar_cof`` is an explicit check, kept under
    ``python -O``."""
    monkeypatch.setattr(tropmoduli, "graph_rank", lambda g, edges: 0)
    with pytest.raises(RuntimeError, match="loses rank"):
        tropmoduli.caterpillar_cof(gamma_obstruction)


def test_metric_type_validation():
    t = tropical_type(5, [frozenset({2, 3})])
    with pytest.raises(ValueError, match="per bounded edge"):
        MetricType(t, ())
    with pytest.raises(ValueError, match="positive"):
        MetricType(t, (Fraction(0),))


@pytest.mark.parametrize("length", [0.5, 1.0, True, "1", Decimal(1)])
def test_metric_type_refuses_non_rational_lengths(length):
    """Lengths are ints or Fractions, so the arithmetic is never floating
    point; a bool is not a length."""
    t = tropical_type(5, [frozenset({2, 3})])
    with pytest.raises(ValueError, match="ints or Fractions"):
        MetricType(t, (length,))
    assert MetricType(t, (2,)).lengths == (2,)


def test_distance_classes_refuse_floats():
    with pytest.raises(ValueError, match="ints or Fractions"):
        QnVector.from_raw(4, [0.5, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError, match="ints or Fractions"):
        psi_linear(QnVector(4, (0, 0, 0, 0.5, 0, 0)))


K4_EDGES = Graph.complete([2, 3, 4, 5]).edges


@pytest.mark.parametrize(
    "build",
    [
        lambda: QnVector(4, (True,) * 6),
        lambda: QnVector(4, (0, 0, 0, 0, 0, 1.0)),
        lambda: QnVector(4, (0, 0, 0, 0, 0, "1")),
        lambda: QnVector.from_raw(4, [True, 0, 0, 0, 0, 0]),
        lambda: QuotientVector.from_raw(K4_EDGES, [True, 0, 0, 0, 0, 0]),
        lambda: QuotientVector.from_raw(K4_EDGES, [0, 0, 0, 0, 0, False]),
        lambda: QuotientVector(K4_EDGES, (0, 0, True, 0, 0, 0)),
    ],
    ids=[
        "qn-bools",
        "qn-float",
        "qn-str",
        "qn-from-raw-bool",
        "quotient-from-raw-bool",
        "quotient-from-raw-last-bool",
        "quotient-bool",
    ],
)
def test_distance_classes_refuse_bools_and_non_rationals(build):
    """Coordinates are ints or Fractions; a bool is not a coordinate, though
    arithmetic would take it for an int."""
    with pytest.raises(ValueError, match="ints or Fractions"):
        build()


@pytest.mark.parametrize(
    "n, coords",
    [(5, (1, 2)), (4, (0,) * 5), (4, (0,) * 7), (4, (0.5,) * 5)],
)
def test_qn_vector_checks_its_shape(n, coords):
    """A vector of the wrong length is refused when built, not by an
    IndexError in ``psi_linear``; a float is named as such at any length."""
    match = "ints or Fractions" if 0.5 in coords else "pair count"
    with pytest.raises(ValueError, match=match):
        QnVector(n, coords)


@pytest.mark.parametrize("n, coords", [(-1, (0,)), (0, ()), (1, ()), (2, (0,))])
def test_qn_vector_needs_three_ends(n, coords):
    """A distance class needs at least three ends, as every metric type
    has; fewer are refused with their n named, though the pair count fits."""
    assert len(coords) == n * (n - 1) // 2
    with pytest.raises(ValueError, match=f"at least 3 ends, got n={n}"):
        QnVector(n, coords)
    assert psi_linear(QnVector(3, (0, 0, 1))).coords == (0,)


def test_qn_vector_keeps_non_canonical_representatives():
    raw = (1, 2, 3, Fraction(1, 2), 5, 6)
    assert QnVector(4, raw).coords == raw


def test_radial_type_validation():
    t = tropical_type(5, [frozenset({2, 3}), frozenset({4, 5})])
    with pytest.raises(ValueError, match="partition"):
        RadialType(t, (frozenset({1}),))
    with pytest.raises(ValueError, match="disjoint"):
        RadialType(t, (frozenset({1, 2}), frozenset({2})))
    with pytest.raises(ValueError, match="nonempty"):
        RadialType(t, (frozenset(), frozenset({1, 2})))
    nested = tropical_type(5, [frozenset({2, 3}), frozenset({2, 3, 4})])
    child, parent = 2, 1  # {2,3} sits below {2,3,4}
    with pytest.raises(ValueError, match="increase"):
        RadialType(nested, (frozenset({child}), frozenset({parent})))


def test_rho_split_validation():
    with pytest.raises(ValueError, match="avoiding end 1"):
        rho_split(5, {1, 2})
    with pytest.raises(ValueError, match="size"):
        rho_split(5, {2, 3, 4, 5})


def test_flat_enumeration_respects_labels_only():
    g = Graph((2, 3, 4, 9), ((2, 3),))
    flats = enumerate_flats(g)
    assert [f.edges.edges for f in flats] == [(), ((2, 3),)]
