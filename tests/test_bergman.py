import functools
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tropfan import (
    Fan,
    Graph,
    QuotientVector,
    bergman_fan,
    fans_equal,
    is_balanced,
    moduli_fan_rad,
    primitive_normal,
    project_fan,
    project_vector,
    ray_of_flat,
)
from tropfan import intlinalg as ila
from tropfan.bergman import _constant_on_layers, _is_unimodular

from conftest import closed_fan, flat_of
from oracles import (
    balance_per_call,
    cone_of_rays,
    echelon,
    echelon_in_span,
    edge_mask,
    fan_to_json,
    hnf,
    hnf_reduce,
    in_lattice,
    in_rational_span,
    lattice_normal,
    make_cone,
    neg_vector,
    primitive_vector,
    rational_rank,
    saturated_hnf,
    scale_vector,
    solve_in_span,
    sub_vectors,
)
from test_cone_masks import K33, cycle_on


def lattice_rows(cone):
    """A cone's rays without their last, zero, coordinate."""
    return [list(r.coords[:-1]) for r in cone.rays]


# ---------------------------------------------------------------------------
# Quotient vectors


def test_ray_of_full_flat_is_zero(k4):
    full = flat_of(k4, k4.edges)
    assert ray_of_flat(full, k4.edges).is_zero


def test_ray_of_single_edge_flat(k4, k4_flat_labels):
    got = ray_of_flat(k4_flat_labels[1], k4.edges)
    assert got.coords == (-1, 0, 0, 0, 0, 0)


def test_ray_of_disconnected_flat_canonicalizes(k4, k4_flat_labels):
    got = ray_of_flat(k4_flat_labels[11], k4.edges)
    assert got.coords == (0, 1, 1, 1, 1, 0)
    # oracle: difference from the raw representative is a multiple of all-ones
    raw = (-1, 0, 0, 0, 0, -1)
    diffs = {g - r for g, r in zip(got.coords, raw)}
    assert len(diffs) == 1


@settings(max_examples=100)
@given(
    coords=st.lists(st.integers(-9, 9), min_size=6, max_size=6),
    k=st.integers(-5, 5),
)
def test_canonical_form_mod_all_ones(coords, k):
    ambient = Graph.complete([2, 3, 4, 5]).edges
    shifted = [c + k for c in coords]
    assert QuotientVector.from_raw(ambient, coords) == QuotientVector.from_raw(
        ambient, shifted
    )


def test_quotient_vector_arithmetic(k4):
    a = QuotientVector.from_raw(k4.edges, [1, 0, 0, 0, 0, 0])
    b = QuotientVector.from_raw(k4.edges, [0, 2, 0, 0, 0, 0])
    assert (a + b).coords == (1, 2, 0, 0, 0, 0)
    assert sub_vectors(a, b).coords == (1, -2, 0, 0, 0, 0)
    assert scale_vector(a, Fraction(1, 2)).coords == (Fraction(1, 2), 0, 0, 0, 0, 0)
    assert neg_vector(a).coords == (-1, 0, 0, 0, 0, 0)


def test_primitive_direction():
    """The oracles' primitive direction; a cone needs none, since the ray of
    an edge set is primitive."""
    assert primitive_vector([4, 6, 0]) == [2, 3, 0]
    assert primitive_vector([-2, 0, 6]) == [-1, 0, 3]
    assert primitive_vector([0, 0]) == [0, 0]


# ---------------------------------------------------------------------------
# Fan construction


def test_bergman_fan_k4_structure(k4):
    fan = bergman_fan(k4)
    assert len(fan.rays) == 13
    assert len(fan.cones_of_dim(2)) == 18
    assert fan.max_dim == 2 and fan.is_pure
    assert fan.census() == (1, 13, 18)


def test_bergman_fan_k3():
    fan = bergman_fan(Graph.complete([2, 3, 4]))
    assert len(fan.rays) == 3
    assert fan.max_dim == 1


def test_bergman_fan_k2():
    fan = bergman_fan(Graph.complete([2, 3]))
    assert fan.max_dim == 0
    assert fan.census() == (1,)


def test_complete_fans_pure_of_expected_dimension():
    for m in (3, 4, 5):
        fan = bergman_fan(Graph.complete(range(2, m + 2)))
        assert fan.is_pure
        assert fan.max_dim == m - 2


def test_cone_dim_equals_chain_length(k4):
    fan = bergman_fan(k4)
    for cone in fan.cones:
        assert cone.dim == len(cone.provenance[0])


# ---------------------------------------------------------------------------
# Primitive normals


def test_primitive_normal_of_ray_at_origin(k4, k4_flat_labels):
    ray = ray_of_flat(k4_flat_labels[1], k4.edges)
    sigma = make_cone([ray])
    tau = make_cone([], ambient=k4.edges)
    u = primitive_normal(sigma, tau)
    assert u.coords == ray.coords  # already primitive


def test_primitive_normal_scaling_invariance(k4, k4_flat_labels):
    """Scaling sigma's extra ray leaves its normal unchanged.  A cone
    refuses a scaled ray, so the generic closed form is checked on rows,
    against the normal of the unscaled cone."""
    r1 = ray_of_flat(k4_flat_labels[1], k4.edges)
    r11 = ray_of_flat(k4_flat_labels[11], k4.edges)
    u = primitive_normal(make_cone([r1, r11]), make_cone([r11]))
    m = len(k4.edges) - 1
    row1, row11 = list(r1.coords[:-1]), list(r11.coords[:-1])
    expected = hnf_reduce(hnf([row11]), list(u.coords[:-1]))
    assert lattice_normal([row11], row1, m) == expected
    assert lattice_normal([row11], [3 * x for x in row1], m) == expected
    assert lattice_normal([], [3 * x for x in row1], m) == row1


def test_primitive_normal_generates_quotient(k4, k4_flat_labels):
    """Lattice oracle: tau's basis plus u spans sigma's saturation, while
    tau's basis plus 2u does not."""
    r1 = ray_of_flat(k4_flat_labels[1], k4.edges)
    r11 = ray_of_flat(k4_flat_labels[11], k4.edges)
    sigma = make_cone([r1, r11])
    tau = make_cone([r11])
    u = primitive_normal(sigma, tau)
    m = len(k4.edges) - 1
    basis_sigma = saturated_hnf([r.coords[:-1] for r in sigma.rays], m)
    basis_tau = [list(r.coords[:-1]) for r in tau.rays]
    with_u = hnf(basis_tau + [list(u.coords[:-1])])
    with_2u = hnf(basis_tau + [[2 * c for c in u.coords[:-1]]])
    assert with_u == basis_sigma
    assert with_2u != basis_sigma
    # u is congruent to the missing ray modulo tau's span
    diff = sub_vectors(u, r1)
    assert in_lattice(hnf(basis_tau), list(diff.coords[:-1])) or all(
        c % 1 == 0 for c in diff.coords
    )


def test_primitive_normal_rejects_non_face(k4, k4_flat_labels):
    r1 = ray_of_flat(k4_flat_labels[1], k4.edges)
    r2 = ray_of_flat(k4_flat_labels[2], k4.edges)
    with pytest.raises(ValueError, match="face"):
        primitive_normal(make_cone([r1]), make_cone([r2]))
    with pytest.raises(ValueError, match="codimension"):
        primitive_normal(make_cone([r1]), make_cone([r1]))


def test_every_normal_generates_in_k4_fan(k4):
    fan = bergman_fan(k4)
    m = len(k4.edges) - 1
    for tau in fan.cones_of_dim(1):
        basis_tau = [list(r.coords[:-1]) for r in tau.rays]
        for sigma in fan.cones_of_dim(2):
            if not tau.rayset <= sigma.rayset:
                continue
            u = primitive_normal(sigma, tau)
            basis_sigma = saturated_hnf([r.coords[:-1] for r in sigma.rays], m)
            assert hnf(basis_tau + [list(u.coords[:-1])]) == basis_sigma


def test_every_normal_generates_in_k5_fan():
    k5 = Graph.complete(range(2, 7))
    fan = bergman_fan(k5)
    m = len(k5.edges) - 1
    maximal = fan.cones_of_dim(fan.max_dim)
    for tau in fan.cones_of_dim(fan.max_dim - 1):
        basis_tau = saturated_hnf([list(r.coords[:-1]) for r in tau.rays], m)
        for sigma in maximal:
            if not tau.rayset <= sigma.rayset:
                continue
            u = primitive_normal(sigma, tau)
            basis_sigma = saturated_hnf([r.coords[:-1] for r in sigma.rays], m)
            assert hnf(basis_tau + [list(u.coords[:-1])]) == basis_sigma
            assert hnf(basis_tau + [[2 * c for c in u.coords[:-1]]]) != basis_sigma


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_generic_normal_matches_lattice_definition(data):
    """The oracles' closed form on integer simplicial cones with no unit
    pivot, which no ``Cone`` holds: tau's saturated basis plus u spans
    sigma's saturation and plus 2u does not, u is reduced modulo tau's
    lattice, and u points into sigma."""
    m = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(1, m))
    entries = st.sampled_from([0, 0, 2, -2, 3, -3, 4, 5, -6])
    rows = data.draw(
        st.lists(st.lists(entries, min_size=m, max_size=m), min_size=k, max_size=k)
    )
    independent, _, unit = echelon(rows)
    assume(len(independent) == k and not unit)
    drop = data.draw(st.integers(0, k - 1))
    extra, tau_rows = rows[drop], rows[:drop] + rows[drop + 1:]
    u = lattice_normal(tau_rows, extra, m)
    basis_tau = saturated_hnf(tau_rows, m)
    basis_sigma = saturated_hnf(rows, m)
    assert hnf(basis_tau + [u]) == basis_sigma
    assert hnf(basis_tau + [[2 * c for c in u]]) != basis_sigma
    assert hnf_reduce(basis_tau, u) == u
    coeffs = solve_in_span(tau_rows + [extra], u)
    assert coeffs is not None and coeffs[-1] > 0


# ---------------------------------------------------------------------------
# Balancing


def test_k3_fan_balances_by_hand():
    k3 = Graph.complete([2, 3, 4])
    fan = bergman_fan(k3)
    total = [0, 0, 0]
    for cone in fan.cones_of_dim(1):
        u = primitive_normal(cone, make_cone([], ambient=k3.edges))
        total = [a + b for a, b in zip(total, u.coords)]
    assert total == [0, 0, 0]
    assert is_balanced(fan).balanced


def test_k4_fan_balanced(k4):
    assert is_balanced(bergman_fan(k4)).balanced


def test_single_perturbed_weight_breaks_balance(k4):
    fan = bergman_fan(k4)
    sigma = fan.cones_of_dim(2)[0]
    report = is_balanced(fan.with_weights({sigma.rayset: 2}))
    assert not report.balanced
    assert report.failing_face is not None
    assert report.failing_face.rayset <= sigma.rayset


def test_balancing_requires_pure_fan(k4, k4_flat_labels):
    r1 = ray_of_flat(k4_flat_labels[1], k4.edges)
    r7 = ray_of_flat(k4_flat_labels[7], k4.edges)
    r12 = ray_of_flat(k4_flat_labels[12], k4.edges)
    fan = closed_fan(k4.edges, [make_cone([r1, r7]), make_cone([r12])])
    with pytest.raises(ValueError, match="pure"):
        is_balanced(fan)


def test_fan_missing_a_face_is_refused(k4):
    """A 2-cone without its rays is not a fan: reading its maximal rows
    refuses it, where the origin used to count as maximal and balancing
    called the fan impure."""
    fan = bergman_fan(k4)
    broken = Fan(fan.ambient, [fan.cones_of_dim(2)[0]])
    for read in (
        lambda: broken._rows.maximal,
        lambda: broken.is_pure,
        lambda: is_balanced(broken),
        lambda: fans_equal(broken, fan),
        lambda: fans_equal(fan, broken),
        lambda: broken.with_weights({}),
    ):
        with pytest.raises(ValueError, match="not closed under faces"):
            read()


@functools.cache
def rayset_of(cone):
    """``cone.rayset``, which makes the rays on each call, made once per cone."""
    return cone.rayset


def quadratic_scan(fan, normals):
    """The generic balancing check: every codimension-one face against every
    maximal cone, primitive normals by the oracles' closed form, rational
    span test.  ``normals`` memoizes the normals by ray sets, which weights
    do not change."""
    m = len(fan.ambient) - 1
    maximal = [(sigma, rayset_of(sigma)) for sigma in fan.cones_of_dim(fan.max_dim)]
    for tau in fan.cones_of_dim(fan.max_dim - 1):
        total = [0] * m
        tau_rays = rayset_of(tau)
        for sigma, sigma_rays in maximal:
            if tau_rays <= sigma_rays:
                key = (sigma_rays, tau_rays)
                if key not in normals:
                    (extra,) = sigma_rays - tau_rays
                    normals[key] = lattice_normal(lattice_rows(tau), extra.coords[:-1], m)
                total = [t + sigma.weight * c for t, c in zip(total, normals[key])]
        if any(total) and not in_rational_span(lattice_rows(tau), total):
            return False, tau
    return True, None


ORACLE_FANS = {
    "K3": lambda: bergman_fan(Graph.complete([2, 3, 4])),
    "K4": lambda: bergman_fan(Graph.complete([2, 3, 4, 5])),
    "K5": lambda: bergman_fan(Graph.complete(range(2, 7))),
    "M05": lambda: moduli_fan_rad(5, "complete"),
}


@pytest.mark.parametrize("name", sorted(ORACLE_FANS))
def test_missing_ray_is_the_primitive_normal(name):
    """On chain cones the primitive normal is the ray tau lacks, and it
    equals the oracles' closed form modulo tau's lattice."""
    fan = ORACLE_FANS[name]()
    m = len(fan.ambient) - 1
    for sigma in fan.cones_of_dim(fan.max_dim):
        for ray in sigma.rays:
            tau = make_cone(sigma.rayset - {ray}, ambient=fan.ambient)
            assert primitive_normal(sigma, tau) == ray
            tau_rows = lattice_rows(tau)
            got = list(ray.coords[:-1])
            if tau_rows:
                got = hnf_reduce(hnf(tau_rows), got)
            assert got == lattice_normal(tau_rows, ray.coords[:-1], m)


@pytest.mark.parametrize("name", ["K4", "K5"])
def test_every_single_cone_doubling_matches_quadratic_scan(name):
    fan = ORACLE_FANS[name]()
    normals = {}
    assert quadratic_scan(fan, normals) == (True, None)
    for sigma in fan.cones_of_dim(fan.max_dim):
        perturbed = fan.with_weights({sigma.rayset: 2})
        report = is_balanced(perturbed)
        expected = quadratic_scan(perturbed, normals)
        assert (report.balanced, report.failing_face) == expected
        assert not report.balanced


QUADRATIC_NORMALS: dict = {}  # quadratic_scan's memo per fan; weights do not change it


@functools.cache
def oracle_fan(name):
    """``ORACLE_FANS[name]``, built once for the property tests."""
    return ORACLE_FANS[name]()


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(["K4", "K5"]), data=st.data())
def test_random_weights_match_quadratic_scan(name, data):
    """Weights 1..3 on every maximal cone, or one weight on all of them: the
    layer test reports the verdict and the first failing face of the
    generic scan and of the per-call body, with the memo of every earlier
    example's copy of the same fan."""
    fan = oracle_fan(name)
    maximal = fan.cones_of_dim(fan.max_dim)
    if data.draw(st.booleans()):
        weights = [data.draw(st.integers(1, 3))] * len(maximal)
    else:
        size = len(maximal)
        weights = data.draw(st.lists(st.integers(1, 3), min_size=size, max_size=size))
    reweighted = fan.with_weights({c.rayset: w for c, w in zip(maximal, weights)})
    report = is_balanced(reweighted)
    expected = quadratic_scan(reweighted, QUADRATIC_NORMALS.setdefault(name, {}))
    assert (report.balanced, report.failing_face) == expected == balance_per_call(reweighted)


def test_reweighted_fan_equals_the_fan_built_from_its_cones():
    """``with_weights`` carries over its parent's cone order, index by
    dimension, masks and maximal cones; building the reweighted cones into a
    fan from scratch gives the same."""
    fan = oracle_fan("K5")
    maximal = fan.cones_of_dim(fan.max_dim)
    reweighted = fan.with_weights({maximal[3].rayset: 2, maximal[7].rayset: 3})
    rebuilt = Fan(fan.ambient, reweighted.cones[::-1])
    assert reweighted.cones == rebuilt.cones
    top = reweighted.cones_of_dim(fan.max_dim)
    assert top == rebuilt.cones_of_dim(fan.max_dim)
    assert reweighted._rows.maximal == rebuilt._rows.maximal
    assert reweighted.census() == rebuilt.census() == fan.census()
    assert [c.weight for c in top].count(1) == len(maximal) - 2
    assert reweighted.cone_with_rayset(maximal[7].rayset).weight == 3
    assert fan.cone_with_rayset(maximal[7].rayset).weight == 1


def test_k3_cone_doubling_is_unbalanced():
    """K3's fan is three rays around the origin, whose one layer is every
    edge: doubling one ray leaves a weighted sum that is not constant
    there.  A layer test that skips the layer outside the chain passes it."""
    fan = bergman_fan(Graph.complete([2, 3, 4]))
    for sigma in fan.cones_of_dim(1):
        report = is_balanced(fan.with_weights({sigma.rayset: 2}))
        assert (report.balanced, report.failing_face) == (False, fan.cones[0])


LAYER_FANS = {
    "K3": lambda: bergman_fan(Graph.complete([2, 3, 4])),
    "K6": lambda: bergman_fan(Graph.complete(range(2, 8))),
    **{
        f"M07-{name}-image": lambda name=name: project_fan(
            moduli_fan_rad(7, SEVEN_END_TARGETS[name]), SEVEN_END_TARGETS[name]
        )
        for name in ("tripartite", "path")
    },
}


@pytest.mark.parametrize("name", sorted(LAYER_FANS))
def test_layer_test_matches_echelon_span_test(name):
    """On every codimension-one face, with weight one on its star and with
    weights 1, 2, 3, ... in star order, the layer test agrees with the span
    test on the oracles' integer echelon form.  Stars are found by ray sets
    here, not by the edge masks ``is_balanced`` keys them by."""
    fan = LAYER_FANS[name]()
    star = {}
    for sigma in fan.cones_of_dim(fan.max_dim):
        for ray in sigma.rays:
            star.setdefault(sigma.rayset - {ray}, []).append(ray)
    full = (1 << len(fan.ambient)) - 1
    verdicts = set()
    for tau in fan.cones_of_dim(fan.max_dim - 1):
        normals = star.get(tau.rayset, [])
        for weights in ([1] * len(normals), range(1, len(normals) + 1)):
            total = [0] * len(fan.ambient)
            for w, ray in zip(weights, normals):
                total = [t + w * c for t, c in zip(total, ray.coords)]
            layered = _constant_on_layers(
                tau.masks, [(edge_mask(r), w) for w, r in zip(weights, normals)], full
            )
            assert layered == echelon_in_span([r.coords for r in tau.rays], total)
            verdicts.add(layered)
    assert verdicts == {True, False}


def ray_row(edge_set, m):
    """The ray of a set of edges 0..m (the class of minus its indicator) as
    canonical coordinates without the last, zero, one."""
    raw = [-int(i in edge_set) for i in range(m + 1)]
    return [c - raw[-1] for c in raw[:-1]]


def edge_set_of(row):
    """The edge set whose ray a row is, by the definition: the row and a
    trailing 0, shifted along the all-ones line, is minus the set's
    indicator, so it takes two values one apart, the lower on the set.  None
    for a row that is the ray of no nonempty proper set."""
    v = list(row) + [0]
    low, high = min(v), max(v)
    if high - low != 1 or set(v) != {low, high}:
        return None
    return frozenset(i for i, c in enumerate(v) if c == low)


@st.composite
def chain_rows(draw):
    """Rows that are often the rays of a chain of edge sets, in any order:
    distinct cuts of a random edge order, sometimes with one flaw (an entry
    changed, a repeated, empty or full cut, or one more set of any edges)."""
    m = draw(st.integers(1, 5))
    order = draw(st.permutations(range(m + 1)))
    cuts = draw(st.lists(st.integers(1, m), unique=True, max_size=4))
    sets = [set(order[:c]) for c in cuts]
    flaw = draw(st.sampled_from([None, None, "entry", "cut", "set"]))
    if flaw == "cut":
        sets.append(set(order[: draw(st.sampled_from([0, m + 1] + cuts))]))
    elif flaw == "set":
        sets.append(draw(st.sets(st.integers(0, m))))
    rows = draw(st.permutations([ray_row(e, m) for e in sets]))
    if flaw == "entry" and rows:
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, m - 1))
        rows[i][j] = draw(st.sampled_from([-2, -1, 0, 1, 2, 3, Fraction(1, 2)]))
    return rows


def cone_on(rows):
    """The cone on rational rows (quotient vectors ending in 0), keeping
    repeated rows."""
    ambient = tuple((2, j) for j in range(3, len(rows[0]) + 4)) if rows else ()
    return cone_of_rays([QuotientVector(ambient, tuple(r) + (0,)) for r in rows], ambient=ambient)


@settings(max_examples=400, deadline=None)
@given(rows=chain_rows())
@example(rows=[[1, 1], [1, -1]])  # independent, of mixed sign
@example(rows=[[2, 0], [0, 1]])  # independent, with a scaled ray
@example(rows=[[Fraction(2, 3), 0], [0, 1]])  # independent, but not integral
@example(rows=[[Fraction(2, 1), 0], [0, 1]])  # an integral value held as a Fraction
@example(rows=[[1, 1], [1, 1]])
@example(rows=[[-1, 0], [0, -1]])  # independent rays of incomparable sets
@example(rows=[[1, 0], [1, 1]])  # the sets {1, 2} and {2} of edges 0..2
def test_cone_accepts_exactly_the_nested_edge_sets(rows):
    """Rows make a cone exactly when they are the rays of strictly nested
    nonempty proper edge sets with int coordinates, read off by definition;
    such rays are independent and a basis of the lattice points of their
    span, and ``_is_unimodular`` certifies them."""
    sets = [edge_set_of(r) for r in rows]
    integral = all(type(c) is int for r in rows for c in r)
    if integral and None not in sets and all(a < b or b < a for a, b in combinations(sets, 2)):
        assert cone_on(rows).dim == len(rows) == rational_rank(rows)
        if rows:
            assert hnf(rows) == saturated_hnf(rows, len(rows[0]))
            assert _is_unimodular(rows)
    else:
        with pytest.raises(ValueError, match="cone rays must be"):
            cone_on(rows)


@pytest.mark.parametrize(
    "rows",
    [
        [[Fraction(2, 3), 0], [0, 1]],  # independent once cleared
        [[Fraction(1, 2), 0], [1, 1]],  # odd once cleared
        [[0, Fraction(-1, 3)]],
        [[0.5, 0], [0, 1]],  # a float vector is refused before it is a ray
    ],
)
def test_cone_refuses_non_integer_rays(rows):
    """A Fraction or float ray is refused, and named as such."""
    with pytest.raises(ValueError, match="integral|ints or Fractions"):
        cone_on(rows)


def hermite_unimodular(rows):
    """The Hermite route: integer rows whose Hermite form equals that of
    their saturation."""
    lattice = hnf(rows)
    return len(lattice) == len(rows) and lattice == saturated_hnf(rows, len(rows[0]))


@pytest.fixture
def fallbacks(monkeypatch):
    """Records the rows of each ``saturation`` call that refuses them, as
    it does when its unit pivots run out."""
    calls = []
    original = ila.saturation

    def counted(rows):
        try:
            return original(rows)
        except ValueError:
            calls.append(rows)
            raise

    monkeypatch.setattr(ila, "saturation", counted)
    return calls


@settings(max_examples=300, deadline=None)
@given(
    rows=st.integers(1, 4).flatmap(
        lambda ncols: st.lists(
            st.lists(st.sampled_from([0, 0, 1, -1, 2, -2, 3, 4]), min_size=ncols, max_size=ncols),
            min_size=1,
            max_size=ncols,
        )
    )
)
def test_is_unimodular_matches_hermite_route(rows):
    """The certificate is sound: rows it accepts are a basis of their
    saturation by the Hermite route.  It is complete on rows that unit
    pivots reduce (the oracles' ``echelon`` then reports unit pivots
    only), as every chain's rays are."""
    assume(rational_rank(rows) == len(rows))  # a cone's rays are independent
    if _is_unimodular(rows):
        assert hermite_unimodular(rows)
    if echelon(rows)[2]:
        assert _is_unimodular(rows)


@pytest.mark.parametrize(
    "rows, expected, fallback",
    [
        ([[2, 3]], True, True),  # saturated, but no unit entry: refused
        ([[2, 3], [3, 5]], True, True),  # determinant 1, no unit entry: refused
        ([[2, 4]], False, True),  # index 2 in its saturation
        ([[1, 0], [1, 2]], False, True),  # index 2
        ([[1, 0], [1, 1]], True, False),
        ([[-1, -1, 0], [0, -1, 0]], True, False),
    ],
)
def test_is_unimodular_examples(rows, expected, fallback, fallbacks):
    """``expected`` is the Hermite route's verdict; the certificate holds
    only when it does, and never on rows ``saturation`` refuses.  It is
    sound on all rows and complete on rows that unit pivots reduce, so the
    saturated rows with no unit entry are refused, not certified."""
    certified = _is_unimodular(rows)
    assert bool(fallbacks) is fallback
    assert hermite_unimodular(rows) is expected
    assert certified <= expected
    assert certified or fallback


def path_on(n):
    return Graph.from_edges([(v, v + 1) for v in range(2, n)])


SEVEN_END_TARGETS = {
    "tripartite": Graph.from_edges(
        [(a, b) for a in range(2, 8) for b in range(a + 1, 8) if (a - 2) // 2 != (b - 2) // 2]
    ),
    "path": path_on(7),
}

UNIT_PIVOT_FANS = {
    **{f"K{m}": lambda m=m: bergman_fan(Graph.complete(range(2, m + 2))) for m in (3, 4, 5, 6)},
    **{f"M0{n}": lambda n=n: moduli_fan_rad(n, "complete") for n in (5, 6)},
    **{f"M0{n}-path": lambda n=n: moduli_fan_rad(n, path_on(n)) for n in (5, 6)},
    **{
        f"M07-{name}-image": lambda g=g: project_fan(moduli_fan_rad(7, g), g)
        for name, g in SEVEN_END_TARGETS.items()
    },
}


@pytest.mark.parametrize("name", sorted(UNIT_PIVOT_FANS))
def test_chains_of_flats_take_unit_pivots(name, fallbacks):
    """Every cone of these fans builds, so its rays are those of a chain of
    edge sets, and is certified by ``saturation``'s unit pivots, with no
    refusal."""
    fan = UNIT_PIVOT_FANS[name]()
    cones = [c for c in fan.cones if c.dim]
    assert cones and all(_is_unimodular(lattice_rows(c)) for c in cones)
    assert fallbacks == []


MODULI_SHAPES = {
    "complete": "complete",
    "K33": K33,
    "path": path_on(7),
    "cycle": cycle_on(range(2, 8)),
}
MODULI_MAXIMAL_CONES = {"complete": 2700, "K33": 1152, "path": 408, "cycle": 588}  # 4,848 in all


@pytest.mark.parametrize("shape", sorted(MODULI_SHAPES))
def test_moduli_cones_saturate_to_themselves(shape, fallbacks):
    """Every maximal cone of the moduli fan on 7 ends, for the stability
    graphs of the benchmark's four shapes (complete, K3,3, path and
    6-cycle on 2..7), is certified with no refusal, and its rays are a
    basis of their saturation by the Hermite route."""
    fan = moduli_fan_rad(7, MODULI_SHAPES[shape])
    cones = fan.cones_of_dim(fan.max_dim)
    for cone in cones:
        rows = lattice_rows(cone)
        assert _is_unimodular(rows)
        assert hnf(rows) == saturated_hnf(rows, len(rows[0]))
    assert fallbacks == []
    assert len(cones) == MODULI_MAXIMAL_CONES[shape]


def test_fallback_cones_are_counted(fallbacks):
    """The index-two cone's rays and a doubled ray, which no cone holds any
    more, run out of unit pivots: the certificate fails on both, by one
    refusal each."""
    assert not _is_unimodular([[1, 0], [1, 2]])
    assert not _is_unimodular([[2, 0]])
    assert len(fallbacks) == 2


# ---------------------------------------------------------------------------
# Projection


def test_project_to_itself_is_identity(k4):
    fan = bergman_fan(k4)
    assert fans_equal(project_fan(fan, k4), fan)


def test_project_ray_collision(k4, k4_flat_labels, gamma_obstruction):
    r9 = ray_of_flat(k4_flat_labels[9], k4.edges)
    r3 = ray_of_flat(k4_flat_labels[3], k4.edges)
    assert project_vector(r9, gamma_obstruction) == project_vector(
        r3, gamma_obstruction
    )


def test_project_requires_complete_ambient(gamma_obstruction):
    fan = bergman_fan(gamma_obstruction)
    with pytest.raises(ValueError, match="complete"):
        project_fan(fan, gamma_obstruction)


def test_projected_fan_equals_bergman_fan_of_subgraph(k4, gamma_obstruction):
    projected = project_fan(bergman_fan(k4), gamma_obstruction)
    assert fans_equal(projected, bergman_fan(gamma_obstruction))


# ---------------------------------------------------------------------------
# Structural equality and serialization


def test_fans_equal_under_shuffle(k4):
    fan = bergman_fan(k4)
    shuffled = list(fan.cones)[::-1]
    from tropfan import Fan

    assert fans_equal(fan, Fan(k4.edges, shuffled))


def test_fans_differ_when_ray_dropped(k4):
    fan = bergman_fan(k4)
    from tropfan import Fan

    keep = [c for c in fan.cones if c.dim < fan.max_dim][:-1]
    smaller = Fan(k4.edges, keep)
    assert not fans_equal(fan, smaller)


def test_fan_json_shape(k4):
    doc = fan_to_json(bergman_fan(k4))
    assert doc["schema"] == 1
    assert doc["ambient"][0] == "2-3"
    assert len(doc["rays"]) == 13
    assert len(doc["cones"]) == 1 + 13 + 18
    maximal = [c for c in doc["cones"] if len(c["rays"]) == 2]
    assert all(c["weight"] == 1 for c in maximal)
    assert all(len(c["provenance"]) == 1 for c in doc["cones"])
    # each cone's chain, read off its masks over K4, lists its flats' edges
    for c in doc["cones"]:
        (chain,) = c["provenance"]
        assert len(chain) == len(c["rays"]) and all(chain)
        assert all(set(a) < set(b) for a, b in zip(chain, chain[1:] + [doc["ambient"]]))
    import json

    assert json.dumps(doc) == json.dumps(fan_to_json(bergman_fan(k4)))
