from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import tropfan.bergman as bergman
from tropfan import (
    Cone,
    Fan,
    Graph,
    QuotientVector,
    bergman_fan,
    fan_to_json,
    fans_equal,
    is_balanced,
    make_cone,
    moduli_fan_rad,
    primitive_normal,
    project_fan,
    project_vector,
    ray_of_flat,
)
from tropfan import intlinalg as ila
from tropfan.bergman import _is_unimodular, _rank
from tropfan.intlinalg import hnf, hnf_reduce, orthogonal_complement

from conftest import closed_fan, flat_of
from oracles import in_lattice, in_rational_span, rational_rank, solve_in_span


def saturated_hnf(rows, m):
    """Lattice oracle: the Hermite form of the saturation of ``rows`` in
    Z^m, by double orthogonal complement."""
    return hnf(orthogonal_complement(orthogonal_complement(rows, m), m))


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
    assert (a - b).coords == (1, -2, 0, 0, 0, 0)
    assert a.scale(Fraction(1, 2)).coords == (Fraction(1, 2), 0, 0, 0, 0, 0)
    assert (-a).coords == (-1, 0, 0, 0, 0, 0)


def test_primitive_direction():
    ambient = Graph.complete([2, 3, 4]).edges
    v = QuotientVector.from_raw(ambient, [4, 6, 0])
    assert v.primitive() == (2, 3, 0)
    w = QuotientVector.from_raw(ambient, [Fraction(1, 2), Fraction(3, 2), 0])
    assert w.primitive() == (1, 3, 0)


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
    tau = make_cone([])
    u = primitive_normal(sigma, tau)
    assert u.coords == ray.coords  # already primitive


def test_primitive_normal_scaling_invariance(k4, k4_flat_labels):
    r1 = ray_of_flat(k4_flat_labels[1], k4.edges)
    r11 = ray_of_flat(k4_flat_labels[11], k4.edges)
    sigma = make_cone([r1, r11])
    tau = make_cone([r11])
    u = primitive_normal(sigma, tau)
    scaled_sigma = make_cone([r1.scale(3), r11])
    assert primitive_normal(scaled_sigma, tau).coords == u.coords
    scaled_ray = make_cone([r1.scale(3)])
    assert primitive_normal(scaled_ray, make_cone([])).coords == r1.coords


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
    diff = u - r1
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
    """On integer simplicial cones with no unit pivot: tau's saturated basis
    plus u spans sigma's saturation and plus 2u does not, u is reduced
    modulo tau's lattice, and u points into sigma."""
    m = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(1, m))
    entries = st.sampled_from([0, 0, 2, -2, 3, -3, 4, 5, -6])
    rows = data.draw(
        st.lists(st.lists(entries, min_size=m, max_size=m), min_size=k, max_size=k)
    )
    independent, _, unit = ila.echelon(rows)
    assume(len(independent) == k and not unit)
    drop = data.draw(st.integers(0, k - 1))
    extra, tau_rows = rows[drop], rows[:drop] + rows[drop + 1:]
    sigma = cone_of_rows(rows)
    tau = make_cone(r for r in sigma.rays if list(r.coords[:-1]) != extra)
    u = list(primitive_normal(sigma, tau).coords[:-1])
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
        u = primitive_normal(cone, make_cone([]))
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
    """A 2-cone without its rays is not a fan: reading its maximal cones
    refuses it, where the origin used to count as maximal and balancing
    called the fan impure."""
    fan = bergman_fan(k4)
    broken = Fan(fan.ambient, [fan.cones_of_dim(2)[0]])
    for read in (
        lambda: broken.maximal_cones,
        lambda: broken.is_pure,
        lambda: is_balanced(broken),
        lambda: fans_equal(broken, fan),
        lambda: fans_equal(fan, broken),
    ):
        with pytest.raises(ValueError, match="not closed under faces"):
            read()


def quadratic_scan(fan, normals):
    """The generic balancing check: every codimension-one face against every
    maximal cone, generic primitive normals, rational span test.  ``normals``
    memoizes primitive_normal by ray sets, which weights do not change."""
    maximal = fan.cones_of_dim(fan.max_dim)
    for tau in fan.cones_of_dim(fan.max_dim - 1):
        total = QuotientVector.zero(fan.ambient)
        for sigma in maximal:
            if tau.rayset <= sigma.rayset:
                key = (sigma.rayset, tau.rayset)
                if key not in normals:
                    normals[key] = primitive_normal(sigma, tau)
                total = total + normals[key].scale(sigma.weight)
        if not total.is_zero and not in_rational_span(
            [r.coords for r in tau.rays], total.coords
        ):
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
    """On unimodular cones the remaining ray, reduced modulo tau's lattice,
    is the generic primitive normal."""
    fan = ORACLE_FANS[name]()
    for sigma in fan.cones_of_dim(fan.max_dim):
        assert _is_unimodular(sigma)
        for ray in sigma.rays:
            tau = make_cone(sigma.rayset - {ray})
            tau_rows = [list(r.coords[:-1]) for r in tau.rays]
            shortcut = list(ray.coords[:-1])
            if tau_rows:
                shortcut = hnf_reduce(hnf(tau_rows), shortcut)
            assert tuple(shortcut) + (0,) == primitive_normal(sigma, tau).coords


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


def index_two_fan():
    """A complete fan in the plane (coordinates x, y of the quotient of K3's
    edge space) whose cone on a = (1, 0) and b = (1, 2) spans a sublattice of
    index 2.  At a, the remaining rays b and d would sum to (1, 1), off a's
    span; the primitive normals (0, 1) and (0, -1) cancel."""
    ambient = Graph.complete([2, 3, 4]).edges
    a, b, c, d = (
        QuotientVector(ambient, (x, y, 0))
        for x, y in [(1, 0), (1, 2), (-1, -1), (0, -1)]
    )
    cones = [make_cone(pair) for pair in [(a, b), (b, c), (c, d), (d, a)]]
    return closed_fan(ambient, cones), make_cone([a, b])


def test_index_two_cone_takes_the_fallback():
    fan, sigma = index_two_fan()
    assert not _is_unimodular(sigma)
    assert all(
        _is_unimodular(c) for c in fan.cones_of_dim(2) if c.rayset != sigma.rayset
    )
    report = is_balanced(fan)
    assert report.balanced
    assert (report.balanced, report.failing_face) == quadratic_scan(fan, {})
    perturbed = fan.with_weights({sigma.rayset: 2})
    report = is_balanced(perturbed)
    assert not report.balanced
    assert report.failing_face.rayset < sigma.rayset
    assert (report.balanced, report.failing_face) == quadratic_scan(perturbed, {})


def test_non_primitive_ray_takes_the_fallback():
    ambient = Graph.complete([2, 3, 4]).edges
    doubled = QuotientVector(ambient, (2, 0, 0))
    unit = QuotientVector(ambient, (-1, 0, 0))
    fan = Fan(ambient, [make_cone([doubled]), make_cone([unit])])
    assert is_balanced(fan).balanced
    assert not is_balanced(fan.with_weights({frozenset([doubled]): 2})).balanced


integer_entries = st.integers(-4, 4)
entries = st.one_of(
    integer_entries,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def rational_matrices(draw, entries=entries):
    """Small rational matrices with some zero rows and some rows that are
    combinations of earlier ones."""
    ncols = draw(st.integers(1, 5))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["free", "zero", "combination"]))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "combination" and rows:
            coeffs = draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
            combo = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)]
            rows.append(combo)
        else:
            rows.append(draw(st.lists(entries, min_size=ncols, max_size=ncols)))
    return rows


@settings(max_examples=300)
@given(rows=rational_matrices(integer_entries))
def test_integer_rank_matches_rational_rank(rows):
    """``_rank`` takes integer rows only: a cone refuses Fraction rays
    before ranking them (``test_cone_accepts_exactly_the_independent_rows``)."""
    assert _rank(rows) == rational_rank(rows)


def cone_on(rows):
    """``Cone`` built straight from rational rows (quotient vectors ending
    in 0), keeping repeated rows."""
    ambient = tuple((2, j) for j in range(3, len(rows[0]) + 4)) if rows else ()
    return Cone(tuple(QuotientVector(ambient, tuple(r) + (0,)) for r in rows))


@settings(max_examples=300, deadline=None)
@given(rows=rational_matrices())
@example(rows=[[1, 1], [1, -1]])  # independent over Q, dependent mod 2
@example(rows=[[2, 0], [0, 1]])
@example(rows=[[Fraction(2, 3), 0], [0, 1]])  # independent, but not integral
@example(rows=[[Fraction(2, 1), 0], [0, 1]])  # an integral value held as a Fraction
@example(rows=[[1, 1], [1, 1]])
def test_cone_accepts_exactly_the_independent_rows(rows):
    """Integer rows make a cone exactly when they are independent; rows with
    a Fraction are refused whether or not they are."""
    if any(type(c) is Fraction for r in rows for c in r):
        with pytest.raises(ValueError, match="integral"):
            cone_on(rows)
    elif rational_rank(rows) == len(rows):
        assert cone_on(rows).dim == len(rows)
    else:
        with pytest.raises(ValueError, match="dependent"):
            cone_on(rows)


@pytest.mark.parametrize(
    "rows, certified",
    [
        ([[1, 1], [1, -1]], False),  # determinant -2
        ([[2, 0], [0, 1]], False),  # an even ray
        ([[2, 0], [0, 3]], False),  # an even ray beside an odd one
        ([[1, 0], [2, 1]], True),  # an even entry off the diagonal
        ([[1, 0], [1, 1]], True),
        ([[3, 5, 0], [0, 1, 7], [2, 2, 1]], True),  # odd determinant 29
    ],
)
def test_mod_2_certificate_or_rank_fallback(rows, certified, monkeypatch):
    ranked = []

    def counted(r):
        ranked.append(r)
        return rational_rank(r)

    monkeypatch.setattr(bergman, "_rank", counted)
    assert cone_on(rows).dim == len(rows)
    assert bool(ranked) is not certified


@pytest.mark.parametrize(
    "rows",
    [
        [[Fraction(2, 3), 0], [0, 1]],  # independent once cleared
        [[Fraction(1, 2), 0], [1, 1]],  # odd once cleared
        [[0, Fraction(-1, 3)]],
        [[0.5, 0], [0, 1]],  # a float vector is refused before it is a ray
    ],
)
def test_cone_refuses_non_integer_rays(rows, monkeypatch):
    """A Fraction or float ray is refused before any rank is taken."""

    def refuse(r):
        raise AssertionError("a non-integer cone reached the rank fallback")

    monkeypatch.setattr(bergman, "_rank", refuse)
    with pytest.raises(ValueError, match="integral|ints or Fractions"):
        cone_on(rows)


def test_chain_cones_never_take_the_rank_fallback(monkeypatch):
    """Chain rays and their projections are independent mod 2, so no chain
    cone, projected or not, reaches the echelon kernel."""

    def refuse(rows):
        raise RuntimeError("a chain cone took the rank fallback")

    monkeypatch.setattr(bergman, "_rank", refuse)
    assert bergman_fan(Graph.complete(range(2, 7))).census() == (1, 50, 205, 180)
    labels = range(2, 8)
    tripartite = Graph.from_edges(
        [(a, b) for a in labels for b in labels if a < b and (a - 2) // 2 != (b - 2) // 2]
    )
    path = Graph.from_edges([(v, v + 1) for v in range(2, 7)])
    for gamma in (tripartite, path):
        image = project_fan(moduli_fan_rad(7, gamma), gamma)
        assert image.max_dim == 4  # rank of a connected graph on 6 vertices, minus 1


def hermite_unimodular(sigma):
    """The Hermite route: rays (integral, as every cone's are) whose Hermite
    form equals that of their saturation."""
    rows = [list(r.coords[:-1]) for r in sigma.rays]
    lattice = hnf(rows)
    return len(lattice) == len(rows) and lattice == saturated_hnf(rows, len(rows[0]))


def cone_of_rows(rows):
    """The cone on the given integer rows, as quotient vectors ending in 0."""
    ambient = tuple((2, j) for j in range(3, len(rows[0]) + 4))  # a star's edges
    return make_cone(QuotientVector(ambient, tuple(r) + (0,)) for r in rows)


@pytest.fixture
def fallbacks(monkeypatch):
    """Records each orthogonal complement taken.  ``saturation`` takes two
    for each input the echelon kernel cannot settle by unit pivots, and
    those inputs are the Hermite fallbacks of ``_is_unimodular``."""
    calls = []
    original = ila.orthogonal_complement

    def counted(rows, ncols):
        calls.append(rows)
        return original(rows, ncols)

    monkeypatch.setattr(ila, "orthogonal_complement", counted)
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
    assume(rational_rank(rows) == len(rows))  # a cone's rays are independent
    sigma = cone_of_rows(rows)
    assert _is_unimodular(sigma) == hermite_unimodular(sigma)


@pytest.mark.parametrize(
    "rows, expected, fallback",
    [
        ([[2, 3]], True, True),  # saturated, but no unit entry
        ([[2, 3], [3, 5]], True, True),  # determinant 1, no unit entry
        ([[2, 4]], False, True),  # index 2 in its saturation
        ([[1, 0], [1, 2]], False, True),  # index 2
        ([[1, 0], [1, 1]], True, False),
        ([[-1, -1, 0], [0, -1, 0]], True, False),
    ],
)
def test_is_unimodular_examples(rows, expected, fallback, fallbacks):
    sigma = cone_of_rows(rows)
    assert _is_unimodular(sigma) is expected
    assert hermite_unimodular(sigma) is expected
    assert bool(fallbacks) is fallback


def path_on(n):
    return Graph.from_edges([(v, v + 1) for v in range(2, n)])


UNIT_PIVOT_FANS = {
    **{f"K{m}": lambda m=m: bergman_fan(Graph.complete(range(2, m + 2))) for m in (3, 4, 5, 6)},
    **{f"M0{n}": lambda n=n: moduli_fan_rad(n, "complete") for n in (5, 6)},
    **{f"M0{n}-path": lambda n=n: moduli_fan_rad(n, path_on(n)) for n in (5, 6)},
}


@pytest.mark.parametrize("name", sorted(UNIT_PIVOT_FANS))
def test_chains_of_flats_take_unit_pivots(name, fallbacks):
    """Every maximal cone of these fans is settled by the echelon kernel's
    unit pivots, with no Hermite fallback."""
    fan = UNIT_PIVOT_FANS[name]()
    maximal = fan.cones_of_dim(fan.max_dim)
    assert maximal and all(_is_unimodular(sigma) for sigma in maximal)
    assert fallbacks == []


def test_fallback_cones_are_counted(fallbacks):
    """The index-two cone and a non-primitive ray have no unit pivot."""
    _, sigma = index_two_fan()
    doubled = make_cone([QuotientVector(sigma.rays[0].ambient, (2, 0, 0))])
    assert not _is_unimodular(sigma)
    assert not _is_unimodular(doubled)
    assert len(fallbacks) == 2 * 2  # two complements for each cone


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


def test_project_rejects_non_simplicial_image(k4):
    # three independent rays whose images in a three-edge graph's
    # two-dimensional quotient are distinct, nonzero and dependent
    rays = [QuotientVector.from_raw(k4.edges, v) for v in
            ([1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], [1, 0, 0, 1, 1, 0])]
    fan = closed_fan(k4.edges, [make_cone(rays)])
    path = Graph.from_edges([(2, 3), (3, 4), (4, 5)])
    with pytest.raises(ValueError, match="simplicial"):
        project_fan(fan, path)


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
    import json

    assert json.dumps(doc) == json.dumps(fan_to_json(bergman_fan(k4)))
