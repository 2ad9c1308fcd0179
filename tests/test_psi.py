import functools
import itertools
import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropfan import (
    ChainOfFlats,
    Graph,
    MetricType,
    QnVector,
    QuotientVector,
    all_chains,
    dist_vector,
    psi_cof_to_radial,
    psi_linear,
    psi_radial_to_cof,
    qn_relations_check,
    radial_alignments,
    ray_of_flat,
    rho_split,
    star_type,
    tropical_type,
)
from tropfan.tropmoduli import enumerate_types, pair_list

from conftest import chain_of, clique_flat
from oracles import (
    dist_vector_by_membership,
    ends_at,
    psi_by_inverse,
    qn_canonical_oracle,
    solve_in_span,
)


# some of these have denominator 1, so they test int-versus-Fraction output
small_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


def phi(n, x):
    """The vertex-sum embedding of R^n into pair space."""
    return [x[i - 1] + x[j - 1] for i, j in pair_list(n)]


def assert_same(got, want):
    """Equal vectors whose coordinates also agree in type (an int and an
    integral Fraction compare equal)."""
    assert got == want
    assert [type(c) for c in got.coords] == [type(c) for c in want.coords]


def psi_oracle(v: QnVector) -> tuple:
    """Basepoint-1 Gromov products: an independent formula for the linear map.

    Sends a distance class to minus the half sums d(1,i)+d(1,j)-d(i,j) over
    the edges (i,j), which kills vertex-sum perturbations outright.
    """
    n = v.n
    idx = {p: i for i, p in enumerate(pair_list(n))}
    out = []
    for i, j in itertools.combinations(range(2, n + 1), 2):
        out.append(
            -Fraction(v.coords[idx[(1, i)]] + v.coords[idx[(1, j)]] - v.coords[idx[(i, j)]], 2)
        )
    edges = tuple(itertools.combinations(range(2, n + 1), 2))
    return QuotientVector.from_raw(edges, out)


# ---------------------------------------------------------------------------
# Canonical distance classes


@settings(max_examples=100)
@given(data=st.data())
def test_canonical_form_kills_vertex_sums(data):
    n = data.draw(st.integers(4, 6))
    npairs = n * (n - 1) // 2
    coords = data.draw(
        st.lists(st.integers(-9, 9), min_size=npairs, max_size=npairs)
    )
    x = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    shifted = [c + p for c, p in zip(coords, phi(n, x))]
    assert QnVector.from_raw(n, coords) == QnVector.from_raw(n, shifted)


@settings(max_examples=100)
@given(data=st.data())
def test_canonical_form_stays_in_the_class(data):
    """The input minus its canonical form is a vertex-sum vector phi(x); x is
    solved for by rational elimination on the columns phi(e_k)."""
    n = data.draw(st.integers(4, 7))
    npairs = n * (n - 1) // 2
    entry = data.draw(st.sampled_from([
        st.integers(-9, 9),
        st.fractions(min_value=-9, max_value=9, max_denominator=6),
    ]))
    raw = data.draw(st.lists(entry, min_size=npairs, max_size=npairs))
    diff = [r - c for r, c in zip(raw, QnVector.from_raw(n, raw).coords)]
    columns = [phi(n, [int(i == k) for i in range(n)]) for k in range(n)]
    x = solve_in_span(columns, diff)
    assert x is not None
    assert phi(n, x) == diff


@settings(max_examples=100)
@given(data=st.data())
def test_canonical_form_matches_fraction_oracle(data):
    n = data.draw(st.integers(4, 7))
    npairs = n * (n - 1) // 2
    entry = data.draw(st.sampled_from([
        st.integers(-9, 9),
        st.fractions(min_value=-9, max_value=9, max_denominator=6),
        st.one_of(st.integers(-9, 9), small_fractions),  # mixed
    ]))
    raw = data.draw(st.lists(entry, min_size=npairs, max_size=npairs))
    assert_same(QnVector.from_raw(n, raw), qn_canonical_oracle(n, raw))


def test_canonical_form_has_pivot_zeros():
    v = rho_split(5, {2, 3})
    pairs = pair_list(5)
    for pivot in [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3)]:
        assert v.coords[pairs.index(pivot)] == 0


def test_relations_hold_for_all_supported_n():
    for n in (4, 5, 6, 7):
        report = qn_relations_check(n)
        assert report.holds, (n, report)


def test_split_ray_expands_as_pair_sum():
    expansion = QnVector.zero(6)
    for pair in itertools.combinations({4, 5, 6}, 2):
        expansion = expansion + rho_split(6, pair)
    assert expansion == rho_split(6, {4, 5, 6})


# ---------------------------------------------------------------------------
# Distance vectors


def test_dist_vector_of_star_is_zero():
    m = MetricType(star_type(5), ())
    assert dist_vector(m).is_zero


def test_dist_vector_frozen_table():
    t = tropical_type(5, [frozenset({2, 3}), frozenset({4, 5})])
    m = MetricType(t, (Fraction(1), Fraction(1)))
    expected = {
        (1, 2): 1, (1, 3): 1, (1, 4): 1, (1, 5): 1,
        (2, 3): 0, (2, 4): 2, (2, 5): 2, (3, 4): 2, (3, 5): 2, (4, 5): 0,
    }
    raw = [expected[p] for p in pair_list(5)]
    assert dist_vector(m) == QnVector.from_raw(5, raw)


def nx_distance_oracle(m: MetricType) -> list:
    g = nx.Graph()
    c = m.type
    for (u, v), length in zip(c.edges, m.lengths):
        g.add_edge(("v", u), ("v", v), weight=length)
    for e, host in enumerate(ends_at(c), start=1):
        g.add_edge(("e", e), ("v", host), weight=Fraction(0))
    return [
        nx.shortest_path_length(g, ("e", i), ("e", j), weight="weight")
        for i, j in pair_list(c.n)
    ]


@functools.cache
def types_with_edges(n):
    return [t for ts in enumerate_types(n).values() for t in ts if t.splits]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dist_vector_matches_networkx(data):
    n = data.draw(st.integers(4, 7))
    t = data.draw(st.sampled_from(types_with_edges(n)))
    lengths = tuple(
        Fraction(data.draw(st.integers(1, 9)), data.draw(st.integers(1, 4)))
        for _ in t.edges
    )
    m = MetricType(t, lengths)
    assert_same(dist_vector(m), qn_canonical_oracle(t.n, nx_distance_oracle(m)))


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_dist_vector_matches_membership_oracle_on_every_type(n):
    """The pair table against testing each split's membership of every
    pair, on every type (3,018 in all), with seeded random int lengths and
    with lengths mixing ints, proper Fractions and integral Fractions; the
    coordinates agree in value and in type."""
    rng = random.Random(n)
    types = [t for ts in enumerate_types(n).values() for t in ts]
    for t in types:
        ints = tuple(rng.randint(1, 30) for _ in t.edges)
        mixed = tuple(
            rng.choice([rng.randint(1, 9), Fraction(rng.randint(1, 30), rng.randint(1, 6))])
            for _ in t.edges
        )
        for lengths in (ints, mixed):
            m = MetricType(t, lengths)
            assert_same(dist_vector(m), dist_vector_by_membership(m))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_embedding_coordinates_are_ints_or_proper_fractions(data):
    """Each coordinate of dist_vector and psi_linear is an int, or a
    Fraction that is not one."""
    n = data.draw(st.integers(4, 7))
    t = data.draw(st.sampled_from(types_with_edges(n)))
    length = data.draw(st.sampled_from([st.integers(1, 9), small_fractions]))
    lengths = tuple(data.draw(length.filter(lambda x: x > 0)) for _ in t.edges)
    v = dist_vector(MetricType(t, lengths))
    for c in v.coords + psi_linear(v).coords:
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1)


def test_dist_vector_scales_linearly():
    t = tropical_type(5, [frozenset({2, 3}), frozenset({4, 5})])
    one = dist_vector(MetricType(t, (Fraction(1), Fraction(2))))
    two = dist_vector(MetricType(t, (Fraction(2), Fraction(4))))
    assert two == one + one


# ---------------------------------------------------------------------------
# The linear map


def test_psi_on_basis_splits():
    k4 = Graph.complete([2, 3, 4, 5])
    for pair in itertools.combinations((2, 3, 4, 5), 2):
        image = psi_linear(rho_split(5, pair))
        expected = ray_of_flat(clique_flat(k4, pair), k4.edges)
        assert image == expected


def test_psi_on_triple_split(k4, k4_flat_labels):
    image = psi_linear(rho_split(5, {3, 4, 5}))
    assert image == ray_of_flat(k4_flat_labels[9], k4.edges)


def test_psi_of_zero_is_zero():
    assert psi_linear(QnVector.zero(5)).is_zero


def test_psi_carries_pair_sum_to_all_ones_class():
    for n in (4, 5, 6):
        total = None
        for pair in itertools.combinations(range(2, n + 1), 2):
            img = psi_linear(rho_split(n, pair))
            total = img if total is None else total + img
        assert total.is_zero


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_psi_matches_gromov_oracle(data):
    n = data.draw(st.integers(4, 6))
    npairs = n * (n - 1) // 2
    coords = data.draw(st.lists(st.integers(-6, 6), min_size=npairs, max_size=npairs))
    v = QnVector.from_raw(n, coords)
    assert_same(psi_linear(v), psi_oracle(v))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_psi_matches_matrix_inverse_oracle(data):
    n = data.draw(st.integers(4, 7))
    npairs = n * (n - 1) // 2
    coords = data.draw(st.lists(small_fractions, min_size=npairs, max_size=npairs))
    v = QnVector.from_raw(n, coords)
    assert_same(psi_linear(v), psi_by_inverse(v))


def test_psi_reads_only_the_class():
    """psi of a representative that is not canonical is psi of its class."""
    n = 6
    raw = [Fraction(3 * k - 7, k % 3 + 1) for k, _ in enumerate(pair_list(n))]
    canonical = QnVector.from_raw(n, raw)
    assert canonical.coords != tuple(raw)
    assert psi_linear(QnVector(n, tuple(raw))) == psi_linear(canonical)
    assert psi_linear(canonical) == psi_by_inverse(canonical)


def test_psi_is_injective_on_canonical_forms():
    seen = {}
    for pair in itertools.combinations((2, 3, 4, 5, 6), 2):
        image = psi_linear(rho_split(6, pair))
        assert image not in seen
        seen[image] = pair


# ---------------------------------------------------------------------------
# Chains <-> radial types


def test_cof_to_radial_single_flat(k4):
    chain = chain_of(k4, [(2, 3)])
    rt = psi_cof_to_radial(chain)
    assert rt.num_levels == 1
    assert rt.type.splits == (frozenset({2, 3}),)


def test_cof_to_radial_disconnected_flat(k4, k4_flat_labels):
    chain = ChainOfFlats((k4_flat_labels[11],))
    rt = psi_cof_to_radial(chain)
    assert rt.num_levels == 1
    assert set(rt.type.splits) == {frozenset({2, 3}), frozenset({4, 5})}
    assert rt.levels[0] == frozenset({1, 2})


def test_cof_to_radial_eight_end_worked_example():
    amb = Graph.complete(range(2, 9))
    chain = ChainOfFlats(
        (
            clique_flat(amb, {4, 5}, {6, 7}),
            clique_flat(amb, {4, 5, 6, 7}, {2, 3}),
            clique_flat(amb, {4, 5, 6, 7}, {2, 3, 8}),
        )
    )
    rt = psi_cof_to_radial(chain)
    assert rt.num_levels == 3
    by_level = {
        lvl: sorted(sorted(rt.type.splits[v - 1]) for v in block)
        for lvl, block in enumerate(rt.levels, start=1)
    }
    assert by_level[1] == [[2, 3, 8]]
    assert by_level[2] == [[2, 3], [4, 5, 6, 7]]
    assert by_level[3] == [[4, 5], [6, 7]]
    # level families read back off the curve
    back = psi_radial_to_cof(rt)
    assert back == chain
    assert [sorted(map(list, f.blocks)) for f in back] == [
        [[4, 5], [6, 7]],
        [[2, 3], [4, 5, 6, 7]],
        [[2, 3, 8], [4, 5, 6, 7]],
    ]


def test_radial_to_cof_single_level():
    t = tropical_type(5, [frozenset({2, 3})])
    rt = radial_alignments(t)[0]
    chain = psi_radial_to_cof(rt)
    assert len(chain) == 1
    assert chain[0].blocks == ((2, 3),)


def test_round_trip_all_chains_of_k4(k4):
    count = 0
    for chain in all_chains(k4):
        if len(chain) == 0:
            continue
        rt = psi_cof_to_radial(chain)
        assert rt.num_levels == len(chain)
        assert psi_radial_to_cof(rt) == chain
        count += 1
    assert count == 31


def test_round_trip_all_radial_types_n5():
    count = 0
    for d, ts in enumerate_types(5).items():
        for t in ts:
            for rt in radial_alignments(t):
                chain = psi_radial_to_cof(rt)
                assert len(chain) == rt.num_levels
                assert psi_cof_to_radial(chain, n=5) == rt
                count += 1
    assert count == 32  # 31 chains plus the empty chain of the star


def test_cof_to_radial_requires_complete_parent(gamma_obstruction):
    chain = chain_of(gamma_obstruction, [(2, 3)])
    with pytest.raises(ValueError, match="complete"):
        psi_cof_to_radial(chain)


def test_empty_chain_needs_n():
    with pytest.raises(ValueError, match="empty chain"):
        psi_cof_to_radial(ChainOfFlats(()))
    rt = psi_cof_to_radial(ChainOfFlats(()), n=5)
    assert rt.type == star_type(5)


# ---------------------------------------------------------------------------
# Embedding compatibility: metrics land in the right cone


def coefficients_in_cone(point, rays):
    return solve_in_span([r.coords for r in rays], point.coords)


def test_metric_point_lands_in_relative_interior():
    rng = random.Random(1)
    k4 = Graph.complete([2, 3, 4, 5])
    for d, ts in enumerate_types(5).items():
        for t in ts:
            for rt in radial_alignments(t):
                if rt.num_levels == 0:
                    continue
                chain = psi_radial_to_cof(rt)
                rays = [ray_of_flat(f, k4.edges) for f in chain]
                for _ in range(5):
                    radii = sorted(
                        rng.sample(range(1, 40), rt.num_levels)
                    )
                    level = rt.level_of
                    lengths = tuple(
                        Fraction(radii[level[v] - 1] - (radii[level[u] - 1] if u else 0))
                        for u, v in t.edges
                    )
                    point = psi_linear(dist_vector(MetricType(t, lengths)))
                    coeffs = coefficients_in_cone(point, rays)
                    assert coeffs is not None
                    assert all(c > 0 for c in coeffs)
