import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropfan import (
    RadialType,
    TropicalType,
    enumerate_types,
    radial_alignments,
    radial_face_census,
    radial_faces,
    star_type,
    tropical_type,
)

from oracles import contract_edge, ends_at, radial_alignments_by_product, radial_faces_by_level_maps


def double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def fubini(k: int) -> int:
    """Ordered Bell numbers by summing surjection counts."""
    import math

    return sum(
        sum((-1) ** j * math.comb(i, j) * (i - j) ** k for j in range(i + 1))
        for i in range(k + 1)
    )


def brute_force_types(n: int, d: int) -> int:
    """Count d-subsets of the split pool that are pairwise compatible."""
    pool = [
        frozenset(s)
        for size in range(2, n - 1)
        for s in itertools.combinations(range(2, n + 1), size)
    ]
    count = 0
    for combo in itertools.combinations(pool, d):
        if all(
            a <= b or b <= a or not a & b for a, b in itertools.combinations(combo, 2)
        ):
            count += 1
    return count


# ---------------------------------------------------------------------------
# Enumeration


def test_enumerate_types_counts_n5():
    got = {d: len(ts) for d, ts in enumerate_types(5).items()}
    assert got == {0: 1, 1: 10, 2: 15}


def test_enumerate_types_counts_n4():
    assert len(enumerate_types(4)[1]) == 3


def test_trivalent_count_matches_double_factorial():
    for n in (4, 5, 6, 7):
        assert len(enumerate_types(n)[n - 3]) == double_factorial(2 * n - 5)


def test_enumeration_matches_brute_force_n6():
    got = {d: len(ts) for d, ts in enumerate_types(6).items()}
    for d in range(4):
        assert got[d] == brute_force_types(6, d)


def test_types_are_deduplicated():
    for d, ts in enumerate_types(6).items():
        assert len(set(ts)) == len(ts)


def test_enumerate_types_range_check():
    with pytest.raises(ValueError):
        enumerate_types(3)
    with pytest.raises(ValueError):
        enumerate_types(9)


# ---------------------------------------------------------------------------
# Type construction and splits


def test_splits_of_nested_six_end_type():
    t = tropical_type(6, [frozenset({2, 3}), frozenset({4, 5, 6}), frozenset({5, 6})])
    assert sorted(map(sorted, t.splits)) == [[2, 3], [4, 5, 6], [5, 6]]


def test_splits_of_star_are_empty():
    assert star_type(6).splits == ()


def test_splits_of_three_branch_seven_end_type():
    t = tropical_type(7, [frozenset({2, 3}), frozenset({4, 5}), frozenset({6, 7})])
    assert sorted(map(sorted, t.splits)) == [[2, 3], [4, 5], [6, 7]]


def test_type_rejects_incompatible_splits():
    with pytest.raises(ValueError, match="incompatible"):
        tropical_type(6, [frozenset({2, 3}), frozenset({3, 4})])


def test_type_rejects_bad_split_sizes():
    with pytest.raises(ValueError, match="size"):
        tropical_type(5, [frozenset({2, 3, 4, 5})])
    with pytest.raises(ValueError, match="size"):
        tropical_type(5, [frozenset({2})])


@pytest.mark.parametrize("n", [0, 1, 2])
def test_star_with_fewer_than_three_ends_is_refused(n):
    with pytest.raises(ValueError, match=f"^vertex 0 would be {n}-valent$"):
        tropical_type(n, ())


INVALID_SPLITS = [
    (6, [{2, 3}, {3, 4}], r"^splits \[2, 3\] and \[3, 4\] are incompatible$"),
    (5, [{2, 3, 4, 5}], r"^split \[2, 3, 4, 5\] has invalid size for n=5$"),
    (5, [{2}], r"^split \[2\] has invalid size for n=5$"),
    (5, [{2, 9}], r"^split \[2, 9\] mentions ends outside 2..5$"),
    # sizes and ranges are checked before compatibility
    (6, [{2, 3}, {3, 4}, {2}], r"^split \[2\] has invalid size for n=6$"),
    (2, (), "^vertex 0 would be 2-valent$"),
]


@pytest.mark.parametrize("build", [TropicalType, tropical_type])
@pytest.mark.parametrize("n, splits, message", INVALID_SPLITS)
def test_invalid_splits_are_refused_by_both_constructors(build, n, splits, message):
    with pytest.raises(ValueError, match=message):
        build(n, tuple(frozenset(s) for s in splits))


def test_type_rebuilt_from_its_splits_is_the_same_type():
    """``TropicalType(n, t.splits)`` equals t with the same tree, and the
    tree is the one the splits define: a vertex's parent is its smallest
    strict superset (the root when there is none), and an end sits at the
    smallest split holding it."""
    for n in (4, 5, 6, 7):
        for ts in enumerate_types(n).values():
            for t in ts:
                again = TropicalType(n, t.splits)
                assert again == t and again.edges == t.edges and ends_at(again) == ends_at(t)
                by_size = sorted(range(len(t.splits)), key=lambda i: len(t.splits[i]))
                parent = [
                    next((j + 1 for j in by_size if t.splits[j] > s), 0) for s in t.splits
                ]
                assert t.edges == tuple(sorted((p, v) for v, p in enumerate(parent, 1)))
                host = [
                    next((j + 1 for j in by_size if e in t.splits[j]), 0)
                    for e in range(1, n + 1)
                ]
                assert ends_at(t) == tuple(host)


def test_type_takes_splits_in_any_order_and_with_repeats():
    a, b, c = frozenset({2, 3}), frozenset({4, 5, 6}), frozenset({5, 6})
    t = TropicalType(6, (c, a, b, c))
    assert t.splits == (b, a, c)
    assert t == tropical_type(6, [a, b, c]) == tropical_type(6, iter([b, c, a]))


def test_every_vertex_is_at_least_trivalent():
    """No valence check runs when a type is built: every laminar family of
    splits of sizes 2..n-2 already makes every vertex at least trivalent."""
    for n in (4, 5, 6, 7):
        for ts in enumerate_types(n).values():
            for t in ts:
                for v in range(t.num_vertices):
                    bounded_degree = sum(1 for e in t.edges if v in e)
                    assert bounded_degree + ends_at(t).count(v) >= 3


def test_type_tree_structure():
    t = tropical_type(6, [frozenset({2, 3}), frozenset({4, 5, 6}), frozenset({5, 6})])
    # splits sorted largest-first: {4,5,6}, then {2,3} and {5,6}
    assert t.splits[0] == frozenset({4, 5, 6})
    assert t.edges == ((0, 1), (0, 2), (1, 3))
    assert [e for e, host in enumerate(ends_at(t), start=1) if host == 0] == [1]
    assert [e for e, host in enumerate(ends_at(t), start=1) if host == 1] == [4]
    assert (1, 3) in t.edges


def test_contract_edge_drops_split():
    t = tropical_type(6, [frozenset({2, 3}), frozenset({4, 5, 6}), frozenset({5, 6})])
    c = contract_edge(t, (1, 3))
    assert sorted(map(sorted, c.splits)) == [[2, 3], [4, 5, 6]]
    with pytest.raises(ValueError):
        contract_edge(t, (0, 5))


def test_end_one_always_at_root():
    for d, ts in enumerate_types(6).items():
        for t in ts:
            assert ends_at(t)[0] == 0


# ---------------------------------------------------------------------------
# Radial alignments and the face census


def test_alignments_match_the_product_filter():
    """The level maps enumerated directly, vertex by vertex, are the ones
    the filter over every map keeps, in its order, for every type with 4 to
    7 ends."""
    count = 0
    for n in range(4, 8):
        for ts in enumerate_types(n).values():
            for t in ts:
                got = radial_alignments(t)
                assert got == radial_alignments_by_product(t), t
                count += len(got)
    assert count == 9484


def test_single_edge_type_has_one_alignment():
    t = tropical_type(5, [frozenset({2, 3})])
    assert len(radial_alignments(t)) == 1


def test_alignments_of_chain_type():
    # vertices 1 > 2 forced: only orderings with v1 before v2... levels of the
    # path type: v(4,5,6) below v(5,6)
    t = tropical_type(6, [frozenset({4, 5, 6}), frozenset({5, 6})])
    assert len(radial_alignments(t)) == 1  # strictly nested: single order


def test_alignments_of_independent_vertices_are_ordered_partitions():
    t = tropical_type(7, [frozenset({2, 3}), frozenset({4, 5}), frozenset({6, 7})])
    assert len(radial_alignments(t)) == fubini(3) == 13


def test_six_end_face_census():
    t = tropical_type(6, [frozenset({2, 3}), frozenset({4, 5, 6}), frozenset({5, 6})])
    assert len(radial_alignments(t)) == 5
    assert radial_face_census(t) == {0: 1, 1: 5, 2: 7, 3: 3}


def test_seven_end_face_census_is_doubled_ordered_bell():
    t = tropical_type(7, [frozenset({2, 3}), frozenset({4, 5}), frozenset({6, 7})])
    census = radial_face_census(t)
    assert census == {0: 1, 1: 7, 2: 12, 3: 6}
    assert sum(census.values()) == 26 == 2 * fubini(3)


def census_oracle(t) -> dict[int, int]:
    """Faces counted the other way: one per weakly monotone level map."""
    counts = Counter(rt.num_levels for rt in radial_faces_by_level_maps(t))
    return dict(sorted(counts.items()))


def test_face_census_matches_level_map_count():
    examples = [
        tropical_type(6, [frozenset({2, 3}), frozenset({4, 5, 6}), frozenset({5, 6})]),
        tropical_type(7, [frozenset({2, 3}), frozenset({4, 5}), frozenset({6, 7})]),
        tropical_type(5, [frozenset({2, 3}), frozenset({4, 5})]),
        tropical_type(6, [frozenset({4, 5, 6}), frozenset({5, 6})]),
    ]
    for t in examples:
        assert radial_face_census(t) == census_oracle(t)


def test_radial_faces_match_weak_level_maps():
    """The faces, as a multiset, are those of the weakly monotone level
    maps, for every type with 4 to 6 ends."""
    for n in (4, 5, 6):
        for ts in enumerate_types(n).values():
            for t in ts:
                assert Counter(radial_faces(t)) == Counter(radial_faces_by_level_maps(t))


def test_radial_faces_come_grouped_by_contraction():
    t = tropical_type(6, [frozenset({2, 3}), frozenset({4, 5, 6}), frozenset({5, 6})])
    expected = [
        face
        for k in range(len(t.splits) + 1)
        for kept in itertools.combinations(t.splits, k)
        for face in radial_alignments(tropical_type(6, kept))
    ]
    assert radial_faces(t) == expected
    assert radial_faces(t)[0] == RadialType(star_type(6), ())


def test_faces_are_distinct():
    t = tropical_type(6, [frozenset({2, 3}), frozenset({4, 5, 6}), frozenset({5, 6})])
    faces = radial_faces(t)
    assert len(set(faces)) == len(faces)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_alignment_levels_respect_tree_order(data):
    types = [t for ts in enumerate_types(6).values() for t in ts]
    t = data.draw(st.sampled_from(types))
    for rt in radial_alignments(t):
        level = rt.level_of
        for u, v in t.edges:
            assert level[u] < level[v]
