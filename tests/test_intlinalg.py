from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tropfan.intlinalg import (
    det_int,
    echelon,
    echelon_reduce,
    hnf_transform,
    left_kernel,
    orthogonal_complement,
    saturation,
)

from oracles import (
    hnf,
    in_lattice,
    in_rational_span,
    invert_rational,
    primitive_vector,
    rational_rank,
    solve_coeffs_one,
    solve_in_span,
)

small_int = st.integers(-6, 6)


def matrices(rows, cols):
    return st.lists(
        st.lists(small_int, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


@settings(max_examples=150)
@given(m=matrices(3, 4))
def test_hnf_transform_is_unimodular(m):
    h, u = hnf_transform(m)
    assert hnf(m) == [r for r in h if any(r)]  # the same form, built without U
    assert det_int(u) in (1, -1)
    for i in range(len(m)):
        got = [sum(u[i][k] * m[k][j] for k in range(len(m))) for j in range(len(m[0]))]
        assert got == h[i]


@settings(max_examples=150)
@given(m=matrices(3, 4))
def test_left_kernel_annihilates(m):
    for x in left_kernel(m):
        assert all(
            sum(x[k] * m[k][j] for k in range(len(m))) == 0 for j in range(len(m[0]))
        )


def test_saturation_of_scaled_row():
    sat = saturation([[2, 4, 6]], 3)
    assert len(sat) == 1
    assert primitive_vector(sat[0]) in ([1, 2, 3], [-1, -2, -3])


def test_saturation_contains_lattice():
    rows = [[2, 0, 2], [0, 3, 3]]
    sat_hnf = hnf(saturation(rows, 3))
    for r in rows:
        assert in_lattice(sat_hnf, r)
    # index vectors: (1,1,2) = half the sum is in the saturation, not the lattice
    assert in_lattice(sat_hnf, [1, 0, 1])


def test_hnf_reduce_detects_membership():
    basis = hnf([[1, 2, 0], [0, 4, 1]])
    assert in_lattice(basis, [2, 8, 1])
    assert not in_lattice(basis, [0, 1, 0])


def test_det_examples():
    assert det_int([[2, 0], [0, 3]]) == 6
    assert det_int([[1, 2], [2, 4]]) == 0
    assert det_int([]) == 1
    assert det_int([[0, 1], [1, 0]]) == -1


@settings(max_examples=100)
@given(m=matrices(3, 3))
def test_det_matches_fraction_elimination(m):
    # triangularize over the rationals and compare the product of pivots
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(3):
        pivot = next((i for i in range(col, 3) if a[i][col] != 0), None)
        if pivot is None:
            det = Fraction(0)
            break
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for i in range(col + 1, 3):
            f = a[i][col] / a[col][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    assert det == det_int(m)


def test_solve_coeffs_one():
    assert solve_coeffs_one([3]) is None
    c = solve_coeffs_one([6, 10, 15])
    assert c is not None and 6 * c[0] + 10 * c[1] + 15 * c[2] == 1
    assert solve_coeffs_one([0, 0]) is None


def test_solve_in_span():
    rows = [[1, 0, 1], [0, 1, 1]]
    coeffs = solve_in_span(rows, [2, 3, 5])
    assert coeffs == [Fraction(2), Fraction(3)]
    assert solve_in_span(rows, [0, 0, 1]) is None
    assert in_rational_span(rows, [1, 1, 2])
    assert solve_in_span([], [0, 0]) == []
    assert solve_in_span([], [1, 0]) is None


def test_rational_rank():
    assert rational_rank([[1, 2], [2, 4]]) == 1
    assert rational_rank([[1, 0], [0, 1]]) == 2
    assert rational_rank([[0, 0]]) == 0


def test_invert_rational():
    inv = invert_rational([[2, 1], [1, 1]])
    assert inv == [[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(2)]]


def test_orthogonal_complement_dimensions():
    comp = orthogonal_complement([[1, 1, 0]], 3)
    assert len(comp) == 2
    for v in comp:
        assert v[0] + v[1] == 0


@st.composite
def integer_matrices(draw):
    """Small integer matrices with some zero rows, some rows that are
    integer combinations of earlier ones, and entries often away from +-1."""
    ncols = draw(st.integers(1, 5))
    entries = st.one_of(small_int, st.sampled_from([0, 2, -2, 3, 4, -6]))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["free", "zero", "combination"]))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "combination" and rows:
            coeffs = draw(st.lists(small_int, min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)])
        else:
            rows.append(draw(st.lists(entries, min_size=ncols, max_size=ncols)))
    return rows


@settings(max_examples=400)
@given(m=integer_matrices(), vec=st.lists(small_int, min_size=5, max_size=5))
def test_echelon_matches_rational_elimination(m, vec):
    rows, pivots, unit = echelon(m)
    assert len(rows) == len(pivots) == rational_rank(m)
    assert rational_rank(rows + m) == len(rows)  # the same span
    for i, (row, col) in enumerate(zip(rows, pivots)):
        assert row[col] != 0
        assert all(row[c] == 0 for c in pivots[:i])
    assert unit == all(row[col] in (1, -1) for row, col in zip(rows, pivots))
    if m:
        target = vec[: len(m[0])]
        assert (not any(echelon_reduce(rows, pivots, target))) == in_rational_span(m, target)
        for r in m:  # every input row lies in the span
            assert not any(echelon_reduce(rows, pivots, r))


def test_echelon_prefers_unit_pivots():
    # the unit entry of the second row is taken first, so every pivot is a unit
    rows, pivots, unit = echelon([[2, 3], [1, 1]])
    assert (rows[0], pivots[0], unit) == ([1, 1], 0, True)
    assert echelon([[2, 3]])[2] is False
    assert echelon([[0, 0], [0, 0]]) == ([], [], True)
    assert echelon([]) == ([], [], True)


@settings(max_examples=200)
@given(m=integer_matrices())
def test_unit_echelon_means_saturated(m):
    """Independent rows echelonized with unit pivots only are a basis of the
    integer points of their span."""
    rows, _, unit = echelon(m)
    if unit and m and len(rows) == len(m):
        assert hnf(m) == hnf(complement_saturation(m, len(m[0])))


def complement_saturation(m, ncols):
    return orthogonal_complement(orthogonal_complement(m, ncols), ncols)


@settings(max_examples=300)
@given(m=integer_matrices())
def test_saturation_matches_double_complement(m):
    """Same lattice as the double complement; rows certified by unit pivots
    come back as given, and dependent ones as a shorter basis."""
    if not m:
        return
    ncols = len(m[0])
    basis = saturation(m, ncols)
    assert len(basis) == rational_rank(m)
    assert hnf(basis) == hnf(complement_saturation(m, ncols))
    rows, _, unit = echelon(m)
    if unit and len(rows) == len(m):
        assert basis == m
