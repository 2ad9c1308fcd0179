from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tropfan.intlinalg import (
    det_int,
    hnf,
    hnf_transform,
    in_lattice,
    in_rational_span,
    invert_rational,
    left_kernel,
    orthogonal_complement,
    primitive_vector,
    rational_rank,
    saturation,
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
