"""Exact linear algebra over the integers.

Everything here runs on plain Python ints; no fractions and no floating
point.  Ranks, rational span tests and lattice saturation run on one
fraction-free row echelon kernel, ``echelon``, which pivots on a unit entry
whenever one exists; rows it echelonizes with unit pivots only are already a
basis of their saturation.  Any other rows are saturated as a double
orthogonal complement, from integer kernels that one Hermite elimination
with its transform matrix computes.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

Vec = Sequence[int]
Mat = Sequence[Sequence[int]]


def echelon(rows: Mat) -> tuple[list[list[int]], list[int], bool]:
    """Row echelon form of integer rows, fraction-free.

    Returns ``(E, pivots, unit)``: the nonzero rows E of an echelon form, the
    pivot column of each row, and whether every pivot is 1 or -1.  Zero rows
    are dropped, so ``len(E)`` is the rank.  Each step pivots on a unit
    entry of a remaining row when there is one, and eliminates by exact
    integer row subtraction; with no unit entry left it pivots on a smallest
    entry, cross-multiplies and divides each changed row by its gcd.  Row i
    of E vanishes in the pivot columns of rows 0..i-1.

    When ``unit`` holds and no row was dropped, every step was unimodular
    and the pivot columns of E form a triangular minor of determinant 1 or
    -1, so the input rows are a basis of the integer points of their span.
    """
    pending = [list(r) for r in rows if any(r)]
    out: list[list[int]] = []
    pivots: list[int] = []
    unit = True
    while pending:
        pick = _unit_entry(pending)
        if pick is None:
            unit = False
            pick = min(
                ((i, j) for i, r in enumerate(pending) for j, x in enumerate(r) if x),
                key=lambda ij: abs(pending[ij[0]][ij[1]]),
            )
        i, col = pick
        row = pending.pop(i)
        out.append(row)
        pivots.append(col)
        rest = []
        for r in pending:
            if r[col]:
                r = _eliminate(r, row, col)
                if not any(r):
                    continue
            rest.append(r)
        pending = rest
    return out, pivots, unit


def _unit_entry(rows: list[list[int]]) -> Optional[tuple[int, int]]:
    """(row, column) of the first 1 or -1 in the first row holding one."""
    for i, r in enumerate(rows):
        if 1 in r:
            return i, r.index(1)
        if -1 in r:
            return i, r.index(-1)
    return None


def _eliminate(target: list[int], row: list[int], col: int) -> list[int]:
    """``target`` with its ``col`` entry cleared by the pivot row ``row``:
    plain subtraction for a unit pivot, else cross-multiplication and
    division by the result's gcd.  Its span together with ``row`` is kept."""
    c = target[col]
    if not c:
        return target
    a = row[col]
    if a == 1 or a == -1:
        q = c * a
        return [x - q * y for x, y in zip(target, row)]
    g = math.gcd(a, c)
    a, c = a // g, c // g
    out = [a * x - c * y for x, y in zip(target, row)]
    g = math.gcd(*out)
    return [x // g for x in out] if g > 1 else out


def echelon_reduce(rows: Mat, pivots: Sequence[int], vec: Vec) -> list[int]:
    """``vec`` eliminated against ``echelon`` rows and their pivot columns.

    The result is zero exactly when ``vec`` lies in the rational span of the
    rows (a nonzero result is a multiple of ``vec`` minus that span, not a
    canonical representative)."""
    v = list(vec)
    for row, col in zip(rows, pivots):
        v = _eliminate(v, row, col)
    return v


def hnf_transform(rows: Mat) -> tuple[list[list[int]], list[list[int]]]:
    """Row Hermite normal form with transform: returns (H, U) with U*M = H.

    U is unimodular; H is in row echelon form with positive pivots and entries
    above each pivot reduced into [0, pivot).  Zero rows of H sink to the
    bottom.
    """
    h = [list(r) for r in rows]
    nrows = len(h)
    ncols = len(h[0]) if nrows else 0
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    pivot_row = 0
    for col in range(ncols):
        # clear the column below pivot_row by gcd steps
        while True:
            nonzero = [i for i in range(pivot_row, nrows) if h[i][col] != 0]
            if not nonzero:
                break
            i0 = min(nonzero, key=lambda i: abs(h[i][col]))
            if i0 != pivot_row:
                h[i0], h[pivot_row] = h[pivot_row], h[i0]
                u[i0], u[pivot_row] = u[pivot_row], u[i0]
            a = h[pivot_row][col]
            done = True
            for i in range(pivot_row + 1, nrows):
                q = h[i][col] // a
                if q:
                    _row_sub(h[i], h[pivot_row], q)
                    _row_sub(u[i], u[pivot_row], q)
                if h[i][col]:
                    done = False
            if done:
                break
        if pivot_row < nrows and h[pivot_row][col] != 0:
            if h[pivot_row][col] < 0:
                h[pivot_row] = [-x for x in h[pivot_row]]
                u[pivot_row] = [-x for x in u[pivot_row]]
            a = h[pivot_row][col]
            for i in range(pivot_row):
                q = h[i][col] // a
                if q:
                    _row_sub(h[i], h[pivot_row], q)
                    _row_sub(u[i], u[pivot_row], q)
            pivot_row += 1
            if pivot_row == nrows:
                break
    return h, u


def _row_sub(target: list[int], source: list[int], q: int):
    for j, s in enumerate(source):
        if s:
            target[j] -= q * s


def left_kernel(rows: Mat) -> list[list[int]]:
    """Basis of {x integer : x * M = 0}, as rows."""
    h, u = hnf_transform(rows)
    return [u[i] for i in range(len(h)) if not any(h[i])]


def transpose(rows: Mat) -> list[list[int]]:
    return [list(col) for col in zip(*rows)] if rows else []


def orthogonal_complement(rows: Mat, ncols: int) -> list[list[int]]:
    """Basis of the lattice of integer vectors orthogonal to all given rows."""
    if not rows:
        return [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    return left_kernel(transpose(rows))


def saturation(rows: Mat, ncols: int) -> list[list[int]]:
    """Basis of (rational row span of M) intersected with Z^ncols.

    When ``echelon`` pivots on units only, its rows are such a basis: unit
    eliminations keep the lattice, and the pivot columns give a triangular
    minor of determinant 1 or -1.  Independent rows so certified come back
    as given (copied), so a caller can tell that they are a basis of their
    saturation by comparing them with the result.  Any other input is
    saturated as the double orthogonal complement; integer kernels are
    always saturated.
    """
    independent, _, unit = echelon(rows)
    if unit:
        if len(independent) == len(rows):
            return [list(r) for r in rows]
        return independent
    comp = orthogonal_complement(rows, ncols)
    return orthogonal_complement(comp, ncols)


def det_int(rows: Mat) -> int:
    """Determinant of a square integer matrix by fraction-free Bareiss."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
