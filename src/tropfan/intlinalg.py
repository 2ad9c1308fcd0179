"""Exact linear algebra over the integers.

Everything here runs on plain Python ints; no fractions and no floating
point.  The one elimination is ``saturation``'s: exact row subtraction at
a pivot entry of 1 or -1.  The rays of a chain of nested edge sets have a
totally unimodular matrix (Ardila-Klivans; Feichtner-Sturmfels), so on
them it always finishes, and rows it finishes on are a basis of the
integer points of their span; it refuses any rows on which it cannot
finish.  ``det_int`` has no library caller.
"""

from __future__ import annotations

from typing import Sequence

Mat = Sequence[Sequence[int]]


def saturation(rows: Mat) -> list[list[int]]:
    """Basis of (rational row span of ``rows``) intersected with the
    integer lattice, by elimination at unit pivots only.

    Each step takes the first remaining row holding a 1 or -1, at its
    first such entry, and subtracts multiples of it from the other rows to
    clear that column; rows that vanish are dropped.  Such steps keep the
    lattice the rows span, and the pivot columns of the rows taken give a
    triangular minor of determinant 1 or -1, so that lattice is saturated.
    Independent rows come back as given (copied), so a caller can tell
    that they are a basis of their saturation by comparing them with the
    result; dependent rows come back as the shorter basis of rows taken.
    When no remaining row has a unit entry, ValueError is raised.
    """
    pending = [list(r) for r in rows if any(r)]
    basis: list[list[int]] = []
    while pending:
        i, col = _unit_entry(pending)
        row = pending.pop(i)
        basis.append(row)
        a = row[col]
        rest = []
        for r in pending:
            q = r[col] * a
            if q:
                r = [x - q * y for x, y in zip(r, row)]
                if not any(r):
                    continue
            rest.append(r)
        pending = rest
    if len(basis) == len(rows):
        return [list(r) for r in rows]
    return basis


def _unit_entry(rows: list[list[int]]) -> tuple[int, int]:
    """(row, column) of the first 1 or -1 in the first row holding one."""
    for i, r in enumerate(rows):
        if 1 in r:
            return i, r.index(1)
        if -1 in r:
            return i, r.index(-1)
    raise ValueError("no remaining row has a unit entry to pivot on")


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
