"""Exact dense linear algebra over the Gaussian rationals.

Matrices are plain lists of lists of :class:`~hermlie.scalars.GaussianRational`
(ints/Fractions are coerced).  Everything is fraction-free-enough for the
small systems this package solves (dimension at most a few dozen); clarity
wins over asymptotics here.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .scalars import GR_ONE, GR_ZERO, GaussianRational

Matrix = list  # list[list[GaussianRational]]
Vector = list  # list[GaussianRational]


def coerce_matrix(rows: Sequence[Sequence]) -> Matrix:
    return [[GaussianRational.coerce(x) for x in row] for row in rows]


def identity(n: int) -> Matrix:
    return [[GR_ONE if i == j else GR_ZERO for j in range(n)] for i in range(n)]


def rref(mat: Sequence[Sequence]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (R, pivot_columns)."""
    a = coerce_matrix(mat) if mat else []
    if not a:
        return [], []
    rows, cols = len(a), len(a[0])
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pivot_row = next((i for i in range(r, rows) if a[i][c]), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        # zero entries of the pivot row change nothing: 0 * inv = 0, x - f * 0 = x
        inv = a[r][c].inverse()
        a[r] = [x * inv if x else x for x in a[r]]
        support = [(j, y) for j, y in enumerate(a[r]) if y]
        for i in range(rows):
            if i != r and a[i][c]:
                f, row = a[i][c], a[i]
                for j, y in support:
                    row[j] = row[j] - f * y
        pivots.append(c)
        r += 1
    return a, pivots


def nullspace(mat: Sequence[Sequence], ncols: Optional[int] = None) -> list[Vector]:
    """Basis of the right kernel."""
    if not mat:
        return [[GR_ONE if i == j else GR_ZERO for i in range(ncols or 0)] for j in range(ncols or 0)]
    r, pivots = rref(mat)
    cols = len(r[0])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [GR_ZERO] * cols
        v[f] = GR_ONE
        for i, p in enumerate(pivots):
            v[p] = -r[i][f]
        basis.append(v)
    return basis


def solve(mat: Sequence[Sequence], rhs: Sequence) -> Optional[Vector]:
    """One particular solution of A x = b, or None if inconsistent."""
    a = coerce_matrix(mat)
    b = [GaussianRational.coerce(x) for x in rhs]
    if not a:
        return [] if not any(b) else None
    aug = [row + [b[i]] for i, row in enumerate(a)]
    r, pivots = rref(aug)
    cols = len(a[0])
    if cols in pivots:
        return None
    x = [GR_ZERO] * cols
    for i, p in enumerate(pivots):
        x[p] = r[i][cols]
    return x


def inverse(mat: Sequence[Sequence]) -> Matrix:
    a = coerce_matrix(mat)
    n = len(a)
    aug = [row + unit for row, unit in zip(a, identity(n))]
    r, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in r]
