"""Exact dense linear algebra over a coefficient field.

Small systems only; everything the package solves is assembled from
finitely many monomial coefficients.  Gaussian elimination with the first
usable pivot, free unknowns pinned to zero, so the returned solution is a
deterministic function of the input ordering.
"""

from __future__ import annotations

from typing import Optional


def solve_exact(field, matrix: list, rhs: list) -> Optional[list]:
    """Solve ``matrix @ x == rhs`` exactly.

    `matrix` is a list of rows over the field; may be rectangular.  Returns
    the deterministic particular solution (free unknowns zero) or None when
    the system is inconsistent.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    a = [list(row) + [r] for row, r in zip(matrix, rhs)]
    zero = field.zero
    pivots = []  # (row, col)
    row = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(row, nrows):
            if a[r][col] != zero:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        a[row], a[pivot_row] = a[pivot_row], a[row]
        inv = field.inv(a[row][col])
        a[row] = [field.mul(inv, x) for x in a[row]]
        for r in range(nrows):
            if r != row and a[r][col] != zero:
                factor = a[r][col]
                a[r] = [
                    field.sub(x, field.mul(factor, y))
                    for x, y in zip(a[r], a[row])
                ]
        pivots.append((row, col))
        row += 1
        if row == nrows:
            break
    for r in range(row, nrows):
        if a[r][ncols] != zero:
            return None
    x = [zero] * ncols
    for r, c in pivots:
        x[c] = a[r][ncols]
    return x

