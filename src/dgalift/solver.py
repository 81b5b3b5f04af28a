"""Exact sparse linear algebra over a coefficient field, in column form.

A system is given by its columns: ``columns[j]`` maps row keys to the
coefficients of unknown ``j``, and ``rhs`` maps row keys to the right-hand
side.  Row keys are any hashable values and a key no column touches is a
zero row, so callers pass the sparse images they already hold (brackets
with matrix units, differentials of monomials, products of entries) and no
dense matrix is ever built.

Elimination takes one row at a time, reduces it by the pivot rows found so
far and, if anything is left, makes it a pivot row on its smallest column.
Every pivot row then leads on a different column and together they span
the row space, so the pivot columns are exactly the columns outside the
span of the columns before them, whatever order the rows come in.
Back-substitution with free unknowns set to zero yields the unique solution
supported on those columns: the result depends on the column order only.

The rows are taken in order of size, fewest entries first, and rows of
equal size in the order they were first seen.  A sparse row reduces
against few pivot rows and leaves a sparse pivot row behind, so the
reductions after it stay cheap; and the rows that only the right-hand
side reaches (size 0) come first, so a system that asks ``0 = b`` with
``b`` nonzero is refused before any elimination step.  The order moves
no solution and no verdict: the pivot columns, and with them the
solution above, do not depend on it, and a system is inconsistent
whatever the order in which its rows are reduced.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Optional


def solve_exact(field, columns: list, rhs: dict) -> Optional[list]:
    """Solve ``sum_j x[j] * columns[j] == rhs`` exactly.

    Returns the values of the unknowns with every free unknown zero, or
    None when the system is inconsistent.
    """
    zero, sub, mul = field.zero, field.sub, field.mul
    rows: dict = {}
    for j, col in enumerate(columns):
        for key, c in col.items():
            if c != zero:
                rows.setdefault(key, {})[j] = c
    for key in rhs:
        rows.setdefault(key, {})
    # pivot column -> (the rest of its row scaled to a leading one, rhs)
    pivots: dict = {}
    for key in sorted(rows, key=lambda k: len(rows[k])):
        row = rows[key]
        b = rhs.get(key, zero)
        heap = list(row)
        heapify(heap)
        while heap:
            col = heappop(heap)
            if col not in row or col not in pivots:
                continue
            factor = row.pop(col)
            rest, pb = pivots[col]
            # pivot rows only reach columns right of their pivot
            for k, v in rest.items():
                x = sub(row.get(k, zero), mul(factor, v))
                if x == zero:
                    row.pop(k, None)
                    continue
                if k not in row:
                    heappush(heap, k)
                row[k] = x
            b = sub(b, mul(factor, pb))
        if not row:
            if b != zero:
                return None
            continue
        lead = min(row)
        inv = field.inv(row.pop(lead))
        pivots[lead] = ({k: mul(inv, v) for k, v in row.items()}, mul(inv, b))
    x = [zero] * len(columns)
    for lead in sorted(pivots, reverse=True):
        rest, b = pivots[lead]
        for k, v in rest.items():
            if x[k] != zero:
                b = sub(b, mul(v, x[k]))
        x[lead] = b
    return x
