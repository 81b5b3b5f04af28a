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

The columns are transposed once into ``[row, b]`` pairs, a row's entries
and its right-hand side, in the order the row keys are first seen; each
key of ``rhs`` attaches its ``b`` by one lookup, and a key that no column
reaches gets an empty row.  A row key is a tuple of some ten ints whose
hash Python does not keep, so after the transpose no step looks a key up
again.  The pairs are taken in order of size, fewest entries first, and
rows of equal size in the order they were first seen.  A sparse row
reduces against few pivot rows and leaves a sparse pivot row behind, so
the reductions after it stay cheap; and the rows that only the right-hand
side reaches (size 0) come first, so a system that asks ``0 = b`` with
``b`` nonzero is refused before any elimination step.

Pivot rows are short (on the benchmark's F5 rank-32 system, the 120
pivot rows hold 83 entries besides their leads, and 48 are their lead
alone).  Reducing by a pivot row that is its lead alone drops the column
and updates ``b``, and is done at once.  Only a pivot row with more
entries can add entries to the row, all of them right of its lead, so
only those go through a heap, in increasing column order; an entry added
on a column whose pivot row is its lead alone is reduced where it
appears.  A pivot row keeps the negated rest of
its row, scaled to a leading one, so that an added entry is one product.
The pivot rows form an echelon basis with distinct leads, so a row's
remainder modulo them does not depend on the order of the reduction
steps, and neither do the pivots, the solution or the verdict: the
pivot columns do not depend on the row order, and a system is
inconsistent whatever the order in which its rows are reduced.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Optional


def solve_exact(field, columns: list, rhs: dict) -> Optional[list]:
    """Solve ``sum_j x[j] * columns[j] == rhs`` exactly.

    Returns the values of the unknowns with every free unknown zero, or
    None when the system is inconsistent.
    """
    zero, add, sub, mul = field.zero, field.add, field.sub, field.mul
    rows: dict = {}  # row key -> [row, its right-hand side]
    for j, col in enumerate(columns):
        for key, c in col.items():
            if c != zero:
                pair = rows.get(key)
                if pair is None:
                    rows[key] = [{j: c}, zero]
                else:
                    pair[0][j] = c
    for key, b in rhs.items():
        pair = rows.get(key)
        if pair is None:
            rows[key] = [{}, b]
        else:
            pair[1] = b
    # pivot column -> (minus the rest of its row scaled to a leading one, rhs)
    pivots: dict = {}
    for row, b in sorted(rows.values(), key=lambda pair: len(pair[0])):
        heap = []
        for col in [col for col in row if col in pivots]:
            rest, pb = pivots[col]
            if rest:
                heap.append(col)
            else:
                b = sub(b, mul(row.pop(col), pb))
        if heap:
            heapify(heap)
        while heap:
            col = heappop(heap)
            factor = row.pop(col, None)
            if factor is None:
                continue
            rest, pb = pivots[col]
            b = sub(b, mul(factor, pb))
            # pivot rows only reach columns right of their pivot
            for k, v in rest.items():
                x = row.get(k)
                if x is not None:
                    x = add(x, mul(factor, v))
                    if x == zero:
                        del row[k]
                    else:
                        row[k] = x
                    continue
                x = mul(factor, v)
                pivot = pivots.get(k)
                if pivot is None:
                    row[k] = x
                elif pivot[0]:
                    row[k] = x
                    heappush(heap, k)
                else:
                    b = sub(b, mul(x, pivot[1]))
        if not row:
            if b != zero:
                return None
            continue
        lead = min(row)
        inv = field.inv(row.pop(lead))
        minus = field.neg(inv)
        pivots[lead] = ({k: mul(minus, v) for k, v in row.items()}, mul(inv, b))
    x = [zero] * len(columns)
    for lead in sorted(pivots, reverse=True):
        rest, b = pivots[lead]
        for k, v in rest.items():
            if x[k] != zero:
                b = add(b, mul(v, x[k]))
        x[lead] = b
    return x
