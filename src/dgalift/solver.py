"""Exact sparse linear algebra over a coefficient field, in column form.

A system is given by its columns: ``columns[j]`` maps row keys to the
coefficients of unknown ``j``, and ``rhs`` maps row keys to the right-hand
side.  Row keys are any hashable values and a key no column touches is a
zero row, so callers pass the sparse images they already hold (brackets
with matrix units, differentials of monomials, products of entries) and no
dense matrix is ever built.

One column-echelon pass does all the work.  Row keys are ranked in the
order the columns first reach them, so after that pass no step hashes a
key again.  Each column is reduced by the pivot columns before it,
highest lead rank first, and the steps ``(pivot column, factor)`` are
kept.  A column whose top rank leads no pivot becomes a pivot that leads
on it; one that reduces to zero is a dependent column, and its steps give
it as a combination of the pivots.  Each step only adds ranks below the
one it clears, so a column that holds a key no column before it reaches
is a pivot at once: on the homotopy systems nearly every column is.  The
pivots keep their leads distinct, so the pivot columns are exactly the
columns outside the span of the columns before them.  Back-substitution
through the kept steps, in decreasing column order, gives the unique
combination supported on the pivot columns before it: the result depends
on the column order only.
"""

from __future__ import annotations

from typing import Optional


def _ranked(field, columns: list, rank: dict) -> list:
    """`columns` keyed by rank, ranking in `rank` each key first reached."""
    zero = field.zero
    return [
        {rank.setdefault(key, len(rank)): c for key, c in col.items() if c != zero}
        for col in columns
    ]


def _eliminate(field, ranked: list) -> list:
    """Reduce each of the `ranked` columns in place, in order, and return
    the steps ``(pivot column, factor)`` of each: a pivot column keeps its
    reduced vector, a dependent column ends empty."""
    zero, sub, mul = field.zero, field.sub, field.mul
    pivots: dict = {}  # lead rank -> (column, its vector, the inverse of its lead)
    out = []
    for j, v in enumerate(ranked):
        steps = []
        while v:
            top = max(v)
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = (j, v, field.inv(v[top]))
                break
            i, p, inv = pivot
            f = mul(v[top], inv)
            steps.append((i, f))
            for k, c in p.items():  # clears the top, adds only ranks below it
                x = sub(v.get(k, zero), mul(f, c))
                if x == zero:
                    del v[k]
                else:
                    v[k] = x
        out.append(steps)
    return out


def _combination(field, steps: list, j: int) -> list:
    """The values ``x_i``, ``i < j``, every free one zero, for which
    ``sum_i x_i col_i`` is what the steps of column ``j`` took off it.  A
    pivot column is its reduced vector plus the pivot vectors of its own
    steps, so each ``x_i``, in decreasing order, moves its steps onto the
    pivots before it."""
    zero, sub, mul = field.zero, field.sub, field.mul
    x = [zero] * j
    for i, f in steps[j]:
        x[i] = f
    for i in range(j - 1, -1, -1):
        if x[i] != zero:
            for k, f in steps[i]:
                x[k] = sub(x[k], mul(x[i], f))
    return x


def solve_exact(field, columns: list, rhs: dict) -> Optional[list]:
    """Solve ``sum_j x[j] * columns[j] == rhs`` exactly.

    Returns the values of the unknowns with every free unknown zero, or
    None when the system is inconsistent.  The right-hand side is one more
    column: the system is consistent exactly when it reduces to zero.  A
    nonzero right-hand side on a key that no column reaches is refused
    before any elimination step.
    """
    rank: dict = {}
    ranked = _ranked(field, columns, rank)
    reached = len(rank)
    ranked += _ranked(field, [rhs], rank)
    if len(rank) > reached:
        return None
    steps = _eliminate(field, ranked)
    return None if ranked[-1] else _combination(field, steps, len(columns))


def dependencies(field, columns: list) -> list:
    """For each column, None when it lies outside the span of the columns
    before it, else the values that `solve_exact` gives for it on them."""
    ranked = _ranked(field, columns, {})
    steps = _eliminate(field, ranked)
    return [None if v else _combination(field, steps, j) for j, v in enumerate(ranked)]
