"""Differential test of the sparse column-form solver against dense
Gauss-Jordan elimination, which it replaced and which stays here as the
oracle."""

import random
from fractions import Fraction

import pytest

from dgalift.field import QQ, PrimeField
from dgalift.solver import solve_exact


def _solve_dense(field, matrix, rhs, ncols):
    """Reference: dense Gauss-Jordan, first usable pivot per column in
    column order, free unknowns zero.  `ncols` is explicit because a
    system with no rows still has unknowns."""
    nrows = len(matrix)
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
                a[r] = [field.sub(x, field.mul(factor, y)) for x, y in zip(a[r], a[row])]
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


def _scalar(field, rng):
    if field is QQ:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return rng.randrange(field.p)


def _random_dense(field, rng):
    """A dense system, often rank-deficient, with duplicate and zero
    columns and all-zero rows mixed in; the right-hand side is in the
    column span about half the time."""
    nrows, ncols = rng.randint(0, 7), rng.randint(0, 7)
    sparsity = rng.random()
    cols = []
    for _ in range(ncols):
        kind = rng.random()
        if cols and kind < 0.15:
            cols.append(list(rng.choice(cols)))  # duplicate column
        elif kind < 0.25:
            cols.append([field.zero] * nrows)  # zero column
        elif len(cols) >= 2 and kind < 0.45:
            # a combination of earlier columns: rank deficiency
            p, q = rng.sample(cols, 2)
            s, t = _scalar(field, rng), _scalar(field, rng)
            cols.append([field.add(field.mul(s, x), field.mul(t, y)) for x, y in zip(p, q)])
        else:
            cols.append(
                [_scalar(field, rng) if rng.random() > sparsity else field.zero for _ in range(nrows)]
            )
    if rng.random() < 0.5:
        x0 = [_scalar(field, rng) for _ in range(ncols)]
        rhs = [field.zero] * nrows
        for col, xj in zip(cols, x0):
            rhs = [field.add(r, field.mul(xj, c)) for r, c in zip(rhs, col)]
    else:
        rhs = [_scalar(field, rng) for _ in range(nrows)]
    matrix = [[col[i] for col in cols] for i in range(nrows)]
    return matrix, rhs, ncols


def _column_form(field, matrix, rhs, ncols, rng):
    """The same system with shuffled hashable row keys, zero cells left
    out and rows keyed in a random order."""
    order = list(range(len(matrix)))
    rng.shuffle(order)
    keys = [("row", rng.randrange(10**6), i) for i in range(len(matrix))]
    columns = [{} for _ in range(ncols)]
    sparse_rhs = {}
    for i in order:
        for j in range(ncols):
            if matrix[i][j] != field.zero:
                columns[j][keys[i]] = matrix[i][j]
        if rhs[i] != field.zero or rng.random() < 0.3:  # explicit zeros too
            sparse_rhs[keys[i]] = rhs[i]
    return columns, sparse_rhs


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(5)], ids=["Q", "F2", "F5"])
def test_sparse_solver_matches_dense_oracle(field):
    rng = random.Random(f"solver-{field!r}")
    outcomes = []
    for _ in range(400):
        matrix, rhs, ncols = _random_dense(field, rng)
        want = _solve_dense(field, matrix, rhs, ncols)
        columns, sparse_rhs = _column_form(field, matrix, rhs, ncols, rng)
        assert solve_exact(field, columns, sparse_rhs) == want
        # a second keying and row order of the same system gives the same answer
        columns, sparse_rhs = _column_form(field, matrix, rhs, ncols, rng)
        assert solve_exact(field, columns, sparse_rhs) == want
        outcomes.append(want is not None)
    assert outcomes.count(False) > 50 and outcomes.count(True) > 50


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_sparse_solver_edge_cases(field):
    one, zero = field.one, field.zero
    two = field.add(one, one)
    assert solve_exact(field, [], {}) == []
    assert solve_exact(field, [], {"r": zero}) == []
    assert solve_exact(field, [], {"r": one}) is None
    assert solve_exact(field, [{}, {}], {}) == [zero, zero]
    # a right-hand side key that no column touches is a row 0 = 1
    assert solve_exact(field, [{"a": one}], {"a": one, "b": one}) is None
    # duplicate columns: the later one is free and stays zero
    assert solve_exact(field, [{"a": one}, {"a": one}], {"a": two}) == [two, zero]
    # zero coefficients and an empty column are ignored
    assert solve_exact(field, [{"a": zero}, {"a": two}], {"a": two}) == [zero, one]
    # x0 + x1 = 1 and x1 = 1
    cols = [{"a": one}, {"a": one, "b": one}]
    assert solve_exact(field, cols, {"a": one, "b": one}) == [zero, one]
    # inconsistent: x0 = 1 and x0 = 2 on two rows
    assert solve_exact(field, [{"a": one, "b": one}], {"a": one, "b": two}) is None
