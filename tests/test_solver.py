"""Differential tests of the sparse column-form solver: against dense
Gauss-Jordan elimination, which it replaced, and against the same
elimination in first-seen row order (`solve_exact_reference`), which the
row order by size replaced.  Both stay here as oracles."""

import random
from fractions import Fraction

import pytest

from dgalift.algebra import Signature
from dgalift.field import QQ, PrimeField
from dgalift.lift import _coefficients, _homotopy_columns, obstruction
from dgalift.module import Differential, FreeModule, GradedMap, invert_unit
from dgalift.randgen import FixturePool, rand_unit
from dgalift.solver import solve_exact
from oracles import koszul, solve_exact_reference, trivial_grading


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


def _bench_rung(field, parity, n, rng, miss=False):
    """A Koszul rung shaped as the benchmark draws them: ``K(a0..a_{n-1})``
    over ``F[a..]<X | dX = a0>`` (odd) or ``F[a..]<W0, W1, X | dX = a1*W0 -
    a0*W1>`` (even), conjugated by ``u = 1 + sum c*X*E_rc`` with one slot
    per degree band; a miss rung adds the block ``d(z1) = z0*(X + W0*W1)``,
    whose obstruction never bounds."""
    sig = Signature(field, [f"a{i}" for i in range(n)])
    if parity == "odd":
        sig = sig.adjoin("X", 1, "a0")
    else:
        sig = sig.adjoin("W0", 1, "a0").adjoin("W1", 1, "a1").adjoin("X", 2, "a1*W0 - a0*W1")
    kmod, kd = koszul(sig, [sig.gen(f"a{i}") for i in range(n)])
    basis = list(zip(kmod.names, kmod.degrees))
    entries = dict(kd.matrix.entries)
    if miss:
        basis += [("z0", 0), ("z1", 3)]
        entries[kmod.rank, kmod.rank + 1] = sig.parse("X + W0*W1")
    mod = FreeModule(sig, basis)
    d = Differential(GradedMap(mod, -1, entries))
    x, top = sig.gen("X"), sig.top_variable.degree
    degs = kmod.degrees
    u = GradedMap.identity(mod)
    for band in range(n + 1 - top):
        r = rng.choice([k for k in range(kmod.rank) if degs[k] == band])
        c = rng.choice([k for k in range(kmod.rank) if degs[k] == band + top])
        u = u + GradedMap(mod, 0, {(r, c): x.scale(rng.choice((1, 2, 3, -1, -2)))})
    return mod, d.conjugate(u, invert_unit(u))


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(5)], ids=["Q", "F2", "F5"])
def test_row_order_matches_first_seen_reference_on_random_systems(field):
    """Rows taken by size give the solution, or the None, of rows taken in
    first-seen order on the random systems of the dense-oracle test."""
    rng = random.Random(f"row-order-{field!r}")
    outcomes = []
    for _ in range(400):
        matrix, rhs, ncols = _random_dense(field, rng)
        columns, sparse_rhs = _column_form(field, matrix, rhs, ncols, rng)
        got = solve_exact(field, columns, sparse_rhs)
        assert got == solve_exact_reference(field, columns, sparse_rhs)
        outcomes.append(got is not None)
    assert outcomes.count(False) > 50 and outcomes.count(True) > 50


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=repr)
def test_row_order_matches_first_seen_reference_on_homotopy_systems(field):
    """The same on the full systems `solve_homotopy` assembles: the
    `FixturePool` lifting modules, plain and conjugated by random units,
    and bench-shaped Koszul rungs of rank 8 and 16 (odd, even, even plus
    the miss block) at bounds 0-2.  Each target is the obstruction ``j(d)``, and
    ``j(d)`` with one coefficient moved off it, which is most often
    inconsistent."""
    pool = FixturePool(field)
    rng = random.Random(61)
    cases = []
    for mod, d in [(pool.N3, pool.d3), (pool.N1, pool.d1), (pool.NK, pool.dK), (pool.Nodd, pool.dodd)]:
        cases.append((mod, d))
        for _ in range(2):
            u = rand_unit(mod, rng)
            cases.append((mod, d.conjugate(u, invert_unit(u))))
    for n in (3, 4):
        cases += [
            _bench_rung(field, "odd", n, rng),
            _bench_rung(field, "even", n, rng),
            _bench_rung(field, "even", n, rng, miss=True),
        ]
    one = field.one
    verdicts = []
    for mod, d in cases:
        h = obstruction(mod, d, mod.sig.top_variable.name)
        rhs = _coefficients(h)
        moved = dict(rhs)
        key = next(iter(moved), ((0, 0), None))
        moved[key] = field.add(moved.get(key, field.zero), one)
        for bound in range(3):
            _, columns = _homotopy_columns(mod, d, h.degree + 1, bound, (trivial_grading(mod), 0))
            for target in (rhs, moved):
                got = solve_exact(field, columns, target)
                assert got == solve_exact_reference(field, columns, target)
                verdicts.append(got is not None)
    assert verdicts.count(True) > 10 and verdicts.count(False) > 10
