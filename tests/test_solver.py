"""Differential tests of the sparse column-form solver: against dense
Gauss-Jordan elimination, which it replaced, against the row-form
elimination with rows taken by size (`solve_row_form_reference`), which
the column-echelon pass replaced, and against the same row form with rows
in first-seen order (`solve_exact_reference`).  All three stay here as
oracles.  `dependencies` is checked against one `solve_exact_reference`
per prefix of the columns."""

import random
from fractions import Fraction

import pytest

from dgalift.algebra import Signature
from dgalift.field import QQ, PrimeField
from dgalift.lift import _homotopy_columns, obstruction
from dgalift.module import Differential, FreeModule, GradedMap
from dgalift.randgen import FixturePool, rand_unit
from dgalift.solver import dependencies, solve_exact
from oracles import (
    _coefficients,
    decode_rows,
    koszul,
    solve_exact_reference,
    solve_row_form_reference,
    trivial_grading,
)


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
        assert solve_row_form_reference(field, columns, sparse_rhs) == want
        assert solve_exact_reference(field, columns, sparse_rhs) == want
        # a second keying and row order of the same system gives the same answer
        columns, sparse_rhs = _column_form(field, matrix, rhs, ncols, rng)
        assert solve_exact(field, columns, sparse_rhs) == want
        outcomes.append(want is not None)
    assert outcomes.count(False) > 50 and outcomes.count(True) > 50


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_sparse_solver_edge_cases(field):
    """Each edge case gives the stated answer, as both row forms do."""
    one, zero = field.one, field.zero
    two = field.add(one, one)

    def solve(columns, rhs):
        got = solve_exact(field, columns, rhs)
        assert got == solve_exact_reference(field, columns, rhs)
        assert got == solve_row_form_reference(field, columns, rhs)
        return got

    assert solve([], {}) == []
    assert solve([], {"r": zero}) == []
    assert solve([], {"r": one}) is None
    assert solve([{}, {}], {}) == [zero, zero]
    # a right-hand side key that no column touches is a row 0 = 1
    assert solve([{"a": one}], {"a": one, "b": one}) is None
    # duplicate columns: the later one is free and stays zero
    assert solve([{"a": one}, {"a": one}], {"a": two}) == [two, zero]
    # zero coefficients and an empty column are ignored
    assert solve([{"a": zero}, {"a": two}], {"a": two}) == [zero, one]
    # x0 + x1 = 1 and x1 = 1
    cols = [{"a": one}, {"a": one, "b": one}]
    assert solve(cols, {"a": one, "b": one}) == [zero, one]
    # inconsistent: x0 = 1 and x0 = 2 on two rows
    assert solve([{"a": one, "b": one}], {"a": one, "b": two}) is None


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
    return mod, d.conjugate(u)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(5)], ids=["Q", "F2", "F5"])
def test_row_order_matches_first_seen_reference_on_random_systems(field):
    """The column-echelon pass gives the solution, or the None, of the row
    form with rows taken by size and of rows taken in first-seen order on
    the random systems of the dense-oracle test."""
    rng = random.Random(f"row-order-{field!r}")
    outcomes = []
    for _ in range(400):
        matrix, rhs, ncols = _random_dense(field, rng)
        columns, sparse_rhs = _column_form(field, matrix, rhs, ncols, rng)
        got = solve_exact(field, columns, sparse_rhs)
        assert got == solve_exact_reference(field, columns, sparse_rhs)
        assert got == solve_row_form_reference(field, columns, sparse_rhs)
        outcomes.append(got is not None)
    assert outcomes.count(False) > 50 and outcomes.count(True) > 50


def _homotopy_systems(field):
    """``(columns, targets)`` of the full systems `solve_homotopy`
    assembles: the `FixturePool` lifting modules, plain and conjugated by
    random units, and bench-shaped Koszul rungs of rank 8 and 16 (odd,
    even, even plus the miss block) at bounds 0-2, their int row keys
    decoded to ``((row, col), monomial)`` (`decode_rows`).  The targets
    are the obstruction ``j(d)``, and ``j(d)`` with one coefficient moved
    off it, which is most often inconsistent."""
    pool = FixturePool(field)
    rng = random.Random(61)
    cases = []
    for mod, d in [(pool.N3, pool.d3), (pool.N1, pool.d1), (pool.NK, pool.dK), (pool.Nodd, pool.dodd)]:
        cases.append((mod, d))
        for _ in range(2):
            u = rand_unit(mod, rng)
            cases.append((mod, d.conjugate(u)))
    for n in (3, 4):
        cases += [
            _bench_rung(field, "odd", n, rng),
            _bench_rung(field, "even", n, rng),
            _bench_rung(field, "even", n, rng, miss=True),
        ]
    for mod, d in cases:
        h = obstruction(mod, d, mod.sig.top_variable.name)
        rhs = _coefficients(h)
        moved = dict(rhs)
        key = next(iter(moved), ((0, 0), None))
        moved[key] = field.add(moved.get(key, field.zero), field.one)
        for bound in range(3):
            _, columns, ids = _homotopy_columns(mod, d, h.degree + 1, bound, (trivial_grading(mod), 0))
            yield decode_rows(mod, ids, columns), (rhs, moved)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=repr)
def test_row_order_matches_first_seen_reference_on_homotopy_systems(field):
    """The same, against both row forms, on `_homotopy_systems`."""
    verdicts = []
    for columns, targets in _homotopy_systems(field):
        for target in targets:
            got = solve_exact(field, columns, target)
            assert got == solve_exact_reference(field, columns, target)
            assert got == solve_row_form_reference(field, columns, target)
            verdicts.append(got is not None)
    assert verdicts.count(True) > 10 and verdicts.count(False) > 10


def _chained_system(field, rng):
    """A sparse system whose pivot rows chain: each row holds a few
    neighbouring unknowns, so a pivot row keeps entries besides its lead
    and reducing by it adds entries that need reducing in turn.  The
    right-hand side is the image of a sparse vector (so most pivots get a
    zero right-hand side), that image with one reached row moved off it
    (most often inconsistent, but only after reduction), or either with
    extra keys that no column reaches, zero or not."""
    ncols = rng.randint(1, 10)
    columns = [{} for _ in range(ncols)]
    nrows = rng.randint(1, 12)
    for i in range(nrows):
        start = rng.randrange(ncols)
        for j in range(start, min(ncols, start + rng.randint(1, 4))):
            if rng.random() < 0.8:
                columns[j][("row", i)] = _scalar(field, rng)
    x0 = [_scalar(field, rng) if rng.random() < 0.3 else field.zero for _ in range(ncols)]
    rhs = {}
    for col, xj in zip(columns, x0):
        for key, c in col.items():
            rhs[key] = field.add(rhs.get(key, field.zero), field.mul(xj, c))
    reached = sorted({key for col in columns for key, c in col.items() if c != field.zero})
    if reached and rng.random() < 0.5:
        key = rng.choice(reached)
        rhs[key] = field.add(rhs.get(key, field.zero), field.one)
    if rng.random() < 0.3:
        rhs[("free", 0)] = field.zero if rng.random() < 0.7 else field.one
    return columns, rhs


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=repr)
def test_chained_systems_match_the_first_seen_reference(field):
    """On systems whose pivot rows have rests that fill, whose pivots often
    have a zero right-hand side, with keys that no column reaches and with
    inconsistency that only reduction shows, the solver gives the solution
    or the None of `solve_exact_reference`, of the row form
    `solve_row_form_reference`, and of dense elimination."""
    rng = random.Random(f"chained-{field!r}")
    verdicts = []
    late = 0  # inconsistent, though every nonzero right-hand side is reached
    for _ in range(1500):
        columns, rhs = _chained_system(field, rng)
        got = solve_exact(field, columns, rhs)
        assert got == solve_exact_reference(field, columns, rhs)
        assert got == solve_row_form_reference(field, columns, rhs)
        keys = sorted({key for col in columns for key in col} | set(rhs))
        matrix = [[col.get(key, field.zero) for col in columns] for key in keys]
        assert got == _solve_dense(field, matrix, [rhs.get(key, field.zero) for key in keys], len(columns))
        verdicts.append(got is not None)
        reached = {key for col in columns for key, c in col.items() if c != field.zero}
        late += got is None and all(c == field.zero or key in reached for key, c in rhs.items())
    assert verdicts.count(True) > 300 and verdicts.count(False) > 300 and late > 200


def _with_copies(field, columns, rng):
    """`columns` with a zero column, a duplicate and a scaled copy of
    earlier columns inserted at random places (the copies after their
    originals)."""
    out = list(columns)
    for kind in ("zero", "duplicate", "scaled"):
        at = rng.randint(0, len(out))
        if kind == "zero" or not at:
            out.insert(at, {} if rng.random() < 0.5 else {("row", "z"): field.zero})
            continue
        col = rng.choice(out[:at])
        s = field.one if kind == "duplicate" else field.add(_scalar(field, rng), field.one)
        out.insert(at, {key: field.mul(s, c) for key, c in col.items()})
    return out


def _check_dependencies(field, columns, prefixes):
    """`dependencies` equals `solve_exact_reference` on each prefix in
    `prefixes`: column ``j`` as the right-hand side of the columns before
    it.  On every column, a combination it returns gives the column back
    and is zero off the columns it returns None for.  Returns the number
    of dependent columns."""
    zero = field.zero
    deps = dependencies(field, columns)
    assert len(deps) == len(columns)
    for j in prefixes:
        assert deps[j] == solve_exact_reference(field, columns[:j], columns[j])
    pivots = {j for j, x in enumerate(deps) if x is None}
    for j, x in enumerate(deps):
        if x is None:
            continue
        assert all(c == zero for i, c in enumerate(x) if i not in pivots)
        image: dict = {}
        for i, c in enumerate(x):
            for key, v in columns[i].items() if c != zero else ():
                image[key] = field.add(image.get(key, zero), field.mul(c, v))
        assert {k: v for k, v in image.items() if v != zero} == {
            k: v for k, v in columns[j].items() if v != zero
        }
    return len(columns) - len(pivots)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=repr)
def test_dependencies_match_per_prefix_reference_on_random_systems(field):
    """`dependencies` gives, for every column of the random systems of the
    dense-oracle test with a zero column, a duplicate and a scaled copy
    inserted, what `solve_exact_reference` gives on the prefix before it."""
    rng = random.Random(f"dependencies-{field!r}")
    dependent = 0
    for _ in range(300):
        matrix, rhs, ncols = _random_dense(field, rng)
        columns, _ = _column_form(field, matrix, rhs, ncols, rng)
        columns = _with_copies(field, columns, rng)
        dependent += _check_dependencies(field, columns, range(len(columns)))
    assert dependent > 1200


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=repr)
def test_dependencies_match_per_prefix_reference_on_chained_systems(field):
    """The same on the chained systems, whose pivots have rests that fill,
    and on those systems with the right-hand side as one more column."""
    rng = random.Random(f"chained-dependencies-{field!r}")
    dependent = 0
    for _ in range(500):
        columns, rhs = _chained_system(field, rng)
        columns = _with_copies(field, columns + [rhs], rng)
        dependent += _check_dependencies(field, columns, range(len(columns)))
    assert dependent > 2400


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=repr)
def test_dependencies_match_per_prefix_reference_on_homotopy_systems(field):
    """The same on `_homotopy_systems`, with each target as one more
    column: every prefix of a system of up to 40 columns, and 6 seeded
    prefixes of a larger one (the reference costs a solve per prefix),
    besides the check of every combination."""
    rng = random.Random(f"homotopy-dependencies-{field!r}")
    dependent = 0
    for columns, targets in _homotopy_systems(field):
        columns = columns + list(targets)
        n = len(columns)
        prefixes = range(n) if n <= 40 else rng.sample(range(n), 6)
        dependent += _check_dependencies(field, columns, prefixes)
    assert dependent > 2000


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_dependencies_edge_cases(field):
    one, zero = field.one, field.zero
    two = field.add(one, one)
    assert dependencies(field, []) == []
    # empty and zero columns lie in the span of nothing
    assert dependencies(field, [{}, {"a": zero}]) == [[], [zero]]
    # a duplicate of column 0 and a scaled copy of column 1
    cols = [{"a": one}, {"a": one, "b": one}, {"a": one}, {"a": two, "b": two}]
    assert dependencies(field, cols) == [None, None, [one, zero], [zero, two, zero]]
    # a column on keys that earlier columns reach: their combination, or new
    cols = [{"a": one}, {"b": one}, {"a": one, "b": two}]
    assert dependencies(field, cols) == [None, None, [one, two]]
    assert dependencies(field, [{"a": one, "b": one}, {"a": one, "b": two}]) == [None, None]
