"""Lifting a free DG module across the top adjoined variable.

Given a square-zero differential on a finite free module over the extended
algebra, the class of the basis-derivative of the differential is the one
obstruction that matters: it vanishes as a boundary exactly when the
module lifts (even variable) or weakly lifts through its rank-two
extension (odd variable), and exactly when the natural evaluation map from
the restricted-extended module splits.

The solver half is a semi-decision: a homotopy ``gamma`` with
``j(d) = [d, gamma]`` is searched for with polygen degrees capped by an
explicit bound.  Certificates are exact and re-verified; a miss is only
conclusive up to the bound.

Polygens are degree-0 cycles, so a second grading can split the search.
`_grading` finds the finest one in which ``D`` and the target ``h`` are
homogeneous, by integer polygen weights: polygens start as unit vectors,
each variable weighs what its differential weighs, and the weights are
propagated along the terms of ``D``; every mismatch is a conflict, as is
every difference between the classes of the terms of ``h``, and the
polygen weights are then taken in the kernel of the conflicts.  Every
term of ``D`` then has class 0 as a map, every term of ``h`` one class
``w``, ``[d, -]`` preserves class, and only the unknowns of class ``w``
can carry the certificate.  `solve_homotopy` assembles and solves that
one block and gets the certificate of the full system bit for bit.
`_Grading.band` lists the unknowns of a class from the kernel: only the
exponents of the pivot polygens are tried, and where the all-ones
grading (every polygen weighs 1) holds as well, only up to the class's
weight, so a bound past it costs nothing.  Without conflict-free weights
the grading is the trivial one, of one class; `is_boundary_up_to` is the
same search on the free module of rank one.

The construction half is deterministic once a certificate exists.  One
closed form, `_basis_change`, gives the basis change of both parities:
``u = sum_n (-1)^n X^(n) A_n`` with ``A_0 = 1`` and ``A_(n+1) = j(A_n) + g A_n``,
for ``g = gamma`` (even variable) or, on the doubled module, for
``g = [[-gamma, -1], [alpha, gamma]]`` (odd variable, where ``u = 1 - X g``).
Column ``c`` of ``u`` is column ``c`` of the corrected idempotent of ``eps_c``
for every gamma, because a map of negative degree has no diagonal entries.
The output is ``u`` and a differential matrix free of the variable.

A construction runs one check per identity: the setting and parity
guards, the module and degree of ``gamma``, the termination cap of the
basis change, `invert_unit`'s one-sided check, and `verify_lift`, whose
variable check is the certificate check (``j(D') = u^{-1} Delta(d) u``).
`construct_lift_even` and `construct_lift_odd` prove this and every
identity that holds for every degree ``-|X|`` matrix ``gamma``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Optional

from .algebra import (
    AlgElem,
    _diff_into,
    _mul_into,
    _poly_tuples,
    component_monomials,
    derivative,
    monomial_sort_key,
)
from .errors import NotInvertibleError, SchemaError, VerificationError
from .field import QQ
from .jop import CheckReport, JOperator
from .module import (
    Differential,
    FreeModule,
    GradedMap,
    _finish,
    _product_into,
    bracket_diff,
    compose,
    invert_unit,
    left_mult,
    sharp_map,
    twofold_extension,
)
from .solver import dependencies, solve_exact


@dataclass
class LiftDecision:
    """Outcome of the obstruction-vanishing search at one bound: a checked
    certificate ``gamma`` with ``j(d) = [d, gamma]``, or None when the search
    found none up to the bound.  `vanishes` is true exactly when
    `certificate` is not None."""

    certificate: Optional[GradedMap]

    @property
    def vanishes(self) -> bool:
        return self.certificate is not None


@dataclass
class LiftResult:
    """A constructed lift: basis change plus variable-free differential.

    For an even variable `module` is the input module itself; for an odd
    variable it is the doubled module carrying the block differential, and
    `shift_k` records the shift of the second summand.
    """

    parity: str
    var_name: str
    module: FreeModule
    u: GradedMap
    u_inv: GradedMap
    lift_diff: Differential
    ambient_diff: Differential
    certificate: GradedMap
    shift_k: Optional[int] = None


def _require_liftable_setting(module: FreeModule, d: Differential, var_name: str):
    sig = module.sig
    if sig.degenerate:
        raise SchemaError("lifting is undefined over a degenerate signature")
    if not sig.is_top(var_name):
        raise SchemaError(f"{var_name!r} is not the top variable of the signature")
    if d.module != module:
        raise SchemaError("differential acts on a different module")
    if not d.square_zero:
        raise SchemaError("the differential must square to zero")


def obstruction(module: FreeModule, d: Differential, var_name: str) -> GradedMap:
    """The obstruction matrix ``j(d)``, a cycle: ``[d, j(d)] = 0``.

    The setting check gives this, with no check of its own.  For the top
    variable ``j`` is a derivation of degree ``-|X|`` of the operators
    (`JOperator.of_dop`), so ``j(d o d) = j(d) d + (-1)^{|X|} d j(d)``, and
    with ``|d| = -1`` that is ``(-1)^{|X|} [d, j(d)]``.  ``d o d = 0``, so
    ``[d, j(d)] = 0``.
    """
    _require_liftable_setting(module, d, var_name)
    return JOperator(module, var_name).of_diff(d)


def _coefficients(f: GradedMap) -> dict:
    """The monomial coefficients of a map, keyed by ``((row, col), monomial)``."""
    return {(key, m): c for key, e in f.entries.items() for m, c in e.terms.items()}


def _propagate(module: FreeModule, d: Differential, h: GradedMap, poly: list):
    """Weights from the polygen weights `poly`, one int each: those of the
    variables, those of the basis elements, the conflicts met and the
    class of ``h``.

    A variable weighs what the first term of its differential weighs (0
    for a zero differential).  Each term ``t`` of an entry ``D[a, b]`` asks
    for ``w(e_b) = w(e_a) + w(t)``; the basis weights are propagated along
    these terms from weight 0 at the first basis element of each connected
    component, one free offset per component.  Where a term of a variable
    differential or of ``D`` asks for another weight than the one set, the
    difference is a conflict: the grading holds once it weighs 0.  Each
    term ``m E_rc`` of ``h`` then has the class ``w(e_r) + w(m) - w(e_c)``;
    the class returned is the least of them (0 for a zero ``h``), and the
    differences from it are conflicts too, so that ``h`` has one class
    once they weigh 0.  The conflicts come as absolute values, so each
    counts once up to sign.
    """
    var: list = []
    conflicts: set = set()
    for v in module.sig.variables:
        # a variable differential only mentions earlier variables: map stops there
        found = [sum(map(mul, p, poly)) + sum(map(mul, e, var)) for p, e in v.diff.terms]
        var.append(found[0] if found else 0)
        conflicts.update(abs(w - found[0]) for w in found[1:])
    weights: dict = {}  # monomial -> weight
    links: list = [[] for _ in range(module.rank)]  # a -> [(b, w(e_b) - w(e_a))]
    for (a, b), e in d.matrix.entries.items():
        for m in e.terms:
            w = weights.get(m)
            if w is None:
                w = weights[m] = sum(map(mul, m[0], poly)) + sum(map(mul, m[1], var))
            links[a].append((b, w))
            links[b].append((a, -w))
    basis: list = [None] * module.rank
    for start in range(module.rank):
        if basis[start] is not None:
            continue
        basis[start] = 0
        todo = [start]
        while todo:
            a = todo.pop()
            for b, w in links[a]:
                want = basis[a] + w
                if basis[b] is None:
                    basis[b] = want
                    todo.append(b)
                elif basis[b] != want:
                    conflicts.add(abs(basis[b] - want))
    classes = {
        basis[r] + sum(map(mul, m[0], poly)) + sum(map(mul, m[1], var)) - basis[c]
        for (r, c), e in h.entries.items()
        for m in e.terms
    }
    w = min(classes, default=0)
    conflicts.update(x - w for x in classes)
    conflicts.discard(0)
    return basis, var, conflicts, w


def _kernel(rows: list, n: int) -> tuple:
    """A basis of the integer vectors of length `n` orthogonal to every row,
    and the pivot columns, in increasing order.

    One `dependencies` pass over the columns of the rows finds the pivots,
    the columns outside the span of the columns before them.  Each other
    column ``j`` is ``sum_(i<j) x_i col_i`` with every free ``x_i`` zero:
    the vector ``-x`` with 1 at ``j`` and 0 past it lies in the kernel and
    is 0 at the other free columns.  Cleared of denominators it is
    positive at ``j``, where it holds their lcm, so its entries have no
    common factor.  The vectors come in the order of their free columns.
    """
    columns = [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(n)]
    kernel, pivots = [], []
    for j, x in enumerate(dependencies(QQ, columns)):
        if x is None:
            pivots.append(j)
        else:
            kernel.append(QQ.clear_denominators([-c for c in x] + [1] + [0] * (n - 1 - j)))
    return kernel, pivots


def _unpack(x: int, bits: int, n: int) -> list:
    """The `n` signed coordinates of ``x = sum v_i 2^(bits i)``."""
    half = 1 << (bits - 1)
    out = []
    for _ in range(n):
        low = ((x + half) & ((half << 1) - 1)) - half
        out.append(low)
        x = (x - low) >> bits
    return out


@dataclass(frozen=True)
class _Grading:
    """A grading of a module's differential by polygen weights.

    Each polygen, variable and basis element has a class: an int that
    packs a vector of integer weights as ``sum v_i 2^(bits i)``, so that
    classes add as ints.  A monomial ``m = p x^v`` has class ``weight(m) =
    sum p_i poly[i] + sum v_j var[j]``, a term ``m E_rc`` of a map the class
    ``basis[r] + weight(m) - basis[c]``.  Every term of ``D`` has class 0
    and every term of each ``dX`` the class of ``X``, so ``[d, -]``
    preserves class.  Polygen ``i`` has coordinates entry ``i`` of the
    all-ones vector, when `ones` holds, and of each `kernel` vector; each
    of these is positive at a free column of its own and 0 at the others,
    and the other columns are the `pivots`.  The trivial grading has no
    coordinates: one class holds every monomial.
    """

    sig: object
    basis: list
    poly: list
    var: list
    bits: int
    ones: bool
    kernel: list
    pivots: list

    def band(self, degree: int, bound: int, cls: int) -> list:
        """The monomials of class `cls` in the band of `degree` with polygen
        degree at most `bound`, in monomial order.  For each variable part
        ``v`` the exponents at the pivots fix the others, one exact division
        per kernel vector, so only they are tried: up to the all-ones weight
        of ``cls - weight(v)``, which ``p`` must have, when `ones` holds and
        else up to `bound`; without pivots there is one candidate."""
        n, ones, pivots = len(self.poly), self.ones, self.pivots
        free = [f for f in range(n) if f not in pivots]  # one per kernel vector, in order
        out = []
        for _, v in component_monomials(self.sig, degree, 0):
            x = cls - sum(map(mul, v, self.var))
            t = _unpack(x, self.bits, ones + len(self.kernel))
            top = t[0] if ones else bound  # the most polygen degree p may have
            if not 0 <= top <= bound or sum(c << self.bits * i for i, c in enumerate(t)) != x:
                continue  # no room for polygens, or not a class of this packing
            for k in range(top + 1 if pivots else 1):
                for q in _poly_tuples(len(pivots), k):
                    p = dict(zip(pivots, q))
                    for f, u, y in zip(free, self.kernel, t[ones:]):
                        p[f], rest = divmod(y - sum(u[c] * p[c] for c in pivots), u[f])
                        if rest or p[f] < 0:
                            break
                    else:
                        if sum(p.values()) == top or not ones and sum(p.values()) < top:
                            out.append((tuple(p[i] for i in range(n)), v))
        out.sort(key=monomial_sort_key)
        return out


def _grading(module: FreeModule, d: Differential, h: GradedMap, bound: int) -> tuple:
    """The block ``(grading, w)`` that can hold a solution of
    ``[d, gamma] = h``: the finest grading in which ``D`` and ``h`` are
    homogeneous, and the class ``w`` of ``h`` (0 when ``h`` is zero).

    One `_propagate`, on unit polygen weights, collects the conflicts of
    ``D`` and of the classes of ``h``.  The polygen weights are the
    integer vectors in their kernel, which `_kernel` takes from one
    `dependencies` pass (the unit vectors when there is no conflict), after
    the all-ones vector when every conflict sums to 0; an empty kernel is
    the trivial grading.  Every weight `_propagate` sets combines the polygen
    weights along one spanning forest, so the block's basis, variable and
    class weights are the images of the first pass's under the linear
    map to the new polygen weights, which sends every conflict to 0.  Two
    monomials have one class exactly when their weight vectors (polygen
    exponents plus the variables' vectors) differ by a rational
    combination of conflicts.

    The packing is injective on every vector the search compares:
    `bits` bounds each coordinate by the L1 sizes of the terms of ``D``
    and ``h``, of the variable differentials and of the monomials of
    polygen degree up to `bound` in the bands of ``gamma``.
    """
    sig = module.sig
    n = len(sig.polygens)
    norms: list = []  # an L1 bound on each variable's weight vector
    for v in sig.variables:
        norms.append(max((sum(p) + sum(map(mul, e, norms)) for p, e in v.diff.terms), default=0))
    terms = [m for f in (d.matrix, h) for x in f.entries.values() for m in x.terms]
    top = max((sum(p) + sum(map(mul, e, norms)) for p, e in set(terms)), default=0)
    # a basis weight adds up at most every term once, a target four basis
    # weights and a term of h; a band monomial weighs at most the second bound
    reach = max(
        4 * (len(terms) + 1) * max(top, *norms, 0),
        bound + max(module.spread() + h.degree + 1, 0) * max(norms, default=0),
    )
    unit = (reach + 1).bit_length() + 1
    basis, var, conflicts, w = _propagate(module, d, h, [1 << unit * i for i in range(n)])
    rows = [_unpack(x, unit, n) for x in sorted(conflicts)]
    kernel, pivots = _kernel(rows, n)
    ones = all(sum(row) == 0 for row in rows)
    coords = ([[1] * n] if ones else []) + kernel  # coordinate 0: all-ones weight
    # the all-ones coordinate's entries are 1, which counts without polygens too
    bits = ((reach + 1) * max([ones] + [abs(x) for v in kernel for x in v])).bit_length() + 1
    poly = [sum(v[i] << bits * j for j, v in enumerate(coords)) for i in range(n)]
    basis, var, w = ([sum(map(mul, _unpack(x, unit, n), poly)) for x in xs] for xs in (basis, var, [w]))
    return _Grading(sig, basis, poly, var, bits, ones, kernel, pivots), w[0]


def _homotopy_columns(
    module: FreeModule, d: Differential, degree: int, bound: int, block: tuple
):
    """The unknowns ``(r, c, m)`` of ``[d, gamma]`` in one block
    ``(grading, w)`` for a degree-``degree`` ``gamma``, and the
    coefficients of each unknown's image.  `_grading` gives the block of a
    target; any class of any grading of ``D`` is a block.

    The unknowns at ``(r, c)`` are the monomials of polygen degree at most
    `bound` in the band of that entry that have class ``w`` as maps: the
    monomials ``m`` with ``weight(m) = basis[c] - basis[r] + w``
    (`_Grading.band`, once per band degree and class).  Under the trivial
    grading that is every monomial of the band.  The unknowns come in
    (row, column, monomial) order.

    The image of ``m E_rc`` is ``D[:, r] m`` in column ``c``, plus
    ``(-1)^{|e_r|} d(m)`` at ``(r, c)``, minus ``(-1)^{degree} m D[c, :]`` in
    row ``r``.  The three parts never share a matrix entry, because ``D``
    has no diagonal entries (they would have degree -1).  ``D`` is indexed
    by column and by row once, and ``d(m)``, ``D[:, r] m`` and ``m D[c, :]``
    are computed once per monomial, per ``(r, m)`` and per ``(c, m)``: each
    is shared by every unknown of its degree band.  The products are taken
    on term maps by `_mul_into`, the sign of ``m D[c, :]`` as its `neg`
    flag, and each column is filled by plain loops over them.
    """
    sig = module.sig
    field = sig.field
    one = field.one
    degs = module.degrees
    by_col: dict = {}  # r -> [(a, terms of D[a, r])]
    by_row: dict = {}  # c -> [(b, terms of D[c, b])]
    for (a, b), e in d.matrix.entries.items():
        by_col.setdefault(b, []).append((a, e.terms))
        by_row.setdefault(a, []).append((b, e.terms))
    subtract = degree % 2 == 0
    monos: dict = {}  # m -> ({m: 1}, (d(m), -d(m)))
    lefts: dict = {}  # (r, m) -> [(a, D[a, r] m)]
    rights: dict = {}  # (c, m) -> [(b, -/+ m D[c, b])]
    unknowns = []  # (row, col, monomial)
    columns = []  # per unknown: ((row, col), monomial) -> coefficient
    grading, w = block
    bands: dict = {}  # (band degree, band class) -> monomials
    cols: dict = {}  # |e_r| -> the columns c whose band degree |e_c| - |e_r| + degree is >= 0
    for r in range(module.rank):
        row_deg = degs[r]
        row_odd = row_deg % 2
        reach = cols.get(row_deg)
        if reach is None:
            reach = cols[row_deg] = [c for c, e in enumerate(degs) if e - row_deg + degree >= 0]
        for c in reach:
            key = (degs[c] - row_deg + degree, grading.basis[c] - grading.basis[r] + w)
            band = bands.get(key)
            if band is None:
                band = bands[key] = grading.band(key[0], bound, key[1])
            for m in band:
                cached = monos.get(m)
                if cached is None:
                    unit = {m: one}
                    dm: dict = {}
                    _diff_into(sig, dm, unit)
                    cached = monos[m] = unit, (dm, {t: field.neg(x) for t, x in dm.items()})
                unit, dms = cached
                left = lefts.get((r, m))
                if left is None:
                    left = lefts[r, m] = []
                    for a, e in by_col.get(r, ()):
                        out: dict = {}
                        _mul_into(sig, out, e, unit)
                        left.append((a, out))
                right = rights.get((c, m))
                if right is None:
                    right = rights[c, m] = []
                    for b, e in by_row.get(c, ()):
                        out = {}
                        _mul_into(sig, out, unit, e, subtract)
                        right.append((b, out))
                column: dict = {}
                for a, t in left:
                    entry = (a, c)
                    for mono, x in t.items():
                        column[entry, mono] = x
                entry = (r, c)
                for mono, x in dms[row_odd].items():
                    column[entry, mono] = x
                for b, t in right:
                    entry = (r, b)
                    for mono, x in t.items():
                        column[entry, mono] = x
                unknowns.append((r, c, m))
                columns.append(column)
    return unknowns, columns


def solve_homotopy(
    module: FreeModule, d: Differential, h: GradedMap, bound: int
) -> Optional[GradedMap]:
    """Search for gamma with ``[d, gamma] = h``, polygen degrees <= bound.

    Unknowns are the monomial coefficients of each matrix entry, ordered by
    (row, column, monomial order).  Their images come in closed form from
    ``[d, m E_rc] = D[:, r] m + (-1)^{|e_r|} d(m) E_rc - (-1)^{|gamma|} m D[c, :]``
    (see `_homotopy_columns`), which reads one column and one row of the
    matrix ``D`` of ``d`` and shares every product across the unknowns of
    its degree band.  The solution with every free unknown zero is
    returned and re-verified by ``[d, gamma] = h``.  None means no
    certificate exists within the bound.

    Only the unknowns of the block `_grading` returns enter the system:
    the class ``w`` of every term of ``h`` as a map, in the finest grading
    of ``D`` and ``h``.  ``[d, -]`` preserves every grading, so the columns
    of each class touch only rows of that class, and the right-hand side
    lies in the rows of class ``w``.  The solution with every free unknown
    zero, whose pivots the column order fixes, is therefore zero off the
    block and on it equals the block system's solution: the certificate
    is the one the system of every unknown gives; for a zero ``h`` it is
    the zero map, returned without a search.  `_Grading.band` tries only
    the exponents of the pivot polygens of each class: where the all-ones
    grading holds a search costs the same at any bound past the polygen
    degree its block needs, and otherwise it grows as the bound to the
    power of the number of pivots.
    """
    if d.module != module or h.module != module:
        raise SchemaError("differential and target must act on the given module")
    gamma_degree = h.degree + 1
    if h.is_zero():
        return GradedMap.zero(module, gamma_degree)
    field = module.sig.field
    block = _grading(module, d, h, bound)
    unknowns, columns = _homotopy_columns(module, d, gamma_degree, bound, block)
    sol = solve_exact(field, columns, _coefficients(h))
    if sol is None:
        return None
    entries: dict = {}  # an accumulator: each (r, c, m) is one unknown
    for (r, c, m), cval in zip(unknowns, sol):
        if cval != field.zero:
            entries.setdefault((r, c), {})[m] = cval
    gamma = _finish(module, gamma_degree, entries)
    if bracket_diff(d, gamma) != h:
        raise VerificationError("homotopy certificate failed its exact re-check")
    return gamma


def is_boundary_up_to(elem: AlgElem, poly_bound: int) -> Optional[AlgElem]:
    """Search for b with diff(b) == elem among elements supported on
    monomials of degree ``deg(elem) + 1`` and polygen degree <= poly_bound:
    `solve_homotopy` for ``[d, b] = d(b)`` on the free module of rank one
    with zero differential.  There the variable differentials and the
    terms of ``elem`` set the grading, and the unknowns are the monomials
    of the band in the class of ``elem``.  Returns a witness `AlgElem`
    (re-verified exactly) or None.  None is conclusive only up to the
    bound.
    """
    if elem.is_zero():
        return elem.sig.zero()
    n = elem.degree()  # raises on inhomogeneous input
    module = FreeModule(elem.sig, [("e", 0)])
    h = GradedMap(module, n, {(0, 0): elem}, check=False)
    gamma = solve_homotopy(module, Differential.free(module), h, poly_bound)
    return None if gamma is None else gamma.entry(0, 0)


def decide_naive_lift(
    module: FreeModule, d: Differential, var_name: str, bound: int
) -> LiftDecision:
    """Semi-decide obstruction vanishing at the given polygen-degree bound."""
    cert = solve_homotopy(module, d, obstruction(module, d, var_name), bound)
    return LiftDecision(cert)


# -- constructions: one basis change for both parities -----------------------------


def _basis_change(module: FreeModule, var_name: str, g: GradedMap) -> GradedMap:
    """``u = sum_n (-1)^n X^(n) A_n`` with ``A_0 = 1`` and
    ``A_(n+1) = j(A_n) + g A_n``, for a degree ``-|X|`` matrix ``g``.

    The sum stops at the first zero ``A_n`` or at the first ``X^(n) = 0``,
    and ``A_(n+1)`` is not built once ``X^(n+1)`` is zero: for an odd
    variable ``u = 1 - X g``.  ``A_n`` has degree ``-n |X|`` and vanishes
    once ``n |X|`` exceeds the spread of the basis degrees; the cap on the
    number of steps guards this.
    """
    sig = module.sig
    jop = JOperator(module, var_name)
    cap = module.spread() // jop.var.degree + 2
    out: dict = {}
    a, n, power = GradedMap.identity(module), 0, sig.one()
    while True:
        _product_into(out, left_mult(module, power), a, n % 2 == 1)
        n += 1
        power = sig.gen_power(var_name, n)
        if power.is_zero():
            break
        step: dict = {}
        jop._j_into(step, a)
        _product_into(step, g, a)
        a = _finish(module, n * jop.degree, step)
        if a.is_zero():
            break
        if n > cap:
            raise VerificationError("idempotent correction series failed to terminate")
    return _finish(module, 0, out)


def _certified(parity, module, d, var_name, gamma) -> None:
    """Setting and parity guards, and `JOperator`'s module and degree check of ``gamma``."""
    _require_liftable_setting(module, d, var_name)
    if parity != ("odd" if module.sig.var(var_name).odd else "even"):
        raise SchemaError(f"{parity} construction requires an {parity} variable")
    JOperator(module, var_name, gamma)


def construct_lift_even(
    module: FreeModule, d: Differential, var_name: str, gamma: GradedMap
) -> LiftResult:
    """Build a lift along an even top variable from a homotopy certificate.

    With ``Delta = JOperator(module, X, gamma)``, each projection ``eps`` has
    the corrected idempotent ``eps0 = eps - X Delta(eps) + X^(2) Delta^2(eps)
    - ...``, which lies in ``ker Delta`` for every gamma: ``gamma``
    graded-commutes with ``l_{X^(n)}`` and ``j(l_{X^(n)}) = l_{X^(n-1)}``, so
    ``Delta(X^(n) f) = X^(n-1) f + X^(n) Delta(f)`` and ``Delta(eps0)``
    telescopes to ``(-1)^N X^(N) Delta^(N+1)(eps) = 0``.

    Column ``lam`` of ``u`` is column ``lam`` of ``eps0`` for ``eps_lam``, and
    `_basis_change` gives all columns at once for every gamma of degree
    ``-|X|``.  ``Delta(eps_lam) = gamma eps_lam - eps_lam gamma`` and, as
    ``|A_n|`` is even, ``Delta(A_n) + A_n gamma = j(A_n) + gamma A_n``, so
    ``Delta(A_n eps_lam) = A_(n+1) eps_lam - A_n eps_lam gamma``.  By the
    Leibniz rule ``Delta^n(eps_lam) = A_n eps_lam + sum C eps_lam D`` with
    each ``D`` of negative degree, hence without diagonal entries, and
    column ``lam`` of ``C eps_lam D`` is ``C e_lam D[lam, lam] = 0``.

    The input enters through `verify_lift` alone.  ``j(u) = -gamma u``, as
    ``j(X^(n) A_n) = X^(n-1) A_n + X^(n) j(A_n)`` and ``A_(n+1) - j(A_n) =
    gamma A_n`` telescope, so ``j(D') = u^{-1} Delta(d) u``, free of ``X``
    exactly when ``Delta(d) = 0``; ``u`` (flat part 1) is always invertible.
    """
    _certified("even", module, d, var_name, gamma)
    u = _basis_change(module, var_name, gamma)
    return _conjugate_and_verify("even", var_name, module, d, u, gamma)


def _beta_sharp(doubled: FreeModule, base: FreeModule, alpha: GradedMap, k: int) -> GradedMap:
    """The block matrix ``(x, y) -> (-y, alpha x)``, unchecked: ``-1`` and ``alpha`` fit ``k``."""
    r = base.rank
    sig = base.sig
    minus_one = sig.scalar(sig.field.neg(sig.field.one))
    entries = {(lam, lam + r): minus_one for lam in range(r)}
    for (mu, lam), v in alpha.entries.items():
        entries[(mu + r, lam)] = v
    return GradedMap(doubled, k, entries, check=False)


def construct_lift_odd(
    module: FreeModule, d: Differential, var_name: str, gamma: GradedMap
) -> LiftResult:
    """Build a lift of the doubled module along an odd top variable.

    The lifted object is ``N + N(-|X|)`` with the block differential
    ``diag(d, -d)``.  With ``Delta = JOperator(module, X, -gamma)`` and
    ``alpha = gamma^2 - j(gamma)``, the derivation ``Gamma = j# + [g, -]``
    of the doubled module has ``g = [[-gamma, -1], [alpha, gamma]]``.

    Only ``Delta(d) = 0`` depends on the input.  The rest holds for every
    gamma of degree ``-|X|``, since ``j`` is a derivation with ``j^2 = 0``
    (X is odd), so that ``j(gamma^2) = j(gamma) gamma - gamma j(gamma)``:

    * ``j#(g) + g^2 = 0`` block by block, so ``Gamma^2 = 0`` and each
      ``Gamma(l_X eps_c)`` lies in ``ker Gamma``;
    * ``l_X`` graded-commutes with ``g``, so the ``Gamma(l_X eps_c)`` sum to
      ``Gamma(l_X) = j#(l_X) = id``;
    * ``Delta(alpha) = j(alpha) - [gamma, alpha] = 0``;
    * ``Gamma(d#)`` has ``Delta(d)`` in both diagonal blocks and
      ``-[d, alpha]`` below them, and ``Delta^2 = ad(alpha)`` makes
      ``[d, alpha]`` vanish with ``Delta(d)``: ``Gamma(d#) = 0`` exactly
      when ``Delta(d) = 0``.

    Column ``c`` of ``u`` is column ``c`` of ``Gamma(l_X eps_c)``, and
    `_basis_change` gives ``u = 1 - X g = 1 + g l_X``: ``g`` has odd degree,
    so ``Gamma(l_X eps_c) = eps_c + g l_X eps_c + l_X eps_c g``, and column
    ``c`` of the last term is ``X e_c g[c, c] = 0`` (``g`` has negative
    degree, hence no diagonal entries).

    ``j#(u) = -g u`` (``j#(l_X g) = g - l_X j#(g) = g - g l_X g``), so
    ``j#(D'#) = u^{-1} Gamma(d#) u``: `verify_lift` checks ``Delta(d) = 0``.
    """
    _certified("odd", module, d, var_name, gamma)
    jop = JOperator(module, var_name)
    # square of (j - ad gamma): the derivative term enters negated
    alpha = compose(gamma, gamma) - jop.of_map(gamma)

    k = -jop.var.degree
    doubled, d_sharp = twofold_extension(module, d, k)
    g = _beta_sharp(doubled, module, alpha, k) - sharp_map(gamma, doubled, k)
    u = _basis_change(doubled, var_name, g)
    return _conjugate_and_verify("odd", var_name, doubled, d_sharp, u, gamma, k)


def _conjugate_and_verify(parity, var_name, module, d, u, gamma, shift_k=None) -> LiftResult:
    """Conjugate ``d`` into the basis whose columns are those of ``u`` and
    return the lift once `verify_lift` has passed on it."""
    u_inv = invert_unit(u)
    lift_diff = d.conjugate(u_inv, u)
    report = verify_lift(lift_diff, u, d, var_name, u_inv=u_inv)
    if not report.passed:
        raise VerificationError(
            f"{parity} lift failed verification: " + "; ".join(report.failures)
        )
    return LiftResult(parity, var_name, module, u, u_inv, lift_diff, d, gamma, shift_k)


def verify_lift(
    lift_diff: Differential,
    u: GradedMap,
    d: Differential,
    var_name: str,
    u_inv: Optional[GradedMap] = None,
) -> CheckReport:
    """Exact check of a claimed lift: every entry of ``D'`` is free of the
    variable, ``d'`` squares to zero, and ``u (D' u^{-1} + d(u^{-1})) = D``,
    i.e. ``compose(u, lift_diff.after(u_inv)) == d.matrix``.

    Column ``lam`` of that identity is ``u d' u^{-1} (e_lam) = d(e_lam)``:
    ``u^{-1} e_lam`` is column ``lam`` of ``u^{-1}``, ``d'`` adds
    ``(-1)^{|e_r|} d(x_r)`` to ``D' x`` in row ``r`` as ``after`` does, and
    ``d(e_lam)`` is column ``lam`` of ``D`` (``d(1) = 0``).  Each failing
    column is named, in basis order.  A supplied `u_inv` is taken as ``u``'s
    inverse unchecked, so ``d' o d' = u^{-1} (d o d) u`` cannot be assumed
    and ``d'`` is squared here.
    """
    report = CheckReport(True)
    module = lift_diff.module
    for (r, c), e in lift_diff.matrix.entries.items():
        if not derivative(e, var_name).is_zero():
            report.note(
                f"entry ({module.names[r]},{module.names[c]}) depends on {var_name}"
            )
    if not lift_diff.square_zero:
        report.note("lifted differential does not square to zero")
    try:
        if u_inv is None:
            u_inv = invert_unit(u)
    except (NotInvertibleError, VerificationError) as ex:
        report.note(f"basis change is not invertible: {ex}")
        return report
    got, want = compose(u, lift_diff.after(u_inv)), d.matrix
    got._check(want)  # a differential on another module is an error, not a verdict
    if got != want:
        keys = got.entries.keys() | want.entries.keys()
        for c in sorted({c for r, c in keys if got.entry(r, c) != want.entry(r, c)}):
            report.note(f"conjugation identity fails on column {module.names[c]}")
    return report
