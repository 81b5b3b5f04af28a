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

The construction half is deterministic once a certificate exists.  For an
even variable the corrected idempotents come from the alternating series
``f - X Delta(f) + X^(2) Delta^2(f) - ...`` applied to each basis
projection; for an odd variable the module is doubled first and the
corrected idempotents are the images ``Gamma(X . eps)`` for the derivation
``Gamma`` built from the certificate and the obstruction square.  Either
way the output is a basis change ``u`` and a differential matrix with all
entries free of the variable.

A construction runs one check per input identity: the setting and parity
guards, the certificate check ``Delta(d) = 0``, the termination cap of the
even series, the two-sided check of `invert_unit`, and `verify_lift` on
the result.  Every other identity the constructions rely on holds for
every degree ``-|X|`` matrix ``gamma`` or follows from ``Delta(d) = 0``;
`construct_lift_even` and `construct_lift_odd` give the proofs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import AlgElem, component_monomials, derivative, diff
from .errors import SchemaError, VerificationError
from .jop import CheckReport, JOperator, WeakJOp
from .module import (
    Differential,
    FreeModule,
    GradedMap,
    bracket_diff,
    compose,
    idempotent,
    invert_unit,
    left_mult,
    sharp_map,
    twofold_extension,
)
from .solver import solve_exact


@dataclass
class Obstruction:
    """The derivative of the differential in the given basis.

    ``h`` has degree ``-|X| - 1`` and has passed the exact check
    ``[h, d] = 0``, which must hold whenever the differential squares to
    zero.
    """

    h: GradedMap
    var_name: str


@dataclass
class HomotopyCertificate:
    """A matrix ``gamma`` with ``j(d) = [d, gamma]``, checked exactly."""

    gamma: GradedMap


@dataclass
class LiftDecision:
    """Outcome of the obstruction-vanishing search at one bound."""

    vanishes: bool
    certificate: Optional[HomotopyCertificate]
    bound: int


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
    base_module: FreeModule
    u: GradedMap
    u_inv: GradedMap
    lift_diff: Differential
    ambient_diff: Differential
    certificate: HomotopyCertificate
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


def obstruction(module: FreeModule, d: Differential, var_name: str) -> Obstruction:
    """The obstruction matrix ``j(d)``, with its cycle property checked."""
    _require_liftable_setting(module, d, var_name)
    jop = JOperator(module, var_name)
    h = jop.of_diff(d)
    if not bracket_diff(d, h).is_zero():
        raise VerificationError("obstruction failed the cycle check [j(d), d] = 0")
    return Obstruction(h, var_name)


def _coefficients(f: GradedMap) -> dict:
    """The monomial coefficients of a map, keyed by ``((row, col), monomial)``."""
    return {(key, m): c for key, e in f.entries.items() for m, c in e.terms.items()}


def _homotopy_columns(module: FreeModule, d: Differential, degree: int, bound: int):
    """The unknowns ``(r, c, m)`` of ``[d, gamma]`` for a degree-``degree``
    ``gamma`` and the coefficients of each unknown's image.

    The image of ``m E_rc`` is ``D[:, r] m`` in column ``c``, plus
    ``(-1)^{|e_r|} d(m)`` at ``(r, c)``, minus ``(-1)^{degree} m D[c, :]`` in
    row ``r``.  The three parts never share a matrix entry, because ``D``
    has no diagonal entries (they would have degree -1).  ``D`` is indexed
    by column and by row once, and ``d(m)``, ``D[:, r] m`` and ``m D[c, :]``
    are computed once per monomial, per ``(r, m)`` and per ``(c, m)``: each
    is shared by every unknown of its degree band.
    """
    sig = module.sig
    field = sig.field
    degs = module.degrees
    by_col: dict = {}  # r -> [(a, D[a, r])]
    by_row: dict = {}  # c -> [(b, D[c, b])]
    for (a, b), e in d.matrix.entries.items():
        by_col.setdefault(b, []).append((a, e))
        by_row.setdefault(a, []).append((b, e))
    subtract = degree % 2 == 0
    monos: dict = {}  # m -> (m as an element, coefficients of (d(m), -d(m)))
    lefts: dict = {}  # (r, m) -> [(a, coefficients of D[a, r] m)]
    rights: dict = {}  # (c, m) -> [(b, coefficients of -/+ m D[c, b])]
    unknowns = []  # (row, col, monomial)
    columns = []  # per unknown: ((row, col), monomial) -> coefficient
    for r in range(module.rank):
        for c in range(module.rank):
            for m in component_monomials(sig, degs[c] + degree - degs[r], bound):
                if m not in monos:
                    unit = AlgElem(sig, {m: field.one})
                    dm = diff(unit)
                    monos[m] = unit, (dm.terms, (-dm).terms)
                unit, dms = monos[m]
                if (r, m) not in lefts:
                    lefts[r, m] = [(a, (e * unit).terms) for a, e in by_col.get(r, ())]
                if (c, m) not in rights:
                    products = [(b, unit * e) for b, e in by_row.get(c, ())]
                    rights[c, m] = [(b, (-p if subtract else p).terms) for b, p in products]
                parts = [((a, c), t) for a, t in lefts[r, m]]
                parts.append(((r, c), dms[degs[r] % 2]))
                parts += [((r, b), t) for b, t in rights[c, m]]
                unknowns.append((r, c, m))
                columns.append({(key, mono): x for key, t in parts for mono, x in t.items()})
    return unknowns, columns


def solve_homotopy(
    module: FreeModule, d: Differential, h: GradedMap, bound: int
) -> Optional[HomotopyCertificate]:
    """Search for gamma with ``[d, gamma] = h``, polygen degrees <= bound.

    Unknowns are the monomial coefficients of each matrix entry, ordered by
    (row, column, monomial order).  Their images come in closed form from
    ``[d, m E_rc] = D[:, r] m + (-1)^{|e_r|} d(m) E_rc - (-1)^{|gamma|} m D[c, :]``
    (see `_homotopy_columns`), which reads one column and one row of the
    matrix ``D`` of ``d`` and shares every product across the unknowns of
    its degree band.  The solution with every free unknown zero is
    returned and re-verified by ``[d, gamma] = h``.  None means no
    certificate exists within the bound.
    """
    if d.module != module or h.module != module:
        raise SchemaError("differential and target must act on the given module")
    sig = module.sig
    field = sig.field
    gamma_degree = h.degree + 1
    unknowns, columns = _homotopy_columns(module, d, gamma_degree, bound)
    sol = solve_exact(field, columns, _coefficients(h))
    if sol is None:
        return None
    entries: dict = {}
    for (r, c, m), cval in zip(unknowns, sol):
        if cval == field.zero:
            continue
        key = (r, c)
        add = AlgElem(sig, {m: cval})
        entries[key] = entries[key] + add if key in entries else add
    gamma = GradedMap(module, gamma_degree, entries, check=False)
    if bracket_diff(d, gamma) != h:
        raise VerificationError("homotopy certificate failed its exact re-check")
    return HomotopyCertificate(gamma)


def decide_naive_lift(
    module: FreeModule, d: Differential, var_name: str, bound: int
) -> LiftDecision:
    """Semi-decide obstruction vanishing at the given polygen-degree bound."""
    obs = obstruction(module, d, var_name)
    cert = solve_homotopy(module, d, obs.h, bound)
    return LiftDecision(cert is not None, cert, bound)


# -- even-variable construction -----------------------------------------------------


def _series_plus(delta: WeakJOp, f: GradedMap, var) -> GradedMap:
    """The correction ``X Delta(f) - X^(2) Delta^2(f) + ...`` (finite)."""
    module = f.module
    sig = module.sig
    out = GradedMap.zero(module, f.degree)
    cur = delta.of_map(f)
    n = 1
    sign = 1
    cap = module.spread() // var.degree + 2
    while not cur.is_zero():
        term = compose(left_mult(module, sig.gen_power(var.name, n)), cur)
        out = out + (term if sign > 0 else -term)
        cur = delta.of_map(cur)
        n += 1
        sign = -sign
        if n > cap + 1:
            raise VerificationError("idempotent correction series failed to terminate")
    return out


def construct_lift_even(
    module: FreeModule, d: Differential, var_name: str, cert: HomotopyCertificate
) -> LiftResult:
    """Build a lift along an even top variable from a homotopy certificate.

    With ``Delta = j + [gamma, -]``, each basis projection ``eps`` becomes
    ``eps0 = eps - X Delta(eps) + X^(2) Delta^2(eps) - ...``, a series that
    stops at the first ``N`` with ``Delta^(N+1)(eps) = 0``.  ``eps0`` lies in
    ``ker Delta`` for every gamma, so that is not checked: ``gamma``
    graded-commutes with ``l_{X^(n)}``, left multiplication by ``X^(n)``,
    and ``j(l_{X^(n)}) = l_{X^(n-1)}``, so
    ``Delta(X^(n) f) = X^(n-1) f + X^(n) Delta(f)`` and ``Delta(eps0)``
    telescopes to ``(-1)^N X^(N) Delta^(N+1)(eps) = 0``.
    The input enters through the certificate check ``Delta(d) = 0``;
    `verify_lift` checks the result.
    """
    _require_liftable_setting(module, d, var_name)
    var = module.sig.var(var_name)
    if var.odd:
        raise SchemaError("even construction requires an even variable")
    jop = JOperator(module, var_name)
    delta = WeakJOp(jop, +1, cert.gamma)
    if not delta.of_diff(d).is_zero():
        raise VerificationError("certificate does not solve j(d) = [d, gamma]")
    entries = {}
    for lam in range(module.rank):
        eps = idempotent(module, lam)
        entries.update(_column(eps - _series_plus(delta, eps, var), lam))
    return _conjugate_and_verify("even", var_name, module, module, d, entries, cert)


# -- odd-variable construction -------------------------------------------------------


def _beta_sharp(doubled: FreeModule, base: FreeModule, alpha: GradedMap, k: int) -> GradedMap:
    """The block matrix pairing the two summands: ``(x, y) -> (-y, alpha x)``."""
    r = base.rank
    sig = base.sig
    entries = {}
    minus_one = sig.scalar(sig.field.neg(sig.field.one))
    for lam in range(r):
        entries[(lam, lam + r)] = minus_one
    for (mu, lam), v in alpha.entries.items():
        entries[(mu + r, lam)] = v
    return GradedMap(doubled, k, entries)


def construct_lift_odd(
    module: FreeModule, d: Differential, var_name: str, cert: HomotopyCertificate
) -> LiftResult:
    """Build a lift of the doubled module along an odd top variable.

    The lifted object is ``N + N(-|X|)`` with the block differential
    ``diag(d, -d)``.  With ``Delta = j - [gamma, -]`` and
    ``alpha = gamma^2 - j(gamma)``, the derivation ``Gamma = j# + [g, -]``
    of the doubled module has ``g = [[-gamma, -1], [alpha, gamma]]``, and
    the corrected basis columns are ``Gamma(l_X eps_c)``.

    Only the certificate check ``Delta(d) = 0`` depends on the input.  The
    rest holds for every gamma of degree ``-|X|``, since ``j`` is a
    derivation with ``j^2 = 0`` (X is odd), so that
    ``j(gamma^2) = j(gamma) gamma - gamma j(gamma)``:

    * ``j#(g) + g^2 = 0`` block by block, so ``Gamma^2 = 0`` and each
      column ``Gamma(l_X eps_c)`` lies in ``ker Gamma``;
    * ``l_X`` graded-commutes with ``g``, so the columns sum to
      ``Gamma(l_X) = j#(l_X) = id``;
    * ``Delta(alpha) = j(alpha) - [gamma, alpha] = 0``;
    * ``Gamma(d#)`` has ``Delta(d)`` in both diagonal blocks and
      ``-[d, alpha]`` below them, and ``Delta^2 = ad(alpha)`` makes
      ``[d, alpha]`` vanish with ``Delta(d)``: ``Gamma(d#) = 0`` exactly
      when ``Delta(d) = 0``.

    `verify_lift` checks the result.
    """
    _require_liftable_setting(module, d, var_name)
    sig = module.sig
    var = sig.var(var_name)
    if not var.odd:
        raise SchemaError("odd construction requires an odd variable")
    jop = JOperator(module, var_name)
    gamma = cert.gamma
    if not WeakJOp(jop, -1, gamma).of_diff(d).is_zero():
        raise VerificationError("certificate does not solve j(d) = [d, gamma]")
    # square of (j - ad gamma): the derivative term enters negated
    alpha = compose(gamma, gamma) - jop.of_map(gamma)

    k = -var.degree
    doubled, d_sharp = twofold_extension(module, d, k)
    g = _beta_sharp(doubled, module, alpha, k) - sharp_map(gamma, doubled, k)
    big_gamma = WeakJOp(JOperator(doubled, var_name), +1, g)
    lx = left_mult(doubled, sig.gen(var_name))
    entries = {}
    for c in range(doubled.rank):
        entries.update(_column(big_gamma.of_map(compose(lx, idempotent(doubled, c))), c))
    return _conjugate_and_verify("odd", var_name, doubled, module, d_sharp, entries, cert, k)


def _column(f: GradedMap, c: int) -> dict:
    """The entries of column ``c`` of a map: its value on ``e_c``."""
    return {key: v for key, v in f.entries.items() if key[1] == c}


def _conjugate_and_verify(
    parity, var_name, module, base_module, d, u_entries, cert, shift_k=None
) -> LiftResult:
    """Conjugate ``d`` into the basis whose columns are ``u_entries`` and
    return the lift once `verify_lift` has passed on it."""
    u = GradedMap(module, 0, u_entries)
    u_inv = invert_unit(u)
    lift_diff = d.conjugate(u_inv, u)
    report = verify_lift(lift_diff, u, d, var_name, u_inv=u_inv)
    if not report.passed:
        raise VerificationError(
            f"{parity} lift failed verification: " + "; ".join(report.failures)
        )
    return LiftResult(
        parity, var_name, module, base_module, u, u_inv, lift_diff, d, cert, shift_k
    )


def verify_lift(
    lift_diff: Differential,
    u: GradedMap,
    d: Differential,
    var_name: str,
    u_inv: Optional[GradedMap] = None,
) -> CheckReport:
    """Exact check of a claimed lift.

    Verifies that every matrix entry is free of the variable, that the
    lifted differential squares to zero, and that conjugating it by ``u``
    reproduces the ambient differential on every basis column.
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
    except Exception as ex:  # noqa: BLE001 - verdict-valued check
        report.note(f"basis change is not invertible: {ex}")
        return report
    for lam in range(module.rank):
        e = module.basis_elem(lam)
        got = u.apply(lift_diff.apply(u_inv.apply(e)))
        want = d.apply(e)
        if got != want:
            report.note(f"conjugation identity fails on column {module.names[lam]}")
    return report
