"""Basis-relative derivations of the operator algebra of a free module.

For a chosen adjoined variable X and a fixed basis, the operator defined
here differentiates a matrix entrywise with respect to X, with the sign
``(-1)^{|e_row| |X|}`` on each row.  It measures how much an operator
depends on X in the given basis: it kills every matrix over the
X-free subalgebra, sends left multiplication by X to the identity, and
obeys the graded Leibniz rule with respect to composition (for the top
variable of the signature).

The wider family handled here consists of the maps ``j + s*[gamma, -]``
for a sign s and a degree ``-|X|`` matrix gamma.  These are exactly the
derivations the lifting pipelines need: a homotopy gamma turning the
obstruction into a commutator yields a member of this family that kills
the differential.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional, Union

from .algebra import derivative
from .errors import SchemaError
from .module import (
    Differential,
    DOpPair,
    FreeModule,
    GradedMap,
    bracket,
    bracket_diff,
    compose,
    derive_entries,
    idempotent,
    invert_unit,
    left_mult,
    unit_elementary,
)

Target = Union[GradedMap, Differential, DOpPair]


class JOperator:
    """Entrywise derivative of matrices by one adjoined variable.

    The derivation property is only guaranteed when the variable is the
    top of the signature; `is_top` records this and instances for inner
    variables are allowed but carry no such promise.
    """

    def __init__(self, module: FreeModule, var_name: str):
        self.module = module
        self.sig = module.sig
        self.var = self.sig.var(var_name)
        self.var_name = var_name
        self.is_top = self.sig.is_top(var_name)
        self.degree = -self.var.degree

    def of_map(self, alpha: GradedMap) -> GradedMap:
        if alpha.module != self.module:
            raise SchemaError("map acts on a different module")
        return derive_entries(alpha, lambda e: derivative(e, self.var_name), self.degree)

    def of_diff(self, d: Differential) -> GradedMap:
        """Apply to a differential: only its matrix part contributes."""
        return self.of_map(d.matrix)

    def of_dop(self, p: DOpPair) -> DOpPair:
        """Leibniz extension ``j(f + g o d) = j(f) + j(g) o d +
        (-1)^{|X||g|} g o j(d)``; independent of the representation."""
        jd = self.of_diff(p.partial)
        e_part = self.of_map(p.f)
        if not p.g.is_zero() and not jd.is_zero():
            t = compose(p.g, jd)
            if (self.var.degree * p.g.degree) % 2:
                t = -t
            e_part = e_part + t
        return DOpPair(e_part, self.of_map(p.g), p.partial)

    def __call__(self, target: Target):
        if isinstance(target, GradedMap):
            return self.of_map(target)
        if isinstance(target, Differential):
            return self.of_diff(target)
        if isinstance(target, DOpPair):
            return self.of_dop(target)
        raise SchemaError(f"cannot apply to {target!r}")

    def __repr__(self):
        return f"JOperator({self.var_name} on {self.module!r})"


class WeakJOp:
    """A derivation of the form ``j + sign * [gamma, -]``.

    ``gamma`` must be a matrix of degree ``-|X|`` so the whole map is
    homogeneous of that degree.  Applying to a differential or a pair
    returns the same kind of value, normalized.
    """

    def __init__(self, jop: JOperator, sign: int, gamma: GradedMap):
        if sign not in (1, -1):
            raise SchemaError("sign must be +1 or -1")
        if gamma.module != jop.module:
            raise SchemaError("gamma acts on a different module")
        if not gamma.is_zero() and gamma.degree != jop.degree:
            raise SchemaError(
                f"gamma must have degree {jop.degree}, found {gamma.degree}"
            )
        self.jop = jop
        self.sign = sign
        self.gamma = gamma
        self.degree = jop.degree

    def of_map(self, f: GradedMap) -> GradedMap:
        out = self.jop.of_map(f)
        br = bracket(self.gamma, f)
        return out + (br if self.sign > 0 else -br)

    def of_diff(self, d: Differential) -> GradedMap:
        out = self.jop.of_diff(d)
        # [gamma, d] = -(-1)^{|gamma|} [d, gamma]
        br = bracket_diff(d, self.gamma)
        s = self.sign * (1 if self.gamma.degree % 2 else -1)
        return out + (br if s > 0 else -br)

    def of_dop(self, p: DOpPair) -> DOpPair:
        out = self.jop.of_dop(p)
        br = DOpPair.of_map(self.gamma, p.partial).bracket(p)
        return out + (br if self.sign > 0 else -br)

    def __call__(self, target: Target):
        if isinstance(target, GradedMap):
            return self.of_map(target)
        if isinstance(target, Differential):
            return self.of_diff(target)
        if isinstance(target, DOpPair):
            return self.of_dop(target)
        raise SchemaError(f"cannot apply to {target!r}")

    def __repr__(self):
        s = "+" if self.sign > 0 else "-"
        return f"WeakJOp(j_{self.jop.var_name} {s} ad(gamma))"


def base_change_defect(jop: JOperator, u: GradedMap, u_inv: Optional[GradedMap] = None) -> GradedMap:
    """The matrix ``alpha = j(u) u^{-1}`` measuring basis dependence.

    For the basis obtained by applying the unit ``u``, the operator in the
    new basis differs from the old one by the commutator with this matrix.
    Zero exactly when ``u`` has all entries free of the variable.
    """
    if u.degree != 0:
        raise SchemaError("base change requires a degree-0 unit")
    if u_inv is None:
        u_inv = invert_unit(u)
    return compose(jop.of_map(u), u_inv)


@dataclass
class CheckReport:
    """Outcome of a verdict-valued check, with failure witnesses."""

    passed: bool
    failures: list = dc_field(default_factory=list)

    def note(self, msg: str):
        self.passed = False
        self.failures.append(msg)


def characterization_check(delta: Callable, jop: JOperator) -> CheckReport:
    """Decide whether a candidate derivation is the basis operator.

    ``delta`` is any callable on GradedMap / Differential values.  The
    check evaluates the two defining conditions (action on the variable
    powers, vanishing on the basis idempotents) and then compares against
    the operator on all matrix units and on the free differential.
    Divided powers are checked up to the index bound the module's degree
    spread makes meaningful.
    """
    module = jop.module
    sig = module.sig
    var = jop.var
    report = CheckReport(True)
    ident = GradedMap.identity(module)

    if var.odd:
        got = delta(left_mult(module, sig.gen(var.name)))
        if got != ident:
            report.note(f"delta(l_{var.name}) != identity")
    else:
        n_max = max(1, module.spread() // var.degree + 1)
        for n in range(1, n_max + 1):
            got = delta(left_mult(module, sig.gen_power(var.name, n)))
            want = (
                ident
                if n == 1
                else left_mult(module, sig.gen_power(var.name, n - 1))
            )
            if got != want:
                report.note(f"delta(l_{var.name}^({n})) is wrong")
    for lam in range(module.rank):
        got = delta(idempotent(module, lam))
        if not got.is_zero():
            report.note(f"delta(eps_{module.names[lam]}) != 0")
    if not report.passed:
        return report

    for lam in range(module.rank):
        for mu in range(module.rank):
            unit = unit_elementary(module, lam, mu)
            if delta(unit) != jop.of_map(unit):
                report.note(
                    f"disagrees with the basis operator on the matrix unit "
                    f"({module.names[lam]},{module.names[mu]})"
                )
    free = Differential.free(module)
    if delta(free) != jop.of_diff(free):
        report.note("disagrees with the basis operator on the free differential")
    return report
