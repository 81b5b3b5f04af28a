"""Basis-relative derivations of the operator algebra of a free module.

For a chosen adjoined variable X and a fixed basis, the operator ``j``
differentiates a matrix entrywise with respect to X, with the sign
``(-1)^{|e_row| |X|}`` on each row.  It measures how much an operator
depends on X in the given basis: it kills every matrix over the
X-free subalgebra, sends left multiplication by X to the identity, and
obeys the graded Leibniz rule with respect to composition (for the top
variable of the signature).

`JOperator` is the whole family ``j + [gamma, -]`` for a degree ``-|X|``
matrix gamma, zero by default.  Another basis shifts ``j`` by such a
commutator (`base_change_defect`), and these are exactly the derivations
the lifting pipelines need: a homotopy gamma turning the obstruction into
a commutator yields a member of this family that kills the differential.
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
    """``j + [gamma, -]``: the entrywise derivative by one adjoined variable
    plus the commutator with a degree ``-|X|`` matrix ``gamma`` (zero by
    default, and then skipped).

    The derivation property is only guaranteed when the variable is the
    top of the signature; `is_top` records this and instances for inner
    variables are allowed but carry no such promise.
    """

    def __init__(self, module: FreeModule, var_name: str, gamma: Optional[GradedMap] = None):
        self.module = module
        self.sig = module.sig
        self.var = self.sig.var(var_name)
        self.var_name = var_name
        self.is_top = self.sig.is_top(var_name)
        self.degree = -self.var.degree
        if gamma is None:
            gamma = GradedMap.zero(module, self.degree)
        elif gamma.module != module:
            raise SchemaError("gamma acts on a different module")
        elif not gamma.is_zero() and gamma.degree != self.degree:
            raise SchemaError(f"gamma must have degree {self.degree}, found {gamma.degree}")
        self.gamma = gamma

    def _j(self, alpha: GradedMap) -> GradedMap:
        if alpha.module != self.module:
            raise SchemaError("map acts on a different module")
        return derive_entries(alpha, lambda e: derivative(e, self.var_name), self.degree)

    def of_map(self, alpha: GradedMap) -> GradedMap:
        out = self._j(alpha)
        if self.gamma.is_zero():
            return out
        return out + bracket(self.gamma, alpha)

    def of_diff(self, d: Differential) -> GradedMap:
        """Apply to a differential: ``j`` sees only its matrix part, and
        ``[gamma, d] = -(-1)^{|gamma|} [d, gamma]``."""
        out = self._j(d.matrix)
        if self.gamma.is_zero():
            return out
        br = bracket_diff(d, self.gamma)
        return out + br if self.gamma.degree % 2 else out - br

    def of_dop(self, p: DOpPair) -> DOpPair:
        """Leibniz extension ``j(f + g o d) = j(f) + j(g) o d +
        (-1)^{|X||g|} g o j(d)``, plus ``[gamma, -]``; representation-free."""
        jd = self._j(p.partial.matrix)
        e_part = self._j(p.f)
        if not p.g.is_zero() and not jd.is_zero():
            t = compose(p.g, jd)
            if (self.var.degree * p.g.degree) % 2:
                t = -t
            e_part = e_part + t
        out = DOpPair(e_part, self._j(p.g), p.partial)
        if self.gamma.is_zero():
            return out
        return out + DOpPair.of_map(self.gamma, p.partial).bracket(p)

    def __call__(self, target: Target):
        if isinstance(target, GradedMap):
            return self.of_map(target)
        if isinstance(target, Differential):
            return self.of_diff(target)
        if isinstance(target, DOpPair):
            return self.of_dop(target)
        raise SchemaError(f"cannot apply to {target!r}")

    def __repr__(self):
        twist = "" if self.gamma.is_zero() else " + ad(gamma)"
        return f"JOperator({self.var_name}{twist} on {self.module!r})"


def base_change_defect(jop: JOperator, u: GradedMap, u_inv: Optional[GradedMap] = None) -> GradedMap:
    """The matrix ``alpha = j(u) u^{-1}`` measuring basis dependence.

    For the basis obtained by applying the unit ``u``, the operator in the
    new basis differs from the old one by the commutator with this matrix:
    ``u j(u^{-1} f u) u^{-1} = JOperator(module, X, -alpha).of_map(f)``.
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
