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
from typing import Optional, Union

from .algebra import _derivative_into
from .errors import SchemaError
from .module import (
    Differential,
    DOpPair,
    FreeModule,
    GradedMap,
    _bracket_diff_into,
    _bracket_into,
    _derive_into,
    _finish,
    _product_into,
    compose,
    invert_unit,
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
        self._pos = self.sig.var_pos(var_name)
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
        self._of_partial = None  # (d, of_diff(d)) for the last d of `of_dop`

    def _j_into(self, out: dict, alpha: GradedMap) -> None:
        """Add ``j(alpha)`` into a `module` accumulator."""
        if alpha.module != self.module:
            raise SchemaError("map acts on a different module")
        _derive_into(out, alpha, _derivative_into, self.degree, False, self._pos)

    def of_map(self, alpha: GradedMap) -> GradedMap:
        out: dict = {}
        self._j_into(out, alpha)
        if not self.gamma.is_zero():
            _bracket_into(out, self.gamma, alpha)
        return _finish(self.module, alpha.degree + self.degree, out)

    def of_diff(self, d: Differential) -> GradedMap:
        """Apply to a differential: ``j`` sees only its matrix part, and
        ``[gamma, d] = -(-1)^{|gamma|} [d, gamma]``."""
        out: dict = {}
        self._j_into(out, d.matrix)
        if not self.gamma.is_zero():
            _bracket_diff_into(out, d, self.gamma, not self.gamma.degree % 2)
        return _finish(self.module, self.degree - 1, out)

    def of_dop(self, p: DOpPair) -> DOpPair:
        """The Leibniz rule ``Delta(f + g o d) = Delta(f) + Delta(g) o d +
        (-1)^{|X||g|} g o Delta(d)`` for ``Delta = j + [gamma, -]``, with
        ``Delta(d)`` the map `of_diff` gives; representation-free.
        ``Delta(d)`` is kept for the last ``d`` met (by identity), so pairs
        over one differential compute it once."""
        d = p.partial
        if self._of_partial is None or self._of_partial[0] is not d:
            self._of_partial = (d, self.of_diff(d))
        e, c = {}, {}
        self._j_into(e, p.f)
        self._j_into(c, p.g)
        if not self.gamma.is_zero():
            _bracket_into(e, self.gamma, p.f)
            _bracket_into(c, self.gamma, p.g)
        _product_into(e, p.g, self._of_partial[1], bool((self.var.degree * p.g.degree) % 2))
        return DOpPair(
            _finish(self.module, p.f.degree + self.degree, e),
            _finish(self.module, p.g.degree + self.degree, c),
            d,
        )

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


def base_change_defect(jop: JOperator, u: GradedMap) -> GradedMap:
    """The matrix ``alpha = j(u) u^{-1}`` measuring basis dependence;
    `invert_unit` gives ``u^{-1}`` or refuses a ``u`` that has none.

    For the basis obtained by applying the unit ``u``, the operator in the
    new basis differs from the old one by the commutator with this matrix:
    ``u j(u^{-1} f u) u^{-1} = JOperator(module, X, -alpha).of_map(f)``.
    Zero exactly when ``u`` has all entries free of the variable.
    """
    if u.degree != 0:
        raise SchemaError("base change requires a degree-0 unit")
    return compose(jop.of_map(u), invert_unit(u))


@dataclass
class CheckReport:
    """Outcome of a verdict-valued check, with failure witnesses: it
    passes exactly when no failure was noted."""

    failures: list = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def note(self, msg: str):
        self.failures.append(msg)
