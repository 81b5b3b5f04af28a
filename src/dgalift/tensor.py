"""The evaluation map from the restricted-extended module, and its splittings.

Restrict a module to the subalgebra without the top variable, extend back
up, and evaluate: ``e_lam X^(i) (x) b  ->  e_lam X^(i) b``.  Elements of
the extended module are finite sums indexed by (basis line, variable
power); for an even variable the underlying module has infinite rank but
every element is finite, so nothing is materialized.

A lift produced by the construction pipeline yields an explicit splitting:
send each corrected basis column to itself tensor 1 and extend linearly.
`verify_splitting` checks it element by element.  For an odd variable the
kernel of the evaluation is also materialized as a finite free module,
giving the whole short exact sequence, which `OddSequence.check` checks
on the basis.  No other module of the package imports this one, and the
package does not export it: the command line derives both the splitting
and the sequence flag (proofs in `cli`), and these two checks are their
test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .algebra import AlgElem, diff
from .errors import SchemaError
from .jop import CheckReport
from .module import Differential, FreeModule, GradedMap, ModuleElement, _sum_entries, fresh_suffix, shift
from .lift import LiftResult


def split_by_powers(elem: AlgElem, var_name: str) -> dict:
    """Write an element as ``sum_i X^(i) * a_i`` with the ``a_i`` free of X.

    Returns {i: a_i}; moving an odd X out to the left crosses exactly the
    factors that precede it in canonical order, which contributes the
    usual sign.  A term and its power ``i`` give back its monomial, so no
    two terms meet and no ``a_i`` is zero.
    """
    sig = elem.sig
    pos = sig.var_pos(var_name)
    var = sig.variables[pos]
    out: dict = {}
    for (p, v), c in elem.terms.items():
        e = v[pos]
        if e and var.degree % 2:
            left_deg = sum(v[j] * sig.variables[j].degree for j in range(pos))
            if left_deg % 2:
                c = sig.field.neg(c)
        out.setdefault(e, {})[p, v[:pos] + (0,) + v[pos + 1 :]] = c
    return {i: AlgElem(sig, terms) for i, terms in out.items()}


class TensorElement:
    """Finite sum ``sum (e_lam X^(i)) (x) b`` over (line, power) slots."""

    __slots__ = ("module", "var_name", "terms")

    def __init__(self, module: FreeModule, var_name: str, terms: dict):
        self.module = module
        self.var_name = var_name
        self.terms = {k: v for k, v in terms.items() if not v.is_zero()}

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "TensorElement"):
        if self.module != other.module or self.var_name != other.var_name:
            raise SchemaError("tensor elements from different constructions")

    def __add__(self, other: "TensorElement") -> "TensorElement":
        self._check(other)
        terms = _sum_entries(self.module.sig, self.terms, other.terms)
        return TensorElement(self.module, self.var_name, terms)

    def __neg__(self):
        return TensorElement(
            self.module, self.var_name, {k: -v for k, v in self.terms.items()}
        )

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        self._check(other)
        terms = _sum_entries(self.module.sig, self.terms, other.terms, True)
        return TensorElement(self.module, self.var_name, terms)

    def scale_right(self, b: AlgElem) -> "TensorElement":
        return TensorElement(
            self.module, self.var_name, {k: v * b for k, v in self.terms.items()}
        )

    def __eq__(self, other):
        return (
            isinstance(other, TensorElement)
            and self.module == other.module
            and self.var_name == other.var_name
            and self.terms == other.terms
        )

    def __repr__(self):
        if self.is_zero():
            return "<0 (x) 0>"
        names = self.module.names
        return "<" + " + ".join(
            f"({names[lam]}{'' if i == 0 else f'.{self.var_name}^({i})'} (x) {v})"
            for (lam, i), v in sorted(self.terms.items())
        ) + ">"


class NaiveTensor:
    """The extended module for one (module, differential, variable) setting."""

    def __init__(self, module: FreeModule, d: Differential, var_name: str):
        sig = module.sig
        if not sig.is_top(var_name):
            raise SchemaError(f"{var_name!r} is not the top variable of the signature")
        if d.module != module:
            raise SchemaError("differential acts on a different module")
        self.module = module
        self.d = d
        self.var = sig.var(var_name)
        self.var_name = var_name
        self.sig = sig
        self._d_slots: dict = {}  # (lam, i) -> d(e_lam X^(i)) (x) 1

    def zero(self) -> TensorElement:
        return TensorElement(self.module, self.var_name, {})

    def slot(self, lam, i: int, b: "AlgElem | str | None" = None) -> TensorElement:
        idx = lam if isinstance(lam, int) else self.module.index(lam)
        if b is None:
            b = self.sig.one()
        elif isinstance(b, str):
            b = self.sig.parse(b)
        if self.var.odd and i > 1:
            return self.zero()
        return TensorElement(self.module, self.var_name, {(idx, i): b})

    def of_module_elem(self, x: ModuleElement) -> TensorElement:
        """``x (x) 1``: split each coefficient by variable powers."""
        out = {
            (lam, i): a
            for lam, c in x.coeffs.items()
            for i, a in split_by_powers(c, self.var_name).items()
        }
        return TensorElement(self.module, self.var_name, out)

    def pi(self, t: TensorElement) -> ModuleElement:
        """Evaluation: ``e_lam X^(i) (x) b -> e_lam * (X^(i) b)``."""
        out = self.module.zero_elem()
        for (lam, i), b in t.terms.items():
            coeff = self.sig.gen_power(self.var_name, i) * b
            out = out + ModuleElement(self.module, {lam: coeff})
        return out

    def _d_slot(self, lam: int, i: int) -> TensorElement:
        """``d(e_lam X^(i)) (x) 1``, split by powers once per slot."""
        hit = self._d_slots.get((lam, i))
        if hit is None:
            base = self.module.basis_elem(lam).scale_right(
                self.sig.gen_power(self.var_name, i)
            )
            hit = self._d_slots[lam, i] = self.of_module_elem(self.d.apply(base))
        return hit

    def diff(self, t: TensorElement) -> TensorElement:
        """``d(n (x) b) = d(n) (x) b + (-1)^{|n|} n (x) d(b)`` on the slots."""
        out = self.zero()
        for (lam, i), b in t.terms.items():
            out = out + self._d_slot(lam, i).scale_right(b)
            db = diff(b)
            if not db.is_zero():
                n_deg = self.module.degrees[lam] + i * self.var.degree
                if n_deg % 2:
                    db = -db
                out = out + TensorElement(self.module, self.var_name, {(lam, i): db})
        return out


def rho_from_lift(nt: NaiveTensor, lift: LiftResult) -> Callable:
    """The splitting determined by a lift: corrected columns go to
    themselves tensor 1, extended linearly over the algebra."""
    if lift.module != nt.module:
        raise SchemaError("lift belongs to a different module")
    cols = [
        nt.of_module_elem(lift.u.apply(nt.module.basis_elem(lam)))
        for lam in range(nt.module.rank)
    ]

    def rho(x: ModuleElement) -> TensorElement:
        coords = lift.u_inv.apply(x)
        out = nt.zero()
        for lam, c in coords.coeffs.items():
            out = out + cols[lam].scale_right(c)
        return out

    return rho


def verify_splitting(nt: NaiveTensor, lift: LiftResult) -> CheckReport:
    """Check ``pi o rho = id`` and ``rho o d = d o rho`` on every basis column."""
    report = CheckReport(True)
    rho = rho_from_lift(nt, lift)
    for lam in range(nt.module.rank):
        e = nt.module.basis_elem(lam)
        if nt.pi(rho(e)) != e:
            report.note(f"pi(rho({nt.module.names[lam]})) differs")
        if rho(nt.d.apply(e)) != nt.diff(rho(e)):
            report.note(f"rho fails to intertwine d on {nt.module.names[lam]}")
    return report


@dataclass
class OddSequence:
    """The short exact sequence around the evaluation map, odd variable.

    ``kernel_module`` is a finite free module isomorphic to the shift of
    the input by the variable degree; `iota` includes it into the extended
    module and `pi` evaluates.  All arrows are exact-checked by `check`.
    """

    nt: NaiveTensor
    kernel_module: FreeModule
    kernel_diff: Differential

    def iota(self, x: ModuleElement) -> TensorElement:
        nt = self.nt
        out = nt.zero()
        x_elem = nt.sig.gen(nt.var_name)
        for lam, b in x.coeffs.items():
            out = out + nt.slot(lam, 1, b) - nt.slot(lam, 0, x_elem * b)
        return out

    def check(self) -> CheckReport:
        """On every basis line: ``pi o iota = 0``, both arrows commute with
        the differentials, and ``pi`` hits the basis."""
        report = CheckReport(True)
        nt = self.nt
        names = self.kernel_module.names
        for lam in range(self.kernel_module.rank):
            s = self.kernel_module.basis_elem(lam)
            im = self.iota(s)
            if not nt.pi(im).is_zero():
                report.note(f"pi o iota != 0 on {names[lam]}")
            if nt.diff(im) != self.iota(self.kernel_diff.apply(s)):
                report.note(f"iota fails to intertwine d on {names[lam]}")
        for lam in range(nt.module.rank):
            for i in (0, 1):
                t = nt.slot(lam, i)
                if nt.pi(nt.diff(t)) != nt.d.apply(nt.pi(t)):
                    report.note(f"pi fails to intertwine d on slot ({lam},{i})")
            if nt.pi(nt.slot(lam, 0)) != nt.module.basis_elem(lam):
                report.note(f"pi misses basis element {nt.module.names[lam]}")
        return report


def odd_ses(module: FreeModule, d: Differential, var_name: str) -> OddSequence:
    """Materialize the kernel and the two arrows for an odd variable."""
    nt = NaiveTensor(module, d, var_name)
    var = nt.var
    if not var.odd:
        raise SchemaError("the finite-rank sequence exists only for an odd variable")
    sig = module.sig
    kernel = shift(module, -var.degree, fresh_suffix(module, "_k"))
    x_elem = sig.gen(var_name)
    entries = {}
    for (mu, lam), c in d.matrix.entries.items():
        # D = a0 + X a1 gives the entry (-1)^|a0| a0 - a1 X (proof in `cli`)
        parts = split_by_powers(c, var_name)
        val = sig.zero()
        a0 = parts.get(0)
        a1 = parts.get(1)
        if a0 is not None:
            val = val + (a0 if a0.degree() % 2 == 0 else -a0)
        if a1 is not None:
            val = val - a1 * x_elem
        if not val.is_zero():
            entries[(mu, lam)] = val
    kd = Differential(GradedMap(kernel, -1, entries))
    return OddSequence(nt, kernel, kd)
