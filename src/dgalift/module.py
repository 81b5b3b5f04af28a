"""Finite-rank graded free right modules and their operator calculus.

A `FreeModule` is an ordered basis with integer degrees over one
signature.  Maps are stored as sparse matrices in the right-module
convention ``f(e_col) = sum_row e_row * entry[row, col]``; with this
convention composition is a plain matrix product and every Koszul sign
lives in the left-multiplication operators and in differentials.

A `Differential` holds the matrix ``D`` of its values on basis elements; the
action on a general element adds the termwise Leibniz part
``(-1)^{|e|} e * d(coeff)``.  On matrices this is one rule,
``d o f = D f + d(f)``, with ``d(f)`` the algebra differential of every
entry under the row sign ``(-1)^{|e_row|}``; ``[d, f]``, ``d o d`` and
``u o d o u^{-1}`` follow in closed form.  Composites mixing matrices with
one reference differential normalize into `DOpPair` values ``f + g o d``.

Every sum of such terms adds into one accumulator, a dict ``(row, col) ->
term map``: `_product_into` adds ``f o g`` through `algebra._mul_into`,
one call per pair of entries, and `_derive_into` an entrywise derivation
through its term-level kernel (`algebra._diff_into` for ``d(f)`` here,
`algebra._derivative_into` for ``j(f)`` in `jop`), each negated by a
``neg`` flag.  Both fetch an entry's term map with one ``get`` and make it
only when it is missing, and the kernels add into it directly; `_finish`
wraps every entry once.  No term becomes a map or an element of its own
in `compose`, the brackets, ``d o f`` or the `DOpPair` products.
"""

from __future__ import annotations

from operator import add
from typing import Callable, Iterable, Optional

from .algebra import AlgElem, Signature, _add_into, _diff_into, _mul_into, diff
from .errors import NotInvertibleError, SchemaError, VerificationError
from .solver import solve_exact


class FreeModule:
    """Ordered free basis (name, degree) over a signature."""

    def __init__(self, sig: Signature, basis: Iterable[tuple]):
        self.sig = sig
        basis = list(basis)
        self.names = tuple(n for n, _ in basis)
        self.degrees = tuple(d for _, d in basis)
        for n, d in basis:
            if not isinstance(n, str):
                raise SchemaError(f"module basis name {n!r} is not a string")
            if isinstance(d, bool) or not isinstance(d, int):
                raise SchemaError(f"module basis degree {d!r} is not an integer")
        if len(set(self.names)) != len(self.names):
            raise SchemaError("module basis names must be unique")
        if not self.names:
            raise SchemaError("module basis must be non-empty")
        self._index = {n: i for i, n in enumerate(self.names)}
        self._key = (sig.key(), self.names, self.degrees)
        # (degree, poly_bound) -> the entry slots and scalars of
        # `randgen.rand_map`; filled by it and only gains entries, like
        # ``sig._bands``
        self._slots: dict = {}

    @property
    def rank(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"unknown basis element {name!r}") from None

    def spread(self) -> int:
        return max(self.degrees) - min(self.degrees)

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, FreeModule) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "FreeModule(%s)" % ", ".join(
            f"{n}:{d}" for n, d in zip(self.names, self.degrees)
        )

    # -- elements -------------------------------------------------------

    def zero_elem(self) -> "ModuleElement":
        return ModuleElement(self, {})

    def basis_elem(self, name_or_idx) -> "ModuleElement":
        i = name_or_idx if isinstance(name_or_idx, int) else self.index(name_or_idx)
        return ModuleElement(self, {i: self.sig.one()})

    def elem(self, pairs: Iterable[tuple]) -> "ModuleElement":
        """Build an element from (basis name, coefficient) pairs."""
        out = self.zero_elem()
        for name, coeff in pairs:
            if isinstance(coeff, str):
                coeff = self.sig.parse(coeff)
            out = out + ModuleElement(self, {self.index(name): coeff})
        return out


class ModuleElement:
    """Finite sum of basis elements with algebra coefficients."""

    __slots__ = ("module", "coeffs")

    def __init__(self, module: FreeModule, coeffs: dict):
        self.module = module
        self.coeffs = {i: c for i, c in coeffs.items() if not c.is_zero()}

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check(self, other: "ModuleElement"):
        if self.module != other.module:
            raise SchemaError("elements belong to different modules")

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        self._check(other)
        return ModuleElement(self.module, _sum_entries(self.module.sig, self.coeffs, other.coeffs))

    def __neg__(self) -> "ModuleElement":
        return ModuleElement(self.module, {i: -c for i, c in self.coeffs.items()})

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        self._check(other)
        return ModuleElement(self.module, _sum_entries(self.module.sig, self.coeffs, other.coeffs, True))

    def scale_right(self, b: AlgElem) -> "ModuleElement":
        """Right action ``x * b``."""
        return ModuleElement(self.module, {i: c * b for i, c in self.coeffs.items()})

    def __eq__(self, other):
        return (
            isinstance(other, ModuleElement)
            and self.module == other.module
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.module, frozenset((i, c) for i, c in self.coeffs.items())))

    def __repr__(self):
        if self.is_zero():
            return "<0>"
        names = self.module.names
        return "<" + " + ".join(f"{names[i]}*({c})" for i, c in sorted(self.coeffs.items())) + ">"


class GradedMap:
    """A degree-homogeneous endomorphism matrix over the algebra.

    Entries are kept sparse; every stored entry must be homogeneous of
    degree ``|e_col| + n - |e_row|``.  Zero maps still carry their formal
    degree (needed for sign bookkeeping) but compare equal by entries.
    """

    __slots__ = ("module", "degree", "entries")

    def __init__(self, module: FreeModule, degree: int, entries: dict, check: bool = True):
        self.module = module
        self.degree = degree
        self.entries = {k: v for k, v in entries.items() if not v.is_zero()}
        if check:
            degs = module.degrees
            for (r, c), e in self.entries.items():
                if e.sig != module.sig:
                    raise SchemaError("entry from a different signature")
                want = degs[c] + degree - degs[r]
                if any(module.sig.monomial_degree(m) != want for m in e.terms):
                    raise SchemaError(
                        f"entry ({module.names[r]},{module.names[c]}) must be "
                        f"homogeneous of degree {want}"
                    )

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(module: FreeModule, degree: int) -> "GradedMap":
        return GradedMap(module, degree, {}, check=False)

    @staticmethod
    def identity(module: FreeModule) -> "GradedMap":
        one = module.sig.one()
        return GradedMap(
            module, 0, {(i, i): one for i in range(module.rank)}, check=False
        )

    @staticmethod
    def single(module: FreeModule, row, col, value: AlgElem, degree: Optional[int] = None) -> "GradedMap":
        r = row if isinstance(row, int) else module.index(row)
        c = col if isinstance(col, int) else module.index(col)
        if degree is None:
            if value.is_zero():
                raise SchemaError("degree required for a zero single entry")
            if not value.is_homogeneous():
                raise SchemaError("a single entry must be homogeneous")
            degree = module.degrees[r] + value.degree() - module.degrees[c]
        return GradedMap(module, degree, {(r, c): value})

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.entries

    def entry(self, row, col) -> AlgElem:
        r = row if isinstance(row, int) else self.module.index(row)
        c = col if isinstance(col, int) else self.module.index(col)
        return self.entries.get((r, c), self.module.sig.zero())

    def _check(self, other: "GradedMap"):
        if self.module != other.module:
            raise SchemaError("maps act on different modules")

    def __add__(self, other: "GradedMap") -> "GradedMap":
        return self._plus(other, False)

    def __neg__(self) -> "GradedMap":
        return GradedMap(
            self.module, self.degree, {k: -v for k, v in self.entries.items()}, check=False
        )

    def __sub__(self, other: "GradedMap") -> "GradedMap":
        return self._plus(other, True)

    def _plus(self, other: "GradedMap", neg: bool) -> "GradedMap":
        """``self + other``, or ``self - other`` when `neg`."""
        self._check(other)
        if not self.is_zero() and not other.is_zero() and self.degree != other.degree:
            raise SchemaError("cannot add maps of different degrees")
        entries = _sum_entries(self.module.sig, self.entries, other.entries, neg)
        degree = self.degree if self.entries else other.degree
        return GradedMap(self.module, degree, entries, check=False)

    def scale(self, c) -> "GradedMap":
        return GradedMap(
            self.module,
            self.degree,
            {k: v.scale(c) for k, v in self.entries.items()},
            check=False,
        )

    def apply(self, x: ModuleElement) -> ModuleElement:
        if x.module != self.module:
            raise SchemaError("element belongs to a different module")
        sig = self.module.sig
        out: dict = {}
        for (r, c), e in self.entries.items():
            b = x.coeffs.get(c)
            if b is not None:
                _mul_into(sig, out.setdefault(r, {}), e.terms, b.terms)
        return ModuleElement(self.module, {r: AlgElem(sig, t) for r, t in out.items()})

    def __eq__(self, other):
        return (
            isinstance(other, GradedMap)
            and self.module == other.module
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.module, frozenset(self.entries.items())))

    def __repr__(self):
        if self.is_zero():
            return f"GradedMap(0, deg {self.degree})"
        names = self.module.names
        body = ", ".join(
            f"({names[r]},{names[c]})={v}" for (r, c), v in sorted(self.entries.items())
        )
        return f"GradedMap(deg {self.degree}: {body})"


# -- the accumulator: one term map per entry ----------------------------------


def _sum_entries(sig: Signature, a: dict, b: dict, neg: bool = False) -> dict:
    """``a + b`` (``a - b`` when `neg`) for two dicts of elements under the
    same keys; each entry of ``b`` adds into a copy of its entry of ``a``
    through `_add_into`.  An entry that cancels is the zero element, which
    the constructors of maps and vectors drop."""
    out = dict(a)
    for k, e in b.items():
        terms = dict(out[k].terms) if k in out else {}
        _add_into(sig.field, terms, e.terms, neg)
        out[k] = AlgElem(sig, terms)
    return out


def _product_into(out: dict, f: GradedMap, g: GradedMap, neg: bool = False) -> None:
    """Add ``f o g`` (``-(f o g)`` when `neg`) into the accumulator ``out``."""
    if not (f.entries and g.entries):
        return
    sig = f.module.sig
    by_row: dict = {}  # g's entries by row (= column of f)
    for (r, c), v in g.entries.items():
        row = by_row.get(r)
        if row is None:
            by_row[r] = [(c, v.terms)]
        else:
            row.append((c, v.terms))
    for (r, m), fv in f.entries.items():
        row = by_row.get(m)
        if row is None:
            continue
        a = fv.terms
        for c, b in row:
            acc = out.get((r, c))
            if acc is None:
                acc = out[r, c] = {}
            _mul_into(sig, acc, a, b, neg)


def _derive_into(
    out: dict, f: GradedMap, delta_into: Callable, n: int, neg: bool = False, *args
) -> None:
    """Add a degree-``n`` derivation of the algebra, applied to every entry
    of ``f`` (negated when `neg`), into ``out``.  ``delta_into(sig, acc,
    terms, neg, *args)`` is its term-level kernel (`algebra._diff_into`,
    `algebra._derivative_into`), which adds straight into the entry ``acc``.
    Row ``r`` carries ``(-1)^{n |e_r|}``, the Koszul sign of moving the
    derivation past ``e_r``.
    """
    sig = f.module.sig
    degs = f.module.degrees
    for (r, c), e in f.entries.items():
        acc = out.get((r, c))
        if acc is None:
            acc = out[r, c] = {}
        delta_into(sig, acc, e.terms, neg ^ (n * degs[r]) % 2, *args)


def _bracket_into(out: dict, f: GradedMap, g: GradedMap, neg: bool = False) -> None:
    """Add ``[f, g] = f o g - (-1)^(|f||g|) g o f`` (negated when `neg`)."""
    _product_into(out, f, g, neg)
    _product_into(out, g, f, neg ^ (not (f.degree * g.degree) % 2))


def _finish(module: FreeModule, degree: int, out: dict) -> GradedMap:
    """The map of an accumulator; entries that cancelled are left out."""
    sig = module.sig
    m = object.__new__(GradedMap)
    m.module, m.degree = module, degree
    m.entries = {k: AlgElem(sig, t) for k, t in out.items() if t}
    return m


def compose(f: GradedMap, g: GradedMap) -> GradedMap:
    """Matrix product ``f o g``; no extra signs in this convention."""
    f._check(g)
    out: dict = {}
    _product_into(out, f, g)
    return _finish(f.module, f.degree + g.degree, out)


def bracket(f: GradedMap, g: GradedMap) -> GradedMap:
    """Graded commutator ``[f, g] = f o g - (-1)^(|f||g|) g o f``."""
    f._check(g)
    out: dict = {}
    _bracket_into(out, f, g)
    return _finish(f.module, f.degree + g.degree, out)


def left_mult(module: FreeModule, b: AlgElem) -> GradedMap:
    """Left multiplication by a homogeneous element, as a matrix."""
    if b.sig != module.sig:
        raise SchemaError("element from a different signature")
    if b.is_zero():
        return GradedMap.zero(module, 0)
    if not b.is_homogeneous():
        raise SchemaError("left multiplication needs a homogeneous element")
    n = b.degree()
    entries = {}
    for i, d in enumerate(module.degrees):
        entries[(i, i)] = b.scale(-1) if (n * d) % 2 else b
    return GradedMap(module, n, entries, check=False)


class Differential:
    """A map obeying the module Leibniz rule, stored by its basis matrix.

    The stored matrix, of degree -1 even when zero, is the whole data:
    ``d(e * b)`` is the matrix part times ``b`` plus ``(-1)^{|e|} e * d(b)``.
    ``square_zero`` reports whether the (algebra-linear) square vanishes.
    """

    __slots__ = ("matrix", "_square")

    def __init__(self, matrix: GradedMap):
        if matrix.degree != -1:
            raise SchemaError("a differential matrix must have degree -1")
        self.matrix = matrix
        self._square = None

    @staticmethod
    def free(module: FreeModule) -> "Differential":
        """The differential vanishing on every basis element."""
        return Differential(GradedMap.zero(module, -1))

    @property
    def module(self) -> FreeModule:
        return self.matrix.module

    def apply(self, x: ModuleElement) -> ModuleElement:
        out = self.matrix.apply(x)
        module = self.module
        extra: dict = {}
        for i, c in x.coeffs.items():
            dc = diff(c)  # a zero one is dropped by ModuleElement
            extra[i] = -dc if module.degrees[i] % 2 else dc
        return out + ModuleElement(module, extra)

    def after(self, f: GradedMap) -> GradedMap:
        """The composite ``d o f`` as a matrix, ``D f + d(f)``."""
        self.matrix._check(f)
        out: dict = {}
        _product_into(out, self.matrix, f)
        _derive_into(out, f, _diff_into, -1)
        return _finish(f.module, f.degree - 1, out)

    def square(self) -> GradedMap:
        """The composite ``d o d`` as a matrix."""
        if self._square is None:
            self._square = self.after(self.matrix)
        return self._square

    @property
    def square_zero(self) -> bool:
        return self.square().is_zero()

    def conjugate(self, u: GradedMap, u_inv: Optional[GradedMap] = None) -> "Differential":
        """The differential ``u o d o u^{-1}``."""
        if u_inv is None:
            u_inv = invert_unit(u)
        return Differential(compose(u, self.after(u_inv)))

    def __eq__(self, other):
        return isinstance(other, Differential) and self.matrix == other.matrix

    def __hash__(self):
        return hash(("Differential", self.matrix))

    def __repr__(self):
        return f"Differential({self.matrix!r})"


def bracket_diff(d: Differential, f: GradedMap) -> GradedMap:
    """``[d, f] = d o f - (-1)^{|f|} f o d`` (it is linear over the algebra)."""
    d.matrix._check(f)
    out: dict = {}
    _bracket_diff_into(out, d, f)
    return _finish(f.module, f.degree - 1, out)


def _bracket_diff_into(out: dict, d: Differential, f: GradedMap, neg: bool = False) -> None:
    """Add ``[d, f] = D f + d(f) - (-1)^{|f|} f D`` (negated when `neg`)."""
    _product_into(out, d.matrix, f, neg)
    _derive_into(out, f, _diff_into, -1, neg)
    _product_into(out, f, d.matrix, neg ^ (not f.degree % 2))


def bracket_diff2(d: Differential, d2: Differential) -> GradedMap:
    """``[d, d'] = d o d' + d' o d``: the bracket of ``d`` with the matrix of
    ``d'`` plus the Leibniz part ``d'`` adds on ``D``."""
    d.matrix._check(d2.matrix)
    out: dict = {}
    _bracket_diff_into(out, d, d2.matrix)
    _derive_into(out, d.matrix, _diff_into, -1)
    return _finish(d.module, -2, out)


class DOpPair:
    """A value ``f + g o d`` for one reference differential ``d``.

    The pair is the canonical representative produced by rewriting
    ``d o g`` as ``[d, g] + (-1)^{|g|} g o d`` and ``d o d`` as the square
    matrix; composition and sums stay in this normal form.
    """

    __slots__ = ("f", "g", "partial")

    def __init__(self, f: GradedMap, g: GradedMap, partial: Differential):
        if (not f.is_zero() or not g.is_zero()) and f.degree != g.degree - 1:
            # normalize formal degrees of zero components
            if f.is_zero():
                f = GradedMap.zero(f.module, g.degree - 1)
            elif g.is_zero():
                g = GradedMap.zero(g.module, f.degree + 1)
            else:
                raise SchemaError("pair components have inconsistent degrees")
        self.f = f
        self.g = g
        self.partial = partial

    @staticmethod
    def of_map(f: GradedMap, partial: Differential) -> "DOpPair":
        return DOpPair(f, GradedMap.zero(f.module, f.degree + 1), partial)

    @staticmethod
    def of_diff(partial: Differential) -> "DOpPair":
        module = partial.module
        return DOpPair(GradedMap.zero(module, -1), GradedMap.identity(module), partial)

    @property
    def degree(self) -> int:
        return self.f.degree

    @property
    def module(self) -> FreeModule:
        return self.f.module

    def is_zero(self) -> bool:
        return self.f.is_zero() and self.g.is_zero()

    def apply(self, x: ModuleElement) -> ModuleElement:
        return self.f.apply(x) + self.g.apply(self.partial.apply(x))

    def _check(self, other: "DOpPair"):
        if self.partial is not other.partial and self.partial != other.partial:
            raise SchemaError("pairs refer to different differentials")

    def __add__(self, other: "DOpPair") -> "DOpPair":
        self._check(other)
        return DOpPair(self.f + other.f, self.g + other.g, self.partial)

    def __neg__(self) -> "DOpPair":
        return DOpPair(-self.f, -self.g, self.partial)

    def __sub__(self, other: "DOpPair") -> "DOpPair":
        self._check(other)
        return DOpPair(self.f - other.f, self.g - other.g, self.partial)

    def scale(self, c) -> "DOpPair":
        return DOpPair(self.f.scale(c), self.g.scale(c), self.partial)

    def compose(self, other: "DOpPair") -> "DOpPair":
        """Normalized composite ``self o other``."""
        return self._sum(other, self._compose_into)

    def bracket(self, other: "DOpPair") -> "DOpPair":
        """``[self, other] = self o other - (-1)^(|self||other|) other o self``."""
        return self._sum(other, self._bracket_into)

    def _compose_into(self, e: dict, c: dict, other: "DOpPair", neg: bool = False) -> None:
        """Add ``self o other`` (negated when `neg`) into the accumulators
        ``e`` of its map part and ``c`` of its coefficient of ``d``:
        ``(f1 + g1 d)(f2 + g2 d) = f1 f2 + g1 [d, f2] + (-1)^{|g2|} g1 g2 d^2
        + (f1 g2 + (-1)^{|f2|} g1 f2 + g1 [d, g2]) d``."""
        d = self.partial
        f1, g1 = self.f, self.g
        f2, g2 = other.f, other.g
        _product_into(e, f1, f2, neg)
        _product_into(c, f1, g2, neg)
        if not g1.is_zero():
            if not f2.is_zero():
                _product_into(e, g1, bracket_diff(d, f2), neg)
                _product_into(c, g1, f2, neg ^ bool(f2.degree % 2))
            if not g2.is_zero():
                _product_into(c, g1, bracket_diff(d, g2), neg)
                sq = d.square()
                if not sq.is_zero():
                    _product_into(e, compose(g1, g2), sq, neg ^ bool(g2.degree % 2))

    def _bracket_into(self, e: dict, c: dict, other: "DOpPair") -> None:
        self._compose_into(e, c, other)
        other._compose_into(e, c, self, not (self.degree * other.degree) % 2)

    def _sum(self, other: "DOpPair", add_into: Callable) -> "DOpPair":
        """The pair ``add_into(e, c, other)`` accumulates: ``self o other``
        or a bracket, of the same degree."""
        self._check(other)
        e, c = {}, {}
        add_into(e, c, other)
        return DOpPair(
            _finish(self.module, self.f.degree + other.f.degree, e),
            _finish(self.module, self.f.degree + other.g.degree, c),
            self.partial,
        )

    def __eq__(self, other):
        return (
            isinstance(other, DOpPair)
            and self.f == other.f
            and self.g == other.g
            and self.partial == other.partial
        )

    def __repr__(self):
        return f"DOpPair(f={self.f!r}, g={self.g!r})"


def dop_normalize(summands: Iterable, partial: Differential) -> DOpPair:
    """Normalize a sum of composition chains into a pair.

    `summands` is an iterable of chains; a chain is a list whose items are
    GradedMap values or the reference differential itself.
    """
    total = None
    for chain in summands:
        acc = None
        for item in chain:
            if isinstance(item, Differential):
                p = DOpPair.of_diff(partial)
                if item is not partial and item != partial:
                    raise SchemaError("chains may only use the reference differential")
            elif isinstance(item, GradedMap):
                p = DOpPair.of_map(item, partial)
            else:
                raise SchemaError(f"cannot normalize item {item!r}")
            acc = p if acc is None else acc.compose(p)
        if acc is None:
            continue
        total = acc if total is None else total + acc
    if total is None:
        return DOpPair.of_map(GradedMap.zero(partial.module, 0), partial)
    return total


# -- units ---------------------------------------------------------------------


def invert_unit(u: GradedMap) -> GradedMap:
    """Exact two-sided inverse of a degree-0 unit.

    Splits ``u`` into the part at equal basis degrees (entries in the
    polynomial subring) and the strictly degree-raising rest; the first is
    inverted by exact linear algebra on polygen coefficients (``v``), the
    second is nilpotent: ``u^{-1} = (1 - w + w^2 - ...) v``, ``w = v u_rest``.
    The powers of ``w`` add into one sum, multiplied by ``v`` once at the
    end.  When the flat part is the identity, as in every unit
    `lift._basis_change` builds (``X^(n) A_n``, ``n >= 1``, joins basis
    elements of different degrees), nothing is solved and ``v = 1`` is never
    multiplied by.  Only ``u inv = 1`` is checked.  A degree-0 map is block
    upper-triangular by basis degree, with blocks over the commutative
    polygen ring on the diagonal, so a right inverse makes ``e = inv u``
    unipotent, ``1 + n``; ``e^2 = inv (u inv) u = e`` then gives ``n (1 + n) = 0``.
    """
    if u.degree != 0:
        raise NotInvertibleError("only degree-0 maps can be inverted")
    module = u.module
    one = GradedMap.identity(module)
    flat = {k: v for k, v in u.entries.items() if module.degrees[k[0]] == module.degrees[k[1]]}
    rest = {k: v for k, v in u.entries.items() if module.degrees[k[0]] != module.degrees[k[1]]}
    v = None if flat == one.entries else _invert_flat(GradedMap(module, 0, flat, check=False))
    w = GradedMap(module, 0, rest, check=False)
    if v is not None:
        w = compose(v, w)
    series = {key: dict(e.terms) for key, e in one.entries.items()}  # (-w)^0
    power, steps = w, 1
    while not power.is_zero():
        for key, e in power.entries.items():
            _add_into(module.sig.field, series.setdefault(key, {}), e.terms, steps % 2 == 1)
        power, steps = compose(power, w), steps + 1
        if steps > module.spread() + 3:
            raise VerificationError("nilpotent correction failed to terminate")
    inv = _finish(module, 0, series)
    if v is not None:
        inv = compose(inv, v)
    if compose(u, inv) != one:
        raise VerificationError("unit inverse failed verification")
    return inv


def _invert_flat(u_flat: GradedMap) -> GradedMap:
    """Invert the equal-degree part (polygen entries) by coefficient solving,
    one block of ``k`` basis elements of one degree at a time.  A unit
    block's inverse is its adjugate over a nonzero constant, so its entries
    lie among the products of exactly ``k - 1`` monomials of the block's."""
    module = u_flat.module
    sig = module.sig
    field = sig.field
    blocks: dict = {}
    for i, d in enumerate(module.degrees):
        blocks.setdefault(d, []).append(i)
    one_mono = sig._unit

    inv_entries: dict = {}  # an accumulator: each (a, b, m) is met once
    for idxs in blocks.values():
        k = len(idxs)
        block = [[u_flat.entries.get((r, c)) for c in idxs] for r in idxs]
        monos = {m for row in block for e in row if e is not None for m in e.terms}
        cand = {one_mono}
        for _ in range(k - 1):  # degree-0 monomials are polygen monomials
            cand = {(tuple(map(add, p, q)), v) for p, v in cand for q, _ in monos}
        cand = sorted(cand)
        cand_elems = [AlgElem(sig, {m: field.one}) for m in cand]
        unknowns = []  # (a, b, monomial) for v[a][b]
        columns = []  # per unknown: (r, b, monomial) -> coefficient in (u v)[r][b]
        for a in range(k):
            # the products u[r][a] * m do not depend on b: one per (r, a, m)
            entries = [(r, block[r][a]) for r in range(k)]
            products = [
                [(r, (e * unit).terms) for r, e in entries if e is not None]
                for unit in cand_elems
            ]
            for b in range(k):
                for m, images in zip(cand, products):
                    unknowns.append((a, b, m))
                    columns.append(
                        {(r, b, mono): c for r, terms in images for mono, c in terms.items()}
                    )
        rhs = {(a, a, one_mono): field.one for a in range(k)}
        sol = solve_exact(field, columns, rhs)
        if sol is None:
            raise NotInvertibleError("degree-level part of the unit is singular")
        for (a, b, m), cval in zip(unknowns, sol):
            if cval != field.zero:
                inv_entries.setdefault((idxs[a], idxs[b]), {})[m] = cval
    return _finish(module, 0, inv_entries)


# -- builders ----------------------------------------------------------------


def shift(module: FreeModule, k: int, suffix: str = "_s") -> FreeModule:
    """The shifted module: basis degrees drop by ``k``.

    With ``k = 0`` the module itself is returned; otherwise basis names get
    a suffix so the two modules stay distinguishable.
    """
    if k == 0:
        return module
    return FreeModule(
        module.sig,
        [(n + suffix, d - k) for n, d in zip(module.names, module.degrees)],
    )


def direct_sum(m1: FreeModule, m2: FreeModule) -> FreeModule:
    if m1.sig != m2.sig:
        raise SchemaError("modules over different signatures")
    if set(m1.names) & set(m2.names):
        raise SchemaError("direct sum requires disjoint basis names")
    return FreeModule(
        m1.sig,
        list(zip(m1.names, m1.degrees)) + list(zip(m2.names, m2.degrees)),
    )


def fresh_suffix(module: FreeModule, base: str = "_s") -> str:
    """A name suffix whose application stays disjoint from the basis."""
    suffix = base
    names = set(module.names)
    while any(n + suffix in names for n in module.names):
        suffix += base.lstrip("_") or "s"
    return suffix


def twofold_extension(module: FreeModule, d: Differential, k: int):
    """``N + N(k)`` with the block-diagonal differential diag(d, (-1)^k d).

    Returns ``(doubled module, doubled differential)``.  Requires a
    square-zero differential; the result is square-zero again.
    """
    if not d.square_zero:
        raise SchemaError("two-fold extension requires a square-zero differential")
    suffix = fresh_suffix(module)
    shifted = FreeModule(
        module.sig, [(n + suffix, deg - k) for n, deg in zip(module.names, module.degrees)]
    )
    doubled = direct_sum(module, shifted)
    return doubled, Differential(sharp_map(d.matrix, doubled, k))


def sharp_map(m: GradedMap, doubled: FreeModule, k: int) -> GradedMap:
    """Embed a map diagonally into the doubled module.

    The second block carries the sign ``(-1)^{|m| k}``, matching how left
    multiplications act on the shifted summand.
    """
    r = m.module.rank
    if doubled.rank != 2 * r:
        raise SchemaError("doubled module has unexpected rank")
    sign = -1 if (m.degree * k) % 2 else 1
    entries = {}
    for (i, j), v in m.entries.items():
        entries[(i, j)] = v
        entries[(i + r, j + r)] = v.scale(sign)
    return GradedMap(doubled, m.degree, entries, check=False)
