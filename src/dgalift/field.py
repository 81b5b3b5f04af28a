"""Exact coefficient fields: the rationals and the prime fields.

Scalars are plain Python values so that the hot arithmetic paths stay
cheap.  Over the rationals a scalar is an `int` when it is integral and a
`Fraction` otherwise, never a `Fraction` with denominator 1: integral
values, which are nearly all of them, then skip the gcd and the
allocation of `Fraction` arithmetic.  Over a prime field a scalar is an
`int` residue in ``[0, p)``.  A `Field` object supplies the operations and
owns formatting / parsing of scalar literals, so no other module depends
on how a scalar is stored.  An `int` and the `Fraction` of equal value
agree in `==`, `hash` and `str`.  No scalar is ever a float.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import comb, lcm, log10

from .errors import SchemaError


# Miller-Rabin with the first thirteen primes as bases is exact below this
# bound (OEIS A014233); twelve bases stop at 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; exact for ``p < _MR_LIMIT``."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Field:
    """Base of `RationalField` and `PrimeField`, equal when their keys are.

    Every field supplies the scalars ``zero`` and ``one``; ``add``,
    ``neg``, ``sub``, ``mul`` and ``inv`` (``ZeroDivisionError`` on 0);
    ``of_int(n)``, ``of_fraction(num, den)`` and ``binomial(n, k)``, the
    divided-power coefficient; ``fmt(x)``, the scalar's literal; ``key()``,
    a hashable identity used for signature compatibility; and ``to_doc()``.
    ``clear_denominators`` exists over Q only.
    """

    def __eq__(self, other):
        return isinstance(other, Field) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


def _rational(q):
    """``q`` as an `int` when it is integral, else the `Fraction` itself."""
    if type(q) is int or q.denominator != 1:
        return q
    return q.numerator


# The most factors `PrimeField.binomial` multiplies before it refuses (under
# a second of product formula).
_BINOMIAL_STEPS = 10**6

# ``C(n, k) < 2^n`` prints under any digit limit (none before 3.10.7) up to this n.
_PRINTABLE_N = int(getattr(sys.int_info, "str_digits_check_threshold", 640) / log10(2)) - 1


class RationalField(Field):
    zero = 0
    one = 1

    def add(self, x, y):
        return _rational(x + y)

    def neg(self, x):
        return -x

    def sub(self, x, y):
        return _rational(x - y)

    def mul(self, x, y):
        return _rational(x * y)

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of 0")
        if x == 1 or x == -1:
            return x
        return _rational(1 / Fraction(x))

    def of_int(self, n: int):
        return n

    def binomial(self, n: int, k: int):
        """``comb(n, k)``, refused uncomputed (``comb`` of a large ``n`` runs
        for minutes), even where it would cancel, when its lower bound
        ``(n/m)^m``, ``m = min(k, n - k)``, has more digits than Python prints.
        Below `_PRINTABLE_N` this is one comparison; ``m > limit / log10(2)``
        bounds it by ``2^m`` without a float of a big ``m``."""
        if n > _PRINTABLE_N:
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            m = min(k, n - k)
            if limit and m and (m > limit / log10(2) or m * (log10(n) - log10(m)) > limit):
                raise ValueError(f"divided-power coefficient C({n}, {k}) has more "
                                 f"than {limit} digits, the limit")
        return comb(n, k)

    def of_fraction(self, num: int, den: int):
        return _rational(Fraction(num, den))

    def clear_denominators(self, xs: list) -> list:
        """The rationals `xs` times the lcm of their denominators, as ints."""
        scale = lcm(*(x.denominator for x in xs))
        return [x.numerator * (scale // x.denominator) for x in xs]

    def fmt(self, x) -> str:
        return str(x)

    def key(self):
        return ("Q",)

    def to_doc(self) -> dict:
        return {"type": "Q"}

    def __repr__(self):
        return "Q"


class PrimeField(Field):
    def __init__(self, p: int):
        if p >= _MR_LIMIT:
            raise SchemaError(f"prime field characteristic {p} is too large")
        if not _is_prime(p):
            raise SchemaError(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def add(self, x, y):
        return (x + y) % self.p

    def neg(self, x):
        return (-x) % self.p

    def sub(self, x, y):
        return (x - y) % self.p

    def mul(self, x, y):
        return (x * y) % self.p

    def inv(self, x):
        if x % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(x, self.p - 2, self.p)

    def of_int(self, n: int):
        return n % self.p

    def binomial(self, n: int, k: int):
        """``C(n, k) mod p`` by Lucas' theorem: the product of the binomials
        of the base-``p`` digits, 0 when a digit of ``k`` exceeds that of
        ``n``.  Each digit binomial ``C(a, b)`` is the product formula
        ``a (a-1) ... (a-m+1) / m!``, ``m = min(b, a - b)``, taken mod ``p``
        with one inverse at the end, never ``comb`` in full (which runs for
        seconds from ``a`` of some 10^5 on).  More than `_BINOMIAL_STEPS`
        factors over all digits is refused uncomputed, as over Q."""
        p = self.p
        digits = []
        rest_n, rest_k = n, k
        while rest_k:
            rest_n, a = divmod(rest_n, p)
            rest_k, b = divmod(rest_k, p)
            if b > a:
                return 0
            digits.append((a, min(b, a - b)))
        if sum(m for _, m in digits) > _BINOMIAL_STEPS:
            raise ValueError(f"divided-power coefficient C({n}, {k}) mod {p} needs more "
                             f"than {_BINOMIAL_STEPS} steps, the limit")
        num = den = 1
        for a, m in digits:
            for t in range(m):
                num = num * (a - t) % p
                den = den * (t + 1) % p
        return num * pow(den, -1, p) % p

    def of_fraction(self, num: int, den: int):
        return self.mul(self.of_int(num), self.inv(self.of_int(den)))

    def fmt(self, x) -> str:
        return str(x % self.p)

    def key(self):
        return ("Fp", self.p)

    def to_doc(self) -> dict:
        return {"type": "Fp", "p": self.p}

    def __repr__(self):
        return f"F{self.p}"


QQ = RationalField()


def field_from_doc(doc: dict) -> Field:
    if not isinstance(doc, dict) or "type" not in doc:
        raise SchemaError("field descriptor must be {'type': 'Q'} or {'type': 'Fp', 'p': <prime>}")
    if doc["type"] == "Q":
        return QQ
    if doc["type"] == "Fp":
        p = doc.get("p")
        if isinstance(p, bool) or not isinstance(p, int):
            raise SchemaError("Fp field descriptor needs an integer 'p'")
        return PrimeField(p)
    raise SchemaError(f"unknown field type {doc['type']!r}")


def field_from_spec(text: str) -> Field:
    """Parse a command-line field spec: ``q`` or ``fp:<p>``."""
    t = text.strip().lower()
    if t == "q":
        return QQ
    if t.startswith("fp:"):
        try:
            p = int(t[3:])
        except ValueError:
            raise SchemaError(f"bad field spec {text!r}") from None
        return PrimeField(p)
    raise SchemaError(f"bad field spec {text!r} (expected 'q' or 'fp:<p>')")
