"""Reference checks that only the tests use."""

from typing import Optional

from dgalift.algebra import AlgElem, diff
from dgalift.module import GradedMap, left_mult


def is_scalar_cycle(f: GradedMap) -> Optional[AlgElem]:
    """Test whether ``f`` is left multiplication by a cycle.

    Reads ``b`` off the first diagonal entry and checks ``f = left_mult(b)``
    and ``diff(b) = 0``; on success returns ``b``, otherwise None.  A left
    multiplication graded-commutes with every matrix unit (its row signs
    cancel the Koszul sign), and since every module differential ``d``
    follows the Leibniz rule, ``[d, left_mult(b)] = left_mult(diff(b))``;
    so neither a commutation test nor ``[d, f] = 0`` needs checking apart,
    and the answer holds for every differential on the module.
    """
    module = f.module
    if f.is_zero():
        return module.sig.zero()
    b = f.entry(0, 0)
    if (f.degree * module.degrees[0]) % 2:
        b = -b
    if f != left_mult(module, b) or not diff(b).is_zero():
        return None
    return b
