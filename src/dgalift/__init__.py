"""dgalift: exact calculus in graded-commutative DG algebra extensions.

The package decides and constructs liftings of finite-rank free DG modules
along a one-variable extension of a DG algebra, by way of a derivation
calculus on the endomorphism ring of the module.
"""

from .algebra import (
    AlgElem,
    Signature,
    Variable,
    component_monomials,
    derivative,
    diff,
    format_expr,
    is_cycle,
)
from .errors import (
    DgaliftError,
    ExprSyntaxError,
    NotInvertibleError,
    SchemaError,
    VerificationError,
)
from .field import QQ, Field, PrimeField, RationalField, field_from_spec
from .jop import JOperator, base_change_defect
from .lift import (
    LiftDecision,
    LiftResult,
    construct_lift_even,
    construct_lift_odd,
    decide_naive_lift,
    is_boundary_up_to,
    obstruction,
    solve_homotopy,
    verify_lift,
)
from .module import (
    Differential,
    DOpPair,
    FreeModule,
    GradedMap,
    ModuleElement,
    bracket,
    bracket_diff,
    bracket_diff2,
    compose,
    direct_sum,
    dop_normalize,
    invert_unit,
    left_mult,
    sharp_map,
    shift,
    twofold_extension,
)
from .parser import parse_expr

__all__ = [
    "AlgElem",
    "Signature",
    "Variable",
    "component_monomials",
    "derivative",
    "diff",
    "format_expr",
    "is_boundary_up_to",
    "is_cycle",
    "parse_expr",
    "QQ",
    "Field",
    "PrimeField",
    "RationalField",
    "field_from_spec",
    "DgaliftError",
    "ExprSyntaxError",
    "NotInvertibleError",
    "SchemaError",
    "VerificationError",
    "FreeModule",
    "ModuleElement",
    "GradedMap",
    "Differential",
    "DOpPair",
    "compose",
    "bracket",
    "bracket_diff",
    "bracket_diff2",
    "left_mult",
    "invert_unit",
    "dop_normalize",
    "shift",
    "direct_sum",
    "twofold_extension",
    "sharp_map",
    "JOperator",
    "base_change_defect",
    "LiftDecision",
    "LiftResult",
    "obstruction",
    "solve_homotopy",
    "decide_naive_lift",
    "construct_lift_even",
    "construct_lift_odd",
    "verify_lift",
]
