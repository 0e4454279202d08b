"""Exact kernel for p-adic differential operators with congruence levels.

Everything is computed in exact rational arithmetic; every norm is an
exact power of the ground prime carried on an integer exponent scale.
The package covers scalar and Tate-polynomial arithmetic, finite
operators with per-level norms, the Laurent microlocal rings with
certified inversion, characteristic cycles of cyclic modules, and
transport along one-center formal blow-ups.
"""

from .blowup import (
    BlowupModel,
    Chart,
    ChartPoint,
    chart_commutator_constant,
    fiber_sum_check,
    pull_function_u1,
    pull_operator_u1,
    support_on_blowup,
)
from .charcycle import (
    CharCycle,
    SupportReport,
    bernstein_check,
    cc_add,
    char_cycle,
    infinite_support,
    render_cc,
)
from .errors import (
    BadLevels,
    ConfigError,
    KernelError,
    LevelTooSmall,
    MixedVariables,
    NegativePowerOutsideMicroMode,
    NegativeValuation,
    NormTooLarge,
    NotAUnit,
    NotInvertibleHere,
    ParseError,
    PrecisionNotReached,
    TruncatedOperand,
    ZeroInput,
    ZeroOperator,
)
from .micro import (
    BadLocus,
    BadLocusOnly,
    EverywhereInvertible,
    FailsDecay,
    InvertibleOnDisc,
    MicroOp,
    NotInvertible,
    finite_order_verdict,
    micro_invert,
    micro_unit_verdict,
)
from .opparse import parse, print_expr, strip_parens, to_diff_op, to_micro_op
from .residue import ClosedPoint, ResidueElem, ResiduePoly, factor_reduction
from .scalars import NEG_INF, NormExp, PAdicScalar, is_prime
from .tatepoly import TatePoly
from .weyl import (
    ConnectionMatrix,
    DiffOp,
    commutator,
    connection_level,
    connection_matrix_power,
)

__version__ = "0.1.0"

__all__ = [
    "BadLevels",
    "BadLocus",
    "BadLocusOnly",
    "BlowupModel",
    "CharCycle",
    "Chart",
    "ChartPoint",
    "ClosedPoint",
    "ConfigError",
    "ConnectionMatrix",
    "DiffOp",
    "EverywhereInvertible",
    "FailsDecay",
    "InvertibleOnDisc",
    "KernelError",
    "LevelTooSmall",
    "MicroOp",
    "MixedVariables",
    "NEG_INF",
    "NegativePowerOutsideMicroMode",
    "NegativeValuation",
    "NormExp",
    "NormTooLarge",
    "NotAUnit",
    "NotInvertible",
    "NotInvertibleHere",
    "PAdicScalar",
    "ParseError",
    "PrecisionNotReached",
    "ResidueElem",
    "ResiduePoly",
    "SupportReport",
    "TatePoly",
    "TruncatedOperand",
    "ZeroInput",
    "ZeroOperator",
    "bernstein_check",
    "cc_add",
    "char_cycle",
    "chart_commutator_constant",
    "commutator",
    "connection_level",
    "connection_matrix_power",
    "factor_reduction",
    "fiber_sum_check",
    "finite_order_verdict",
    "infinite_support",
    "is_prime",
    "micro_invert",
    "micro_unit_verdict",
    "parse",
    "print_expr",
    "pull_function_u1",
    "pull_operator_u1",
    "render_cc",
    "strip_parens",
    "support_on_blowup",
    "to_diff_op",
    "to_micro_op",
]
