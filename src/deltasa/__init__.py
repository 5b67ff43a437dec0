"""Self-adjointness analysis for Jacobi matrices of point-interaction models.

The package decides, for a half-line Schrödinger operator with delta
couplings on a discrete grid (equivalently, its Jacobi matrix), whether
the minimal operator is self-adjoint or has deficiency indices (1, 1).
Analytic tests run first; a numerical solve of the eigenvector recurrence
at non-real spectral points provides an independent cross-check and a
clearly labelled advisory fallback when no test certifies.
"""

from .criteria import (
    BoundProbe,
    ConditionB,
    F_block,
    GFunction,
    GKind,
    GLimits,
    SeriesProbe,
    SeriesVerdict,
    check_condition_A,
    check_condition_B,
    f_over_d_probe,
    select_G,
    test_bound_II,
    test_bound_III,
    test_carleman_i,
    test_condition_I,
    verify_G_limits,
)
from .deficiency import (
    CriterionVerdict,
    FloquetResult,
    L2Verdict,
    RecurrenceSolution,
    VerdictConfig,
    VerdictKind,
    deficiency_verdict,
    floquet_discriminant,
    l2_probe,
    solve_recurrence,
)
from .grid import (
    ConstantGrid,
    CustomGrid,
    ExplicitGrid,
    GridError,
    GridSequence,
    PowerLogGrid,
    RatioStats,
    Summability,
    classify_summability,
    ratio_stats,
)
from .jacobi import (
    AlphaSequence,
    AlphaZeroAlpha,
    CustomAlpha,
    ExplicitAlpha,
    JacobiOperator,
    PeriodPair,
    PowerSumAlpha,
    ScaledInverseGapsAlpha,
    TildeSequence,
    alpha_zero,
    rho,
    rho_block,
    scaled_operator,
    tilde_r,
)
from .numerics import TriState
from .verify import BatteryReport, CheckResult, run_battery

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # grid
    "GridError",
    "GridSequence",
    "PowerLogGrid",
    "ConstantGrid",
    "ExplicitGrid",
    "CustomGrid",
    "RatioStats",
    "ratio_stats",
    "Summability",
    "classify_summability",
    # jacobi
    "AlphaSequence",
    "PowerSumAlpha",
    "ScaledInverseGapsAlpha",
    "AlphaZeroAlpha",
    "ExplicitAlpha",
    "CustomAlpha",
    "JacobiOperator",
    "TildeSequence",
    "PeriodPair",
    "tilde_r",
    "alpha_zero",
    "rho",
    "rho_block",
    "scaled_operator",
    # criteria
    "SeriesVerdict",
    "SeriesProbe",
    "BoundProbe",
    "GKind",
    "GFunction",
    "F_block",
    "f_over_d_probe",
    "select_G",
    "test_carleman_i",
    "test_condition_I",
    "test_bound_II",
    "test_bound_III",
    "check_condition_A",
    "check_condition_B",
    "verify_G_limits",
    "GLimits",
    "ConditionB",
    # deficiency
    "VerdictKind",
    "VerdictConfig",
    "CriterionVerdict",
    "deficiency_verdict",
    "RecurrenceSolution",
    "solve_recurrence",
    "L2Verdict",
    "l2_probe",
    "FloquetResult",
    "floquet_discriminant",
    # verify
    "run_battery",
    "BatteryReport",
    "CheckResult",
    # numerics
    "TriState",
]
