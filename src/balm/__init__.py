"""Balanced augmented Lagrangian solvers for linearly constrained convex programs."""

from .errors import (
    BalmError,
    ConfigInvalid,
    DimensionMismatch,
    InnerNoConvergence,
    InsufficientHistory,
    InvalidDims,
    MissingReference,
    NoConvergence,
    NotPositiveDefinite,
    SchemaError,
    UnsupportedCombination,
    UnsupportedObjective,
)
from .linalg import Metric, SpdFactor, cholesky_factor, gram_norm_bound, h_quadratic, solve_spd, spectral_norm_sq
from .prox import (
    Box,
    L1,
    Linear,
    NonnegativeOrthant,
    Quadratic,
    SeparableSum,
    WholeSpace,
    Zero,
    objective_value,
    project,
    prox,
    prox_constrained,
)
from .problems import (
    Block,
    KktResidual,
    PrimalDualPoint,
    Problem,
    Sense,
    SeparableProblem,
    default_start,
    flatten_blocks,
    kkt_residual,
    lagrangian,
    total_objective,
    vi_operator,
)
from .multiplier import MultiplierSystem, build_h0, build_h2, build_hp, solve_equality, solve_lcp
from .solvers import (
    AltSplitConfig,
    AltSplitMetric,
    BalancedAlmConfig,
    BalancedMetric,
    BaselineConfig,
    IdentityMetric,
    Method,
    RunHistory,
    SplitConfig,
    StopRule,
    alt_split_metric,
    alt_split_step,
    admm_step,
    balanced_alm_step,
    balanced_metric,
    classic_alm_step,
    generalized_step,
    ladmm_step,
    lalm_step,
    primal_dual_step,
    run,
    split_balanced_step,
    split_metric,
)
from .diagnostics import (
    ContractionCertificate,
    GapCertificate,
    contraction_ledger,
    ergodic_average,
    vi_gap,
)
from .bench import generate_instance, ineq_qp_reference, read_problem, run_matchup, write_problem

__version__ = "0.1.0"
