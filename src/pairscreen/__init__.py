"""pairscreen: two-stage pairwise-interaction testing with FDR control.

The library screens variables by marginal Wald statistics, tests
interactions among the survivors with misspecification-robust working
GLMs, and picks the rejection cutoff that targets a desired false
discovery rate.  A seeded simulation harness reproduces the reference
FDR/power/efficiency experiments at desk scale.
"""

from .errors import (
    AllFitsFailed,
    DegenerateVariance,
    EmptyInput,
    InvalidConfig,
    PairscreenError,
    ParseError,
    Separation,
    SingularDesign,
)
from .glm import (
    GAUSSIAN,
    LOGISTIC,
    DesignMatrix,
    Family,
    GlmFit,
    WaldStat,
    build_stage1_design,
    build_stage2_design,
    family_from_name,
    fit_glm,
    wald_statistic,
)
from .metrics import ReplicateMetrics, efficiency_omega, empirical_fdp, empirical_power
from .normal import (
    gauss_tail_inverse,
    gauss_two_sided_tail,
    noncentral_two_sided_tail,
    normal_cdf,
)
from .pipeline import (
    Dataset,
    FdrReport,
    PairTestResult,
    ScreenResult,
    alpha_from_rate,
    fdr_cutoff,
    run_two_stage,
    stage1_screen,
    stage2_tests,
    theoretical_cstar,
)
from .simulate import (
    SimConfig,
    SimTruth,
    aggregate_rows,
    gen_design,
    gen_pair_response,
    gen_response,
    gen_truth,
    run_replicates,
)

__version__ = "0.1.0"

__all__ = [
    "AllFitsFailed",
    "DegenerateVariance",
    "EmptyInput",
    "InvalidConfig",
    "PairscreenError",
    "ParseError",
    "Separation",
    "SingularDesign",
    "GAUSSIAN",
    "LOGISTIC",
    "DesignMatrix",
    "Family",
    "GlmFit",
    "WaldStat",
    "build_stage1_design",
    "build_stage2_design",
    "family_from_name",
    "fit_glm",
    "wald_statistic",
    "ReplicateMetrics",
    "efficiency_omega",
    "empirical_fdp",
    "empirical_power",
    "gauss_tail_inverse",
    "gauss_two_sided_tail",
    "noncentral_two_sided_tail",
    "normal_cdf",
    "Dataset",
    "FdrReport",
    "PairTestResult",
    "ScreenResult",
    "alpha_from_rate",
    "fdr_cutoff",
    "run_two_stage",
    "stage1_screen",
    "stage2_tests",
    "theoretical_cstar",
    "SimConfig",
    "SimTruth",
    "aggregate_rows",
    "gen_design",
    "gen_pair_response",
    "gen_response",
    "gen_truth",
    "run_replicates",
    "__version__",
]
