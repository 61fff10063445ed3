"""Spearman's footrule rank correlation and its large-sample theory.

Library surface:

- `ranks`: ranking, the coefficient, and its exact permutation null law
- `representations`: the two uniform-variable stand-in statistics
- `moments`: closed-form null moments and exact integral constants
- `stats`: normal/Kolmogorov distributions, KS tests, KDE, ECDF, summaries
- `simulate`: seeded, reproducible replication studies
- `cli`: the `footrule` command
"""

from .common import (
    BadVarianceError,
    DegenerateSampleError,
    NonFiniteError,
    SampleSizeError,
    Statistic,
    TiesError,
)
from .moments import (
    cond_exp_abs_diff,
    limiting_variance,
    null_variance_exact,
)
from .ranks import (
    ExactNullDistribution,
    FootruleResult,
    PairedSample,
    compute_ranks,
    enumerate_null_distribution,
    footrule_coefficient,
    max_distance,
)
from .representations import (
    UniformPairs,
    double_sum_representation,
    hajek_projection_term,
    hajek_representation,
    u_kernel,
)
from .simulate import (
    CurveRow,
    KsRow,
    MomentRow,
    StreamKey,
    draw_statistic,
    run_curve_study,
    run_ks_study,
    run_moment_study,
)
from .stats import (
    CurveGrid,
    KsOutcome,
    SummaryStats,
    ecdf_curve,
    gaussian_kde,
    kolmogorov_sf,
    ks_one_sample,
    ks_two_sample,
    normal_cdf,
    normal_pdf,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "BadVarianceError",
    "CurveGrid",
    "CurveRow",
    "DegenerateSampleError",
    "ExactNullDistribution",
    "FootruleResult",
    "KsOutcome",
    "KsRow",
    "MomentRow",
    "NonFiniteError",
    "PairedSample",
    "SampleSizeError",
    "Statistic",
    "StreamKey",
    "SummaryStats",
    "TiesError",
    "UniformPairs",
    "compute_ranks",
    "cond_exp_abs_diff",
    "double_sum_representation",
    "draw_statistic",
    "ecdf_curve",
    "enumerate_null_distribution",
    "footrule_coefficient",
    "gaussian_kde",
    "hajek_projection_term",
    "hajek_representation",
    "kolmogorov_sf",
    "ks_one_sample",
    "ks_two_sample",
    "limiting_variance",
    "max_distance",
    "normal_cdf",
    "normal_pdf",
    "null_variance_exact",
    "run_curve_study",
    "run_ks_study",
    "run_moment_study",
    "summarize",
    "u_kernel",
]
