"""Tomography toolkit for quantum networks with Werner-state links.

Models links as Werner-state distributors, computes measurement-outcome
statistics for three estimation schemes, evaluates Fisher information and
Cramér-Rao bounds for monitoring plans, and benchmarks estimators against
those bounds, all checked against an exact density-matrix oracle.
"""

from .estimators import (
    BenchmarkRow,
    LinkEstimates,
    benchmark_variance,
    solve_plan,
)
from .fisher import (
    FisherMatrix,
    FisherMode,
    crb_diagonal,
    crossover,
    plan_qfim,
    qcrb,
    single_link_fisher,
    single_link_qcrb,
    task_qfim,
)
from .network import (
    BUILTIN_PLAN_KINDS,
    MeasurementTask,
    MonitoringPlan,
    NetworkGraph,
    Path,
    Scheme,
    UsageLedger,
    WernerLink,
    build_star,
    builtin_plan,
    channel_uses,
    trace_path,
    validate_plan,
)
from .oracle import (
    DensityMatrix,
    jbm_oracle_probabilities,
    linear_generation,
    lzm_oracle_probabilities,
    pem_oracle_probabilities,
    werner_density,
)
from .schemes import (
    BELL_LABELS,
    ZZ_LABELS,
    OutcomeCounts,
    OutcomeDistribution,
    derive_seed,
    sample_outcomes,
    scheme_distribution,
    task_distribution,
)

__version__ = "0.1.0"

__all__ = [
    "BELL_LABELS",
    "BUILTIN_PLAN_KINDS",
    "BenchmarkRow",
    "DensityMatrix",
    "FisherMatrix",
    "FisherMode",
    "LinkEstimates",
    "MeasurementTask",
    "MonitoringPlan",
    "NetworkGraph",
    "OutcomeCounts",
    "OutcomeDistribution",
    "Path",
    "Scheme",
    "UsageLedger",
    "WernerLink",
    "ZZ_LABELS",
    "benchmark_variance",
    "build_star",
    "builtin_plan",
    "channel_uses",
    "crb_diagonal",
    "crossover",
    "derive_seed",
    "jbm_oracle_probabilities",
    "linear_generation",
    "lzm_oracle_probabilities",
    "pem_oracle_probabilities",
    "plan_qfim",
    "qcrb",
    "sample_outcomes",
    "scheme_distribution",
    "single_link_fisher",
    "single_link_qcrb",
    "solve_plan",
    "task_distribution",
    "task_qfim",
    "trace_path",
    "validate_plan",
    "werner_density",
]
