"""Point estimators for link parameters and Monte-Carlo benchmarking.

Per-task estimates invert the analytic outcome distributions; plans are
solved sequentially, isolating one new link per task by dividing out the
links already estimated.  The benchmark compares empirical estimator
variance against the Cramér-Rao bound of the sampling experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .fisher import FisherMode, crb_diagonal, plan_qfim
from .network import MeasurementTask, MonitoringPlan, Scheme
from .schemes import SCHEMES, OutcomeCounts, derive_seed, sample_outcomes, task_distribution

# Estimated divisors at or below this magnitude make the remaining link
# unidentifiable in practice; the estimate is withheld instead of divided.
DIVISOR_GUARD = 1e-6


@dataclass(frozen=True)
class PathEstimate:
    """Estimated path product from one task's counts.

    ``raw`` is the inversion before clamping; ``value`` is clamped to [0, 1].
    """

    value: float
    raw: float
    total: float
    task: MeasurementTask | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError("clamped estimate must lie in [0, 1]")


@dataclass(frozen=True)
class LinkEstimates:
    """Per-link estimates with provenance and unidentifiability flags.

    Links whose sequential divisor fell below the guard threshold appear in
    ``unidentifiable`` and carry no value.
    """

    values: Mapping[str, float]
    provenance: Mapping[str, str]
    unidentifiable: frozenset = frozenset()


def _clamp(x: float) -> float:
    return min(1.0, max(0.0, x))


def estimate_path(
    scheme: Scheme, counts: OutcomeCounts, task: MeasurementTask | None = None
) -> PathEstimate:
    """Invert a scheme's outcome distribution at the observed frequencies.

    LZM reads the agreeing-bits frequency, PEM the top Bell outcome, and the
    fused-copies scheme takes the nonnegative square root of the PEM-style
    inversion, truncating negative pre-root values at zero.
    """
    if counts.total <= 0:
        raise ValueError("counts total must be positive")
    spec = SCHEMES[scheme]
    observed = sum(counts.counts[label] for label in spec.estimator_labels)
    raw = spec.inverse(observed / counts.total)
    return PathEstimate(value=_clamp(raw), raw=raw, total=counts.total, task=task)


def solve_plan(plan: MonitoringPlan, counts_by_task: Sequence[OutcomeCounts]) -> LinkEstimates:
    """Sequentially resolve per-link estimates from per-task counts.

    Tasks are processed in plan order; each may introduce at most one link
    not covered earlier.  The new link's estimate divides the task's path
    estimate by the product of the previously estimated links on that path.
    Divisors at or below 1e-6 flag the link as unidentifiable instead of
    exploding the division.
    """
    if len(counts_by_task) != len(plan.tasks):
        raise ValueError(
            f"expected counts for {len(plan.tasks)} tasks, got {len(counts_by_task)}"
        )
    values: dict = {}
    provenance: dict = {}
    dead: set = set()
    for idx, (task, counts) in enumerate(zip(plan.tasks, counts_by_task)):
        path_ids = task.path.link_ids
        new = [l for l in path_ids if l not in values and l not in dead]
        if not new:
            continue
        if len(new) > 1:
            raise ValueError(
                f"task {idx} introduces {len(new)} unresolved links; plan order is not solvable"
            )
        target = new[0]
        others = [l for l in path_ids if l != target]
        if any(l in dead for l in others):
            dead.add(target)
            continue
        estimate = estimate_path(task.scheme, counts, task)
        divisor = math.prod(values[l] for l in others)
        if abs(divisor) <= DIVISOR_GUARD:
            dead.add(target)
            continue
        values[target] = _clamp(estimate.value / divisor)
        if others:
            provenance[target] = (
                f"task {idx} ({task.scheme.value} on {'+'.join(path_ids)}),"
                f" divided by {'*'.join(others)}"
            )
        else:
            provenance[target] = f"task {idx} ({task.scheme.value} on {path_ids[0]})"
    return LinkEstimates(
        values=values, provenance=provenance, unidentifiable=frozenset(dead)
    )


@dataclass(frozen=True)
class BenchmarkRow:
    """Per-link benchmark outcome: empirical variance against its bound.

    ``unidentifiable_rounds`` counts the rounds whose estimate of the link was
    withheld; any such round makes ``variance`` and ``ratio`` nan.  A positive
    variance against an infinite bound also makes ``ratio`` nan.
    """

    link: str
    true_w: float
    variance: float
    crb: float
    ratio: float
    unidentifiable_rounds: int


def benchmark_variance(
    plan: MonitoringPlan,
    true_params: Mapping[str, float],
    samples_per_task: int,
    rounds: int,
    seed: int,
    mode: FisherMode = FisherMode.FIRST_PRINCIPLES,
) -> tuple:
    """Monte-Carlo estimator variance per link, with the matching bound.

    Each round samples every task ``samples_per_task`` times from its exact
    outcome distribution and solves the plan.  The reported bound is the
    diagonal of the inverse plan information scaled by the per-task sample
    count; the default mode is first-principles because that is the
    information of the distributions actually sampled.
    """
    if rounds < 2:
        raise ValueError("variance needs at least 2 rounds")
    if samples_per_task < 1:
        raise ValueError("need at least 1 sample per task")
    for lid, w in true_params.items():
        if not 0.0 <= w <= 1.0:
            raise ValueError(f"parameter for link {lid!r} outside [0, 1]")
    order = tuple(sorted(true_params))
    dists = [task_distribution(task, true_params) for task in plan.tasks]
    estimates = np.full((rounds, len(order)), np.nan)
    for r in range(rounds):
        counts = [
            sample_outcomes(dist, samples_per_task, derive_seed(seed, r, t))
            for t, dist in enumerate(dists)
        ]
        solved = solve_plan(plan, counts)
        for k, lid in enumerate(order):
            if lid in solved.values:
                estimates[r, k] = solved.values[lid]
    info = plan_qfim(plan, true_params, mode, normalize=False)
    bounds = crb_diagonal(info, scale=float(samples_per_task))
    rows = []
    for k, lid in enumerate(order):
        column = estimates[:, k]
        variance = float(np.var(column, ddof=1))
        bound = bounds[lid]
        if bound == 0.0:
            ratio = math.nan if variance == 0.0 else math.inf
        elif math.isinf(bound):
            ratio = 0.0 if variance == 0.0 else math.nan
        else:
            ratio = variance / bound
        rows.append(
            BenchmarkRow(
                link=lid,
                true_w=float(true_params[lid]),
                variance=variance,
                crb=bound,
                ratio=ratio,
                unidentifiable_rounds=int(np.isnan(column).sum()),
            )
        )
    return tuple(rows)
