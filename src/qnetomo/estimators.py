"""Point estimators for link parameters and Monte-Carlo benchmarking.

Per-task estimates invert the analytic outcome distributions; plans are
solved sequentially, isolating one new link per task by dividing out the
links already estimated.  The benchmark compares empirical estimator
variance against the Cramér-Rao bound of the sampling experiment.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from .fisher import FisherMode, crb_diagonal, plan_qfim
from .network import MonitoringPlan, Scheme, _plan_steps
from .schemes import SCHEMES, OutcomeCounts, _Record, _sample_rounds, task_distribution

# Estimated divisors at or below this magnitude make the remaining link
# unidentifiable in practice; the estimate is withheld instead of divided.
DIVISOR_GUARD = 1e-6
# Rounds sampled and solved per batch: bounds the working arrays, whatever
# the round count.
ROUND_BLOCK = 4096


class LinkEstimates(_Record):
    """Per-link estimates with unidentifiability flags.

    Links whose sequential divisor fell below the guard threshold appear in
    ``unidentifiable`` and carry no value.
    """

    __match_args__ = ("values", "unidentifiable")

    def __init__(
        self, values: Mapping[str, float], unidentifiable: frozenset = frozenset()
    ) -> None:
        self.__dict__.update(values=values, unidentifiable=unidentifiable)


def _clamp(x):
    """min(1, max(0, x)) as the builtins evaluate it, nan included, over arrays."""
    x = np.where(x > 0.0, x, 0.0)
    return np.where(x < 1.0, x, 1.0)


def _frequency(scheme: Scheme, counts: OutcomeCounts) -> float:
    observed = sum(counts.counts[label] for label in SCHEMES[scheme].estimator_labels)
    return observed / counts.total


def _round_frequencies(plan: MonitoringPlan, steps: tuple, counts: np.ndarray, total: int) -> dict:
    """Estimator frequency per round of each resolving task.

    ``counts`` is shaped (rounds, tasks, outcomes), ``total`` samples a task.
    """
    frequencies = {}
    for idx, _, _ in steps:
        spec = SCHEMES[plan.tasks[idx].scheme]
        columns = [spec.labels.index(label) for label in spec.estimator_labels]
        frequencies[idx] = counts[:, idx, columns].sum(axis=1) / total
    return frequencies


def _solve_steps(plan: MonitoringPlan, steps: tuple, frequencies: Mapping) -> dict:
    """Link estimates over a batch of rounds, nan where a link was withheld.

    ``frequencies[idx]`` holds task idx's estimator frequency per round.  A
    divisor is nan when a link it divides by was withheld, and a divisor at
    or below ``DIVISOR_GUARD`` withholds the link it would resolve.
    """
    values: dict = {}
    for idx, target, others in steps:
        estimate = _clamp(SCHEMES[plan.tasks[idx].scheme].inverse(frequencies[idx]))
        divisor = np.ones_like(estimate)
        for lid in others:
            divisor = divisor * values[lid]
        dead = np.isnan(divisor) | (np.abs(divisor) <= DIVISOR_GUARD)
        with np.errstate(divide="ignore", invalid="ignore"):
            values[target] = np.where(dead, np.nan, _clamp(estimate / divisor))
    return values


def solve_plan(plan: MonitoringPlan, counts_by_task: Sequence[OutcomeCounts]) -> LinkEstimates:
    """Sequentially resolve per-link estimates from per-task counts.

    Tasks are processed in plan order; each may introduce at most one link
    not covered earlier.  The new link's estimate divides the task's path
    estimate by the product of the previously estimated links on that path.
    Divisors at or below 1e-6 flag the link as unidentifiable instead of
    exploding the division.  Each task's counts must be over its scheme's
    outcome labels.
    """
    if len(counts_by_task) != len(plan.tasks):
        raise ValueError(
            f"expected counts for {len(plan.tasks)} tasks, got {len(counts_by_task)}"
        )
    for idx, (task, counts) in enumerate(zip(plan.tasks, counts_by_task)):
        labels = SCHEMES[task.scheme].labels
        if set(counts.labels) != set(labels):
            raise ValueError(
                f"task {idx} ({task.scheme.value}) needs counts over {labels},"
                f" got {tuple(counts.labels)}"
            )
    steps = _plan_steps(plan)
    frequencies = {
        idx: np.array([_frequency(plan.tasks[idx].scheme, counts_by_task[idx])])
        for idx, _, _ in steps
    }
    solved = _solve_steps(plan, steps, frequencies)
    values = {lid: float(column[0]) for lid, column in solved.items()}
    dead = frozenset(lid for lid, value in values.items() if math.isnan(value))
    return LinkEstimates(
        values={lid: value for lid, value in values.items() if lid not in dead},
        unidentifiable=dead,
    )


class BenchmarkRow(_Record):
    """Per-link benchmark outcome: empirical variance against its bound.

    ``unidentifiable_rounds`` counts the rounds whose estimate of the link was
    withheld; any such round makes ``variance`` and ``ratio`` nan.  A positive
    variance against an infinite bound also makes ``ratio`` nan.
    """

    __match_args__ = ("link", "true_w", "variance", "crb", "ratio", "unidentifiable_rounds")

    def __init__(
        self,
        link: str,
        true_w: float,
        variance: float,
        crb: float,
        ratio: float,
        unidentifiable_rounds: int,
    ) -> None:
        self.__dict__.update(
            link=link,
            true_w=true_w,
            variance=variance,
            crb=crb,
            ratio=ratio,
            unidentifiable_rounds=unidentifiable_rounds,
        )


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
    outcome distribution and solves the plan.  Blocks of rounds are drawn in
    one batch, from the streams ``sample_outcomes`` would draw, and solved as
    arrays.  The reported bound is the diagonal of the inverse plan
    information scaled by the per-task sample count; the default mode is
    first-principles because that is the information of the distributions
    actually sampled.  ``true_params`` names exactly the links the plan
    measures.
    """
    if rounds < 2:
        raise ValueError("variance needs at least 2 rounds")
    if samples_per_task < 1:
        raise ValueError("need at least 1 sample per task")
    covered = plan.covered_links()
    if set(true_params) != covered:
        missing = sorted(covered - set(true_params))
        extra = sorted(set(true_params) - covered)
        raise ValueError(
            f"true_params must name exactly the plan's links: missing {missing}, extra {extra}"
        )
    for lid, w in true_params.items():
        if not 0.0 <= w <= 1.0:
            raise ValueError(f"parameter for link {lid!r} outside [0, 1]")
    order = tuple(sorted(true_params))
    dists = [task_distribution(task, true_params) for task in plan.tasks]
    steps = _plan_steps(plan)
    estimates = np.full((rounds, len(order)), np.nan)
    for start in range(0, rounds, ROUND_BLOCK):
        block = range(start, min(rounds, start + ROUND_BLOCK))
        counts = _sample_rounds(dists, samples_per_task, seed, block)
        frequencies = _round_frequencies(plan, steps, counts, samples_per_task)
        for lid, column in _solve_steps(plan, steps, frequencies).items():
            estimates[start : block.stop, order.index(lid)] = column
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
