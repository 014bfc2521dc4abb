"""The checks behind ``qnetomo validate``.

Each check compares the analytic scheme table with the exact density-matrix
oracle, or one Fisher mode with the other, states its own tolerance and runs
once over its batch.  The mode-consistency rows compare the entries that
``fisher._plan_entries`` builds, with no matrix check, one stack of one-task
plans per path length and mode.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .fisher import FisherMode, _plan_entries, single_link_fisher
from .network import MeasurementTask, MonitoringPlan, Scheme, _chain, trace_path
from .oracle import (
    DensityMatrix,
    _linear,
    _werner,
    jbm_oracle_probabilities,
    lzm_oracle_probabilities,
    pem_oracle_probabilities,
)
from .schemes import SCHEMES, _require_law


def _chain_task(scheme: Scheme, ws: Sequence[float]) -> tuple:
    """A task over the whole of a fresh chain with links p0, p1, ... set to ``ws``."""
    graph = _chain({f"p{i}": w for i, w in enumerate(ws)})
    params = graph.params()
    return MeasurementTask(scheme=scheme, path=trace_path(graph, tuple(params))), params


def _mode_gaps(rows: Sequence[tuple]) -> list:
    """Largest relative entry gap between the modes for each (scheme, grid) row.

    Rows sharing a path length and its points share one stack, a member per
    row.  An infinite entry in one mode only gives a nan gap, which fails the
    check.
    """
    groups: dict = {}
    for r, (_, grid) in enumerate(rows):
        for length in dict.fromkeys(len(ws) for ws in grid):
            points = tuple(tuple(ws) for ws in grid if len(ws) == length)
            groups.setdefault((length, points), []).append(r)
    gaps = [[0.0] for _ in rows]
    for (length, points), members in groups.items():
        task, params = _chain_task(Scheme.LZM, [0.5] * length)
        plans = [MonitoringPlan("task", (MeasurementTask(rows[r][0], task.path),)) for r in members]
        params = dict(zip(params, np.array(points).T))
        closed = _plan_entries(plans, params, FisherMode.CLOSED_FORM, False)[0]
        first = _plan_entries(plans, params, FisherMode.FIRST_PRINCIPLES, False)[0]
        with np.errstate(invalid="ignore"):
            gap = np.abs(closed - first) / np.maximum(np.abs(closed), np.abs(first))
        gap = np.where(closed == first, 0.0, gap).reshape(len(plans), -1).max(-1)
        for r, g in zip(members, gap.tolist()):
            gaps[r].append(g)
    return [float(np.max(g)) for g in gaps]


def _distribution_gap(scheme: Scheme, oracle) -> float:
    """Largest table-vs-oracle gap over w = 0, 0.05, ..., 1, one oracle call."""
    ws = np.arange(21) / 20.0
    spec = SCHEMES[scheme]
    probabilities = spec.probabilities(ws)
    _require_law(probabilities)  # OutcomeDistribution's rule, at every point at once
    table = dict(zip(spec.labels, probabilities, strict=True))
    exact = oracle([ws])
    return float(max(np.abs(table[l] - exact[l]).max() for l in exact))


def validation_checks() -> list:
    """All oracle-equivalence and mode-consistency checks.

    Returns (name, max_error, tolerance, passed) tuples.
    """
    results = []

    def record(name: str, err: float, tol: float) -> None:
        results.append((name, err, tol, err <= tol))

    # The oracles are looked up at call time, so a wrapper set on this
    # module's names sees the calls.
    for scheme, oracle in (
        (Scheme.LZM, lzm_oracle_probabilities),
        (Scheme.JBM, jbm_oracle_probabilities),
        (Scheme.PEM, pem_oracle_probabilities),
    ):
        name = f"{scheme.value.lower()}-distribution-vs-oracle"
        record(name, _distribution_gap(scheme, oracle), 1e-12)

    # All 100 pairs (i / 9, j / 9) at once, both sides in one validated stack.
    w1, w2 = np.repeat(np.arange(10) / 9.0, 10), np.tile(np.arange(10) / 9.0, 10)
    chained, direct = DensityMatrix(np.stack([_linear([w1, w2]), _werner(w1 * w2)])).matrix
    record("swap-multiplicativity", float(np.max(np.abs(chained - direct))), 1e-12)

    ws = 0.05 * np.arange(1, 20)
    closed = single_link_fisher(Scheme.LZM, ws, FisherMode.CLOSED_FORM)
    first = single_link_fisher(Scheme.LZM, ws, FisherMode.FIRST_PRINCIPLES)
    record("lzm-direct-mode-ratio-of-two", float(np.abs(closed / first - 2.0).max()), 1e-12)

    singles = [[0.05 + 0.1 * k] for k in range(10)]
    pairs = [[a, b] for a in (0.1, 0.3, 0.5, 0.7, 0.9) for b in (0.1, 0.3, 0.5, 0.7, 0.9)]
    triples = [
        [a, b, c] for a in (0.2, 0.5, 0.8) for b in (0.2, 0.5, 0.8) for c in (0.2, 0.5, 0.8)
    ]
    paths = pairs + triples
    rows = {
        "lzm-path": (Scheme.LZM, paths),
        "jbm-direct": (Scheme.JBM, singles),
        "jbm-path": (Scheme.JBM, paths),
        "pem-direct": (Scheme.PEM, singles),
        "pem-path": (Scheme.PEM, paths),
    }
    for name, gap in zip(rows, _mode_gaps(list(rows.values()))):
        record(f"mode-consistency-{name}", gap, 1e-9)
    return results
