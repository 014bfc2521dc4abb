"""The checks behind ``qnetomo validate``.

Each check compares the analytic scheme table with the exact density-matrix
oracle, or one Fisher mode with the other, and states its own tolerance.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .fisher import FisherMode, single_link_fisher, task_qfim
from .network import MeasurementTask, Scheme, _chain, trace_path
from .oracle import (
    jbm_oracle_probabilities,
    linear_generation,
    lzm_oracle_probabilities,
    pem_oracle_probabilities,
    werner_density,
)
from .schemes import scheme_distribution


def _chain_task(scheme: Scheme, ws: Sequence[float]) -> tuple:
    """A task over the whole of a fresh chain with links p0, p1, ... set to ``ws``."""
    graph = _chain({f"p{i}": w for i, w in enumerate(ws)})
    params = graph.params()
    return MeasurementTask(scheme=scheme, path=trace_path(graph, tuple(params))), params


def _mode_gap(scheme: Scheme, param_sets: Sequence[Sequence[float]]) -> float:
    """Largest relative entry gap between the modes, one batch per path length.

    An infinite entry in one mode only gives a nan gap, which fails the check.
    """
    gaps = [0.0]
    for length in {len(ws) for ws in param_sets}:
        task, params = _chain_task(scheme, [0.5] * length)
        columns = np.array([ws for ws in param_sets if len(ws) == length]).T
        params = dict(zip(params, columns))
        closed = task_qfim(task, params, FisherMode.CLOSED_FORM).entries
        first = task_qfim(task, params, FisherMode.FIRST_PRINCIPLES).entries
        with np.errstate(invalid="ignore"):
            gap = np.abs(closed - first) / np.maximum(np.abs(closed), np.abs(first))
        gaps.append(np.where(closed == first, 0.0, gap).max())
    return float(np.max(gaps))


def _distribution_gap(scheme: Scheme, oracle) -> float:
    """Largest table-vs-oracle gap over w = 0, 0.05, ..., 1, one oracle call."""
    ws = np.arange(21) / 20.0
    exact = oracle([ws])
    table = [scheme_distribution(scheme, w).as_dict() for w in ws.tolist()]
    return float(max(np.abs([t[l] for t in table] - exact[l]).max() for l in exact))


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

    # All 100 pairs (i / 9, j / 9) at once, one validated state stack per side.
    w1, w2 = np.repeat(np.arange(10) / 9.0, 10), np.tile(np.arange(10) / 9.0, 10)
    chained = linear_generation([w1, w2]).matrix
    direct = werner_density(w1 * w2).matrix
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
    for scheme, kind, grid in (
        (Scheme.LZM, "path", paths),
        (Scheme.JBM, "direct", singles),
        (Scheme.JBM, "path", paths),
        (Scheme.PEM, "direct", singles),
        (Scheme.PEM, "path", paths),
    ):
        name = f"mode-consistency-{scheme.value.lower()}-{kind}"
        record(name, _mode_gap(scheme, grid), 1e-9)
    return results
