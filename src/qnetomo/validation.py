"""The checks behind ``qnetomo validate``.

Each check compares the analytic scheme table with the exact density-matrix
oracle, or one Fisher mode with the other, states its own tolerance and runs
once over its batch.  A task's information is J * outer(g, g) with the same
g in both modes, so the mode-consistency rows compare the scalar J of each
scheme and mode at the path products of each path length's points (1, 2, 3
links), with no matrix or entry stack.  The 1-link LZM value has no row; its
factor of two is ``lzm-direct-mode-ratio-of-two``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .fisher import FisherMode, _rank_one, single_link_fisher
from .oracle import (
    DensityMatrix,
    _linear,
    _werner,
    jbm_oracle_probabilities,
    lzm_oracle_probabilities,
    pem_oracle_probabilities,
)
from .schemes import SCHEMES, Scheme, _require_law


def _mode_gaps(grid: Sequence[Sequence[float]]) -> dict:
    """Largest relative gap of J between the modes per scheme, over one path length's points.

    J is evaluated once per scheme and mode over all the points.  An
    infinite J in one mode only gives a nan gap, which fails the check.
    """
    ws = list(np.array(grid).T)
    closed, first = (np.array([_rank_one(s, ws, mode) for s in Scheme]) for mode in FisherMode)
    with np.errstate(invalid="ignore"):
        gap = np.abs(closed - first) / np.maximum(np.abs(closed), np.abs(first))
    return dict(zip(Scheme, np.where(closed == first, 0.0, gap).max(-1).tolist()))


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
    # The direct-LZM member has no row: its factor of two is checked above.
    one_link, *paths = (_mode_gaps(grid) for grid in (singles, pairs, triples))
    for scheme in Scheme:
        name = f"mode-consistency-{scheme.value.lower()}"
        if scheme is not Scheme.LZM:
            record(f"{name}-direct", one_link[scheme], 1e-9)
        # np.max keeps a nan that the builtin max would drop.
        record(f"{name}-path", float(np.max([gaps[scheme] for gaps in paths])), 1e-9)
    return results
