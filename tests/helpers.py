"""Helpers shared by the test modules."""

from fractions import Fraction

from qnetomo import MeasurementTask, OutcomeCounts, trace_path
from qnetomo.network import _chain


def expected_counts(dist, n):
    """Noise-free counts n * p_k, which a sequential solve inverts exactly."""
    counts = {label: n * p for label, p in zip(dist.labels, dist.probabilities)}
    return OutcomeCounts(labels=dist.labels, counts=counts, total=float(n))


def constructed(monkeypatch, cls):
    """The list every later construction of ``cls`` is appended to, once it has built."""
    built = []

    def counted(obj, *args, _original=cls.__init__, **kwargs):
        _original(obj, *args, **kwargs)
        built.append(obj)

    monkeypatch.setattr(cls, "__init__", counted)
    return built


def _chain_task(scheme, ws):
    """A task over the whole of a fresh chain with links p0, p1, ... set to ``ws``."""
    graph = _chain({f"p{i}": w for i, w in enumerate(ws)})
    params = graph.params()
    return MeasurementTask(scheme=scheme, path=trace_path(graph, tuple(params))), params


def exact_solve(f, rhs):
    """A solution of f x = rhs by exact Gauss-Jordan elimination, or None if none exists."""
    n = len(f)
    rows = [list(row) + [value] for row, value in zip(f, rhs)]
    pivots, r = [], 0
    for c in range(n):
        pick = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                rows[i] = [a - rows[i][c] * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if any(row[-1] != 0 for row in rows[r:]):
        return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = rows[i][-1]
    return x
