"""Helpers shared by the test modules."""

import sys
from fractions import Fraction
from types import MappingProxyType

from qnetomo import MeasurementTask, OutcomeCounts, trace_path
from qnetomo.network import _chain
from qnetomo.schemes import SCHEMES


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


def watched_schemes(monkeypatch):
    """The list of ``(scheme, W)`` each later evaluation of a scheme's J rule appends.

    Every module's scheme table becomes one of equal ``SchemeSpec``s that
    note the path product W when their closed form or their outcome law is
    evaluated, so one J evaluation, in either mode, adds one entry.
    """
    seen, table = [], {}
    for scheme, spec in SCHEMES.items():

        class Watched(type(spec)):
            def probabilities(self, w, _scheme=scheme):
                seen.append((_scheme, w))
                return super().probabilities(w)

        def closed_form(w, _scheme=scheme, _rule=spec.closed_form):
            seen.append((_scheme, w))
            return _rule(w)

        fields = dict(zip(spec.__match_args__, spec._values), closed_form=closed_form)
        table[scheme] = Watched(**fields)
    for name, module in list(sys.modules.items()):
        if name.startswith("qnetomo") and getattr(module, "SCHEMES", None) is SCHEMES:
            monkeypatch.setattr(module, "SCHEMES", MappingProxyType(table))
    return seen


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
