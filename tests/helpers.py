"""Helpers shared by the test modules."""

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
