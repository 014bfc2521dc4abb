"""Span and counter recorder wrapped around the package's public functions.

While installed, every public function of each layer module is replaced, in
every ``qnetomo`` namespace that bound it, by a wrapper that records a span
(name, layer, start, end, parent).  Constructions of ``FisherMatrix`` and
``DensityMatrix`` are counted, and NumPy ``eigvalsh`` and ``inv`` calls are
credited to the innermost open layer span.  Spans stay in memory; the caller
writes them out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("cli", "network", "schemes", "fisher", "estimators", "oracle")
NUMPY_COUNTED = ("eigvalsh", "inv")


class Recorder:
    """Install with ``with Recorder(linalg) as rec:``; read results after exit."""

    def __init__(self, linalg) -> None:
        self.linalg = linalg
        self.spans: list = []  # [name, layer, start, end, parent index]
        self.calls: Counter = Counter()  # "layer.function" -> calls
        self.counts: Counter = Counter()
        self._stack: list = []
        self._undo: list = []

    def _open(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][3] = time.perf_counter()

    def _wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        hook = getattr(self, f"_after_{fn.__name__}", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            idx = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(result)
            return result

        return wrapper

    def _after_sample_outcomes(self, result) -> None:
        self.counts["schemes.samples_drawn"] += result.total

    def _after_solve_plan(self, result) -> None:
        self.counts["estimators.links_identified"] += len(result.values)
        self.counts["estimators.links_attempted"] += len(result.values) + len(
            result.unidentifiable
        )

    def _count_numpy(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            layer = self.spans[self._stack[-1]][1] if self._stack else "none"
            self.counts[f"{layer}.{fn.__name__}_calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_builds(self, cls, key: str):
        original = cls.__post_init__

        def post_init(obj) -> None:
            self.counts[key] += 1
            original(obj)

        return post_init

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Recorder":
        namespaces = [m for n, m in sys.modules.items() if n == "qnetomo" or n.startswith("qnetomo.")]
        for layer in LAYERS:
            module = sys.modules[f"qnetomo.{layer}"]
            for fname, fn in list(vars(module).items()):
                if fname.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(fn, layer)
                for ns in namespaces:
                    if vars(ns).get(fname) is fn:
                        self._patch(ns, fname, wrapped)
        for cls, key in (
            (sys.modules["qnetomo.fisher"].FisherMatrix, "fisher.matrices_built"),
            (sys.modules["qnetomo.oracle"].DensityMatrix, "oracle.states_built"),
        ):
            self._patch(cls, "__post_init__", self._count_builds(cls, key))
        for fname in NUMPY_COUNTED:
            self._patch(self.linalg, fname, self._count_numpy(getattr(self.linalg, fname)))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def self_times(self) -> Counter:
        """Layer -> summed span time not covered by child spans."""
        child_time = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Counter = Counter()
        for (_, layer, start, end, _), inner in zip(self.spans, child_time):
            out[layer] += (end - start) - inner
        return out

    def layer_counts(self) -> dict:
        """The per-layer counts the benchmark reports, for one traced pass."""
        c, calls = self.counts, self.calls
        attempted = c["estimators.links_attempted"]
        return {
            "fisher.task_qfim_calls": calls["fisher.task_qfim"],
            "fisher.plan_qfim_calls": calls["fisher.plan_qfim"],
            "fisher.matrices_built": c["fisher.matrices_built"],
            "fisher.eigvalsh_calls": c["fisher.eigvalsh_calls"],
            "fisher.inv_calls": c["fisher.inv_calls"],
            "oracle.states_built": c["oracle.states_built"],
            "oracle.bsm_calls": calls["oracle.bsm"],
            "oracle.eigvalsh_calls": c["oracle.eigvalsh_calls"],
            "schemes.sample_calls": calls["schemes.sample_outcomes"],
            "schemes.samples_drawn": c["schemes.samples_drawn"],
            "estimators.solve_plan_calls": calls["estimators.solve_plan"],
            # No solving attempted means nothing was wasted: read as 1.
            "estimators.identified_ratio": (
                c["estimators.links_identified"] / attempted if attempted else 1.0
            ),
            "network.calls": sum(v for k, v in calls.items() if k.startswith("network.")),
        }

    def dump(self, handle, pass_index: int) -> None:
        for name, layer, start, end, parent in self.spans:
            span = {"pass": pass_index, "name": name, "layer": layer, "start": start, "end": end, "parent": parent}
            handle.write(json.dumps(span) + "\n")
