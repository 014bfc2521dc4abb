"""Fisher information of measurement tasks and plans, with Cramér-Rao bounds.

A task's information is rank one, J_s(W) g g^T: W is the path product and
g_i = dW/dw_i the product of the other path links.  J_s has two independent
modes: closed-form, the scheme table's published scalar (1/(1-W^2) for LZM,
doubled on a direct link; 12W^2/((1+3W^2)(1-W^2)) for JBM; 3/((1+3W)(1-W))
for PEM), and first-principles, the outcome sum of (d p_k / dW)^2 / p_k.
They agree except on a direct LZM link, where the closed form is exactly
twice the other; `validate` reports it.

Everything is array-valued over a batch of parameter points.  A plan set's
bounds are an integer layout (`_layout`), cached on its (scheme, link ids)
tasks and the parameter names, and a float pass per call (`_plan_bounds`):
W and J of each distinct task once, then every identifiable link's exact
combination in one gather, each mark's decision cached too.  No matrix, no
linear algebra: `star` calls it, and `plan_qfim` stores the bounds in its
matrix.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from itertools import accumulate, chain
from operator import mul
from typing import Mapping, Sequence

import numpy as np

from .network import MeasurementTask, MonitoringPlan, _identifiable, channel_uses
from .schemes import SCHEMES, Scheme, SchemeSpec, _Record, _require_links


class FisherMode(Enum):
    CLOSED_FORM = "closed-form"
    FIRST_PRINCIPLES = "first-principles"


class FisherMatrix(_Record):
    """A plan's information matrix over an ordered link-parameter vector, with its bounds.

    ``entries`` has shape (n, n), or (..., n, n) for a batch of points, over
    distinct names in ``order``; ``mode`` is a ``FisherMode``.  A +inf entry
    (a vanishing probability) makes its coordinate exactly known.
    ``bounds`` (..., n) holds each member's variance bounds: 0 on known
    coordinates, +inf on those the plan does not identify.  ``plan_qfim``
    settles them from the plan's incidence; nothing derives them from
    ``entries``, so a matrix is never built from raw entries alone.
    ``ledger``, a ``UsageLedger``, records the normalization when
    ``normalized`` is set.
    """

    def __init__(self, entries, order, mode, bounds, normalized=False, ledger=None) -> None:
        self._store(locals())
        # A hook of its own: perfbench's recorder wraps it to count constructions.
        self.__post_init__()

    def __post_init__(self) -> None:
        e, b = np.array(self.entries, dtype=float), np.array(self.bounds, dtype=float)
        if e.shape[-2:] != (n := len(self.order),) * 2 or b.shape != e.shape[:-1]:
            raise ValueError("entries must be square over the parameter order, bounds one per row")
        if len(set(self.order)) != n:
            raise ValueError("parameter order repeats a name")
        if not (b >= 0.0).all():
            raise ValueError("bounds must not be nan or negative")
        for array in (e, b):
            array.setflags(write=False)
        self.__dict__.update(entries=e, order=tuple(self.order), bounds=b)


def _plain(x: np.ndarray) -> float | np.ndarray:
    """A float for a batch of one, the array otherwise."""
    return float(x) if np.ndim(x) == 0 else x


def _parameter(w: float | np.ndarray, name: str) -> np.ndarray:
    """``w`` as an array once it is a float or a 1-D list or array within [0, 1].

    Out of range, the error names the first value outside, as the oracle's does.
    """
    ws = np.asarray(w, dtype=float)
    if ws.ndim > 1:
        raise ValueError(f"{name} must be a float or a 1-D array")
    if not (inside := (ws >= 0.0) & (ws <= 1.0)).all():
        raise ValueError(f"{name}={np.extract(~inside, ws)[0]} outside [0, 1]")
    return ws


def _information(spec: SchemeSpec, product, mode: FisherMode, direct: bool):
    """J at path product W from the scheme table, for a float or an array.

    Plain arithmetic, so a float W gives a float with no NumPy call.  In
    first principles the per-outcome terms (d p_k / dW)^2 / p_k add in
    outcome order.  Every p_k is positive for W < 1 and every d p_k is finite,
    so on (0, 1) the rule needs no guard; at W = 1 see ``_rank_one``.
    """
    if mode is FisherMode.CLOSED_FORM:
        info = spec.closed_form(product)
        return info * spec.direct_factor if direct else info
    info = 0.0
    for p, dp in zip(spec.probabilities(product), spec.derivatives(product)):
        info = info + dp * dp / p
    return info


def _rank_one(scheme: Scheme, ws: Sequence, mode: FisherMode) -> np.ndarray:
    """J over the batch: a task's information block is J * outer(g, g).

    J is +inf at W = 1, where every link is 1 and so is every g_i.  There
    ``_information`` divides by zero, and the guard gives the +inf.  Float
    links give a 0-d product, so that division follows NumPy's rules too.
    """
    product = np.asarray(math.prod(ws), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        info = _information(SCHEMES[scheme], product, mode, len(ws) == 1)
        return np.where(product == 1.0, math.inf, info)


def _per_use(spec: SchemeSpec, info, normalize: bool):
    """Single-link information per channel use of one sample with ``normalize``."""
    return info / spec.uses_per_link if normalize else info


@functools.lru_cache(maxsize=64)
def _layout(plans: tuple, names: tuple) -> tuple:
    """``(n, keys, columns, rules, where, rows_of, totals)`` of (scheme, link ids) plans.

    Distinct tasks ``keys``, each J rule's rows one slice in ``rules``; their
    links as ``columns`` over sorted ``names``, padded with the row of ones
    n, the last a pad task; their indices ``where``; each plan's task rows
    and channel-use total.  No ``SchemeSpec``: J is looked up per call.
    """
    _require_links(dict.fromkeys(l for _, path in chain(*plans) for l in path), names)
    n = len(names)
    # Only LZM's direct J is its path J doubled.
    kind = {t: (t[0], len(t[1]) == 1 and SCHEMES[t[0]].direct_factor != 1.0) for t in chain(*plans)}
    keys = sorted(kind, key=lambda t: (t[0].value, kind[t][1]))
    where = [tuple(names.index(l) for l in path) for _, path in keys]
    width = max(map(len, where), default=1)
    columns = np.array([c + (n,) * (width - len(c)) for c in where + [()]]).T
    order = [kind[t] for t in keys]
    rules = {o: slice(order.index(o), len(order) - order[::-1].index(o)) for o in order}
    rows_of = [[keys.index(t) for t in p] for p in plans]
    uses = [sum(SCHEMES[s].uses_per_link * len(path) for s, path in p) for p in plans]
    return n, keys, columns, rules, where, rows_of, np.array(uses, dtype=float)[:, None, None]


@functools.lru_cache(maxsize=256)
def _decision(plans: tuple, names: tuple, mark: tuple) -> tuple:
    """``(flat, links, slot, coef, edges)`` of all plans at points sharing ``mark``.

    ``mark`` flags links at 0, tasks with W = 1 and tasks that inform nothing.
    Link ``links[i]`` (bounds row ``flat[i]``) has bound sum_t coef_t
    (w_link/W_t)^2 / J_t over tasks ``slot[:, i]``, coef_t = (y_t/d)^2, y/d
    its combination; ``edges`` go to ``_edge_bounds``.
    """
    n, keys, _, _, where, rows_of, _ = _layout(plans, names)
    picks, edges = [], []
    for p, rows in enumerate(rows_of):
        tasks = tuple(where[k] for k in rows)
        own = mark[:n] + tuple(mark[n + k + j * len(keys)] for j in (0, 1) for k in rows)
        known, live, pivots, combos = decision = _identifiable(tasks, n, own)
        if known or any(mark[:n]) or len(pivots) != len(live):
            edges.append((p, tasks, own, decision))
        for c, y, d in combos if len(pivots) == len(live) else ():
            picks.append((p * n + c, c, [(rows[t], k * k / (d * d)) for k, t in zip(y, live) if k]))
    width = max((len(cells) for *_, cells in picks), default=0)
    cells = [row + [(len(keys), 0.0)] * (width - len(row)) for *_, row in picks]
    slot, coef = np.array(cells, dtype=float).reshape(len(cells), width, 2).T
    return [r for r, *_ in picks], [p[1] for p in picks], slot.astype(int), coef[..., None], edges


def _gradients(layout: tuple, w: np.ndarray) -> np.ndarray:
    """g (tasks, n, points): g_i = dW/dw_i, the other path links' product, 0 off it."""
    columns = layout[2][:, :-1]
    prefix = list(accumulate(w[columns], mul, initial=1.0))
    suffix = list(accumulate(w[columns][::-1], mul, initial=1.0))[::-1]
    g = np.zeros((columns.shape[1],) + w.shape)
    g[range(columns.shape[1]), columns] = [a * b for a, b in zip(prefix, suffix[1:])]
    return g[:, : layout[0]]


def _plan_bounds(plans: Sequence, params: Mapping, mode: FisherMode, normalize: bool) -> tuple:
    """``(bounds, names, layout, batch, w, info)``: the float pass at checked ``params``.

    ``bounds`` (plans, n, points), times each total if ``normalize``; ``w``,
    the sorted parameters and a row of ones.  In theta = log w a plan's
    information is R^T diag(J W^2) R, R its path-link incidence.  Points
    are grouped by mark, one group if none: each is one cached decision,
    gather and store.
    """
    names = tuple(sorted(params))
    plans = tuple(tuple([(t.scheme, t.path.link_ids) for t in p.tasks]) for p in plans)
    layout = n, _, columns, rules, where, rows_of, totals = _layout(plans, names)
    # Every parameter, read or not, sets the batch shape and is range-checked.
    arrays = {lid: _parameter(w, f"parameter for link {lid!r}") for lid, w in params.items()}
    shapes = {ws.shape for ws in arrays.values()} - {()}
    if len(shapes) > 1:
        raise ValueError("link parameters must be floats or equal-length 1-D arrays")
    batch = shapes.pop() if shapes else ()
    if normalize and not totals.all():
        raise ValueError("cannot normalize by a plan's channel-use total of 0")
    w = np.ones((n + 1, math.prod(batch)))
    for k, lid in enumerate(names):
        w[k] = arrays[lid]
    product = math.prod(w[columns])
    info = np.full_like(product, math.inf)
    bounds = np.full((len(rows_of), n, w.shape[1]), math.inf)
    store = bounds.reshape(len(rows_of) * n, w.shape[1])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # At W = 1 J is +inf in both modes: the rule divides by zero.
        for (s, direct), rows in rules.items():
            info[rows] = _information(SCHEMES[s], product[rows], mode, direct)
        products, ws, g = product[:-1], w[:n], None
        # A task informs nothing where its J, or a g on its path, is 0 in floats.
        # Links are at most 1, so g on the path is at least W: with W normal it
        # cannot round to 0, and g is nonzero on the path alone.
        silent = info[:-1] == 0.0
        if products.min(initial=1.0) < 2.0**-1000:
            g = _gradients(layout, w)
            silent |= np.count_nonzero(g, 1) < np.array([[len(p)] for p in where])
        at = np.vstack([ws == 0.0, products == 1.0, silent]).T
        groups = [((False,) * at.shape[1], slice(None))]
        if at.any():
            groups = [(m, np.flatnonzero((at == m).all(1))) for m in {*map(tuple, at.tolist())}]
        for mark, s in groups:
            flat, links, slot, coef, edges = _decision(plans, names, mark)
            for p, tasks, own, decision in edges:
                g = _gradients(layout, w) if g is None else g
                bounds[p][:, s] = _edge_bounds(info, g, ws, rows_of[p], s, tasks, own, decision)
            ratio = w[links][:, s] / product[slot][..., s]
            parts = (coef * ratio * ratio / info[slot][..., s]).sum(0)
            store[flat if isinstance(s, slice) else np.ix_(flat, s)] = parts
        bounds *= totals if normalize else 1.0
    return bounds, names, layout, batch, w, info


def _edge_bounds(info, g, w, rows, s, paths: tuple, mark: tuple, decision) -> np.ndarray:
    """Bounds (n, points) of the plan with tasks ``rows`` over ``paths``, at points ``s``.

    What the gather in ``_plan_bounds`` cannot express, at points that share
    ``mark`` and so ``decision``: known links get 0, a link at 0 the inverse
    of what the tasks through it and no other link at 0 inform, and, when
    the live rows are dependent, each identifiable link the diagonal of
    their inverse information, by exact Gauss-Jordan on the floats' values
    (a float matrix loses tasks of small information).  Other links get +inf.
    """
    info, g, w = info[rows][:, s], g[rows][..., s], w[:, s]
    known, live, pivots, combos = decision
    zeros = {c for c in range(len(w)) if mark[c]}
    bounds = np.full(w.shape, math.inf)
    bounds[list(known)] = 0.0
    for c in zeros:
        # w[c] = 0 starts the sum.
        alone = (j * r[c] ** 2 for j, r, path in zip(info, g, paths) if zeros & {*path} == {c})
        bounds[c] = 1.0 / sum(alone, w[c])
    if len(pivots) == len(live):
        return bounds
    # Dependent rows (rare: imported here).
    from fractions import Fraction

    exact = np.frompyfunc(Fraction, 1, 1)
    live = list(live)
    f = sum(j * r[:, None] * r for j, r in zip(exact(info[live]), exact(g[live][:, pivots])))
    for p in range(w.shape[1]):
        a = np.concatenate([f[..., p], np.eye(len(f), dtype=int)], 1)
        for k in range(len(a)):
            a[k] /= a[k, k]
            a -= (np.arange(len(a)) != k)[:, None] * a[:, k, None] * a[k]
        for c, _, _ in combos:
            k = pivots.index(c)
            try:
                bounds[c, p] = a[k, len(a) + k]
            except OverflowError:
                pass  # past the float range: +inf, for this link only
    return bounds


def task_qfim(
    task: MeasurementTask, params: Mapping[str, float | np.ndarray], mode: FisherMode
) -> FisherMatrix:
    """Information matrix of the one-task plan over the full parameter vector.

    Entries off the task's path are zero; where a probability vanishes they
    are +inf rather than a silent overflow.
    """
    return plan_qfim(MonitoringPlan("task", (task,)), params, mode)


def plan_qfim(
    plan: MonitoringPlan | Sequence[MonitoringPlan],
    params: Mapping[str, float | np.ndarray],
    mode: FisherMode,
    normalize: bool = False,
) -> FisherMatrix:
    """Sum of per-task information, optionally per total channel use of a round.

    Link parameters are floats or equal-length 1-D lists or arrays; the batch
    spans every parameter, read or not.  A sequence of plans gives one matrix
    with the plans on a new leading axis, each member bit for bit what its
    plan gives alone; with ``normalize`` ``ledger`` is then a tuple.
    """
    single = isinstance(plan, MonitoringPlan)
    plans = (plan,) if single else tuple(plan)
    if not plans:
        raise ValueError("plan_qfim needs at least one plan")
    bounds, names, layout, batch, w, info = _plan_bounds(plans, params, mode, normalize)
    ledgers = tuple(channel_uses(p) for p in plans) if normalize else None
    # Each distinct task's block J g g^T, with the batch last, 0 off its path
    # also where J is +inf.  Every plan adds its blocks in task order, from
    # 0.0, then is divided by its total.
    g = _gradients(layout, w)
    outer = g[:, :, None] * g[:, None, :]
    with np.errstate(invalid="ignore"):
        blocks = np.where(outer == 0.0, 0.0, info[:-1, None, None] * outer)
    entries = np.array([sum(blocks[rows], np.zeros(blocks.shape[1:])) for rows in layout[5]])
    entries /= layout[6][..., None] if normalize else 1.0
    entries = entries.transpose(0, 3, 1, 2).reshape((len(plans),) + batch + 2 * (len(names),))
    bounds = bounds.transpose(0, 2, 1).reshape(entries.shape[:-1])
    if single:
        entries, bounds, ledgers = entries[0], bounds[0], ledgers and ledgers[0]
    return FisherMatrix(entries, names, mode, bounds, normalize, ledgers)


def _plan_qcrb(plans: Sequence, params: Mapping, mode: FisherMode, normalize: bool) -> list:
    """Each plan's ``qcrb`` over the batch, as lists; no matrix is built."""
    with np.errstate(over="ignore"):
        return _plan_bounds(plans, params, mode, normalize)[0].sum(1).tolist()


def crb_diagonal(matrix: FisherMatrix, scale: float = 1.0) -> dict:
    """Per-parameter variance bounds: diagonal of the scaled matrix inverse.

    0 for a known coordinate, +inf for one that is not identifiable, read
    from ``matrix.bounds``; an array per parameter for a batch.
    ``scale`` (samples per task), positive and finite, only divides them.
    """
    if not (math.isfinite(scale) and scale > 0.0):
        raise ValueError(f"scale must be a positive finite number, got {scale!r}")
    with np.errstate(over="ignore"):
        return {lid: _plain(matrix.bounds[..., k] / scale) for k, lid in enumerate(matrix.order)}


def qcrb(matrix: FisherMatrix) -> float | np.ndarray:
    """Trace of the matrix inverse: summed per-parameter variance bounds.

    Returns +inf for a singular matrix (unidentifiable parameters) or a sum
    past the float range; a batched matrix gives an array.
    """
    with np.errstate(over="ignore"):
        return sum(crb_diagonal(matrix).values())


def single_link_fisher(
    scheme: Scheme, w: float | np.ndarray, mode: FisherMode, normalize: bool = False
) -> float | np.ndarray:
    """Scalar information of a direct single-link task, per point of ``w``.

    With ``normalize`` the value is divided by the channel uses one sample
    costs (2 for the fused-copies scheme, otherwise 1).
    """
    ws = _parameter(w, "w")
    return _plain(_per_use(SCHEMES[scheme], _rank_one(scheme, [ws], mode), normalize))


def _inverse(info: float | np.ndarray) -> float | np.ndarray:
    """The single-link variance bound 1/J per point, +inf where J is 0."""
    with np.errstate(divide="ignore"):
        return _plain(np.divide(1.0, info))


def single_link_qcrb(
    scheme: Scheme, w: float | np.ndarray, mode: FisherMode, normalize: bool = False
) -> float | np.ndarray:
    """Variance bound of a direct single-link task; +inf when information is 0."""
    return _inverse(single_link_fisher(scheme, w, mode, normalize))


def crossover(
    scheme_a: Scheme, scheme_b: Scheme, mode: FisherMode, normalize: bool = False
) -> float | None:
    """Single-link parameter where the two schemes' information curves cross.

    Bisection on (0, 1) until the midpoint equals an end, so the root is
    within one float of where the difference changes sign; returns None when
    the curves do not cross (identical schemes included).
    """
    # Every bisection point lies in (0, 1), where J needs no guard: the
    # bisection runs on plain floats, with no NumPy call per step.
    spec_a, spec_b = SCHEMES[scheme_a], SCHEMES[scheme_b]

    def gap(w: float) -> float:
        a = _per_use(spec_a, _information(spec_a, w, mode, True), normalize)
        return a - _per_use(spec_b, _information(spec_b, w, mode, True), normalize)

    lo, hi = 1e-9, 1.0 - 1e-9
    # Only identical schemes give a 0 gap at an end, at both: that returns None.
    if ((glo := gap(lo)) > 0.0) == (gap(hi) > 0.0):
        return None
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        gmid = gap(mid)
        if gmid == 0.0:
            return mid
        lo, hi = (mid, hi) if (gmid > 0.0) == (glo > 0.0) else (lo, mid)
    return mid
