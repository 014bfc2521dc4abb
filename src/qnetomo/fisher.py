"""Fisher information of measurement tasks and plans, with Cramér-Rao bounds.

A task's information is rank one, J_s(W) g g^T: W is the path product and
g_i = dW/dw_i the product of the other path links.  J_s has two independent
modes: closed-form, the scheme table's published scalar (1/(1-W^2) for LZM,
doubled on a direct link; 12W^2/((1+3W^2)(1-W^2)) for JBM; 3/((1+3W)(1-W))
for PEM), and first-principles, the outcome sum of (d p_k / dW)^2 / p_k.
They agree except on a direct LZM link, where the closed form is exactly
twice the other; `validate` reports it.

Everything is array-valued over a batch of parameter points, and J and W of
each distinct (scheme, path) task are evaluated once per call.  A plan's
bounds follow one rule (`_plan_bounds`), with no matrix and no linear
algebra: one exact integer decision per plan and mark over its path-link
incidence, then one float evaluation of every identifiable link's
combination.  `star` calls it directly, and `plan_qfim` stores them in the
matrix it returns.  A `FisherMatrix` is always a plan's result: no bound
is ever computed from a matrix's entries.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import accumulate
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


def _plan_terms(plans: tuple, params: Mapping, mode: FisherMode) -> tuple:
    """``(index, batch, keys, info, product, g, w)`` at checked ``params``.

    ``w`` (n, points) holds the parameters in sorted order; each distinct
    (scheme, path) task in ``keys`` has its J, W and g (tasks, n, points),
    0 off its path.  A row of ones pads shorter paths: products stay exact.
    """
    index = {lid: k for k, lid in enumerate(sorted(params))}
    _require_links(dict.fromkeys(l for p in plans for t in p.tasks for l in t.path.link_ids), index)
    # Every parameter, read or not, sets the batch shape and is range-checked.
    arrays = {lid: _parameter(w, f"parameter for link {lid!r}") for lid, w in params.items()}
    shapes = {ws.shape for ws in arrays.values()} - {()}
    if len(shapes) > 1:
        raise ValueError("link parameters must be floats or equal-length 1-D arrays")
    batch = shapes.pop() if shapes else ()
    w = np.ones((len(index) + 1, math.prod(batch)))
    for lid, k in index.items():
        w[k] = arrays[lid]
    keys = list(dict.fromkeys((t.scheme, t.path.link_ids) for p in plans for t in p.tasks))
    # Each task's J rule: only LZM's direct J is its path J doubled.
    kinds = [(s, len(p) == 1 and SCHEMES[s].direct_factor != 1.0) for s, p in keys]
    width = max((len(path) for _, path in keys), default=0)
    columns = list(zip(*([index[l] for l in p] + [len(index)] * (width - len(p)) for _, p in keys)))
    ws = [w[list(c)] for c in columns]
    product = math.prod(ws, start=np.ones((len(keys), w.shape[1])))
    info = np.empty_like(product)
    # J is +inf at W = 1, where _information divides by zero.
    with np.errstate(divide="ignore", invalid="ignore"):
        for kind in dict.fromkeys(kinds):
            rows = [k for k, other in enumerate(kinds) if other == kind]
            # At one point, J per task on NumPy scalars, cheaper than arrays.
            for at in [rows] if w.shape[1] != 1 else [(k, 0) for k in rows]:
                info[at] = _information(SCHEMES[kind[0]], product[at], mode, kind[1])
    info[product == 1.0] = math.inf
    # g_i = dW/dw_i is the product of the other links, exact when a link is 0.
    prefix = list(accumulate(ws, mul, initial=1.0))
    suffix = list(accumulate(reversed(ws), mul, initial=1.0))[::-1]
    g = np.zeros((len(keys),) + w.shape)
    for i, column in enumerate(columns):
        g[range(len(keys)), column] = prefix[i] * suffix[i + 1]
    return index, batch, keys, info, product, g[:, :-1], w[:-1]


def _plan_bounds(plans: Sequence, terms: tuple, normalize: bool) -> tuple:
    """Every plan's bounds, shape (plans, n, points), and its ledgers if ``normalize``.

    In theta = log w a plan's information is R^T diag(J W^2) R, R its 0/1
    path-link incidence.  A plan's points are grouped by mark: links at 0,
    tasks with W = 1, and tasks whose J or g is 0 in floats, which inform
    nothing.  ``_identifiable`` decides each (plan, mark) exactly on
    integers.  Where the live rows are independent, an identifiable link's
    bound is sum_t (y_t/d)^2 (w_i/W_t)^2 / J_t over its combination y/d,
    added in task order, one gather for every plan and mark; for a square
    plan y/d is a row of X = R^-1.  ``_edge_bounds`` takes what that cannot
    express.  Times the channel-use total if ``normalize``.
    """
    ledgers = tuple(channel_uses(p) for p in plans) if normalize else None
    if ledgers and not all(ledger.total for ledger in ledgers):
        raise ValueError("cannot normalize by a plan's channel-use total of 0")
    index, _, keys, info, product, g, w = terms
    n, points = w.shape
    where = [tuple(index[lid] for lid in path) for _, path in keys]
    rows_of = [[keys.index((t.scheme, t.path.link_ids)) for t in p.tasks] for p in plans]
    # A task informs nothing where its J, or a g on its path, is 0 in floats.
    # Links are at most 1, so g on the path is at least W: with W normal it
    # cannot round to 0, and g is nonzero on the path alone.
    silent = info == 0.0
    if product.min(initial=1.0) < 2.0**-1000:
        silent |= np.count_nonzero(g, 1) < np.array([[len(p)] for p in where])
    marked = w.min(initial=1.0) == 0.0 or product.max(initial=0.0) == 1.0 or silent.any()
    bounds = np.full((len(plans), n, points), math.inf)
    picks, cells = [], []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for p, rows in enumerate(rows_of):
            paths = tuple(where[k] for k in rows)
            groups = [((False,) * (n + 2 * len(rows)), slice(None))]
            if marked:
                at = np.vstack([w == 0.0, product[rows] == 1.0, silent[rows]]).T
                groups = [(m, np.flatnonzero((at == m).all(1))) for m in {*map(tuple, at.tolist())}]
            for mark, s in groups:
                known, live, pivots, combos = decision = _identifiable(paths, n, mark)
                independent = len(pivots) == len(live)
                if known or any(mark[:n]) or not independent:
                    bounds[p][:, s] = _edge_bounds(terms, rows, paths, s, mark, decision)
                for c, y, d in combos if independent else ():
                    picks.append((p, c, s))
                    cells.append([(rows[t], k * k / (d * d)) for k, t in zip(y, live) if k])
        if picks:
            # (task, (y_t/d)^2) in task order; a pad slot, W = J = inf, adds 0.
            width = max(map(len, cells))
            cells = [row + [(len(keys), 0.0)] * (width - len(row)) for row in cells]
            slot = np.array([[t for t, _ in row] for row in cells]).T
            pad = np.full((1, points), math.inf)
            ratio = w[[c for _, c, _ in picks]] / np.concatenate([product, pad])[slot]
            coef = np.array([[y for _, y in row] for row in cells]).T[..., None]
            parts = coef * ratio * ratio / np.concatenate([info, pad])[slot]
            if marked:
                for (p, c, s), row in zip(picks, parts.sum(0)):
                    bounds[p, c, s] = row[s]
            else:
                bounds[tuple(zip(*picks))[:2]] = parts.sum(0)
        if normalize:
            bounds *= np.array([ledger.total for ledger in ledgers], dtype=float)[:, None, None]
    return bounds, ledgers


def _edge_bounds(terms: tuple, rows: list, paths: tuple, s, mark: tuple, decision) -> np.ndarray:
    """Bounds (n, points) of the plan with tasks ``rows`` over ``paths``, at points ``s``.

    What the gather in ``_plan_bounds`` cannot express, at points that share
    ``mark`` and so ``decision``: known links get 0, a link at 0 the inverse
    of what the tasks through it and no other link at 0 inform, and, when
    the live rows are dependent, each identifiable link the diagonal of
    their inverse information, by exact Gauss-Jordan on the floats' values
    (a float matrix loses tasks of small information).  Other links get +inf.
    """
    info, g, w = terms[3][rows][:, s], terms[5][rows][..., s], terms[6][:, s]
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
    terms = _plan_terms(plans, params, mode)
    index, batch, keys, info, _, g, _ = terms
    bounds, ledgers = _plan_bounds(plans, terms, normalize)
    # Each distinct task's block J g g^T, with the batch last, 0 off its path
    # also where J is +inf.  Every plan adds its blocks in task order, from
    # 0.0, then is divided by its total.
    outer = g[:, :, None] * g[:, None, :]
    with np.errstate(invalid="ignore"):
        blocks = np.where(outer == 0.0, 0.0, info[:, None, None] * outer)
    entries = np.zeros((len(plans),) + blocks.shape[1:])
    for k, p in enumerate(plans):
        for t in p.tasks:
            entries[k] += blocks[keys.index((t.scheme, t.path.link_ids))]
        if normalize:
            entries[k] /= ledgers[k].total
    entries = entries.transpose(0, 3, 1, 2).reshape((len(plans),) + batch + 2 * (len(index),))
    bounds = bounds.transpose(0, 2, 1).reshape(entries.shape[:-1])
    if single:
        entries, bounds, ledgers = entries[0], bounds[0], ledgers and ledgers[0]
    return FisherMatrix(entries, tuple(index), mode, bounds, normalize, ledgers)


def _plan_qcrb(plans: Sequence, params: Mapping, mode: FisherMode, normalize: bool) -> list:
    """Each plan's ``qcrb`` over the batch, as lists; no matrix is built."""
    with np.errstate(over="ignore"):
        return _plan_bounds(plans, _plan_terms(plans, params, mode), normalize)[0].sum(1).tolist()


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
