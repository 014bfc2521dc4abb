"""Fisher information of measurement tasks and plans, with Cramér-Rao bounds.

Every task's information is rank one: J_s(W) * outer(g, g), where W is the
path product and g_i = dW/dw_i is the product of the other path links.  Two
computation modes for the scalar J_s are first-class and kept deliberately
independent:

* closed-form: the published scalar of the scheme table, 1/(1-W^2) for LZM
  (2/(1-W^2) on a direct link), 12W^2/((1+3W^2)(1-W^2)) for JBM and
  3/((1+3W)(1-W)) for PEM;
* first-principles: the per-outcome sum of (d p_k / dW)^2 / p_k over the
  table's outcome distribution.

The two agree to high precision everywhere except the single-link LZM entry,
where the closed form is exactly twice the first-principles value.  Both are
exposed so the discrepancy stays inspectable; the `validate` CLI command
reports it.

Everything is array-valued over a batch of parameter points.  A link
parameter is a float or a 1-D list or array of floats, batches of equal length;
a batch gives a `FisherMatrix` with entries of shape (..., n, n) and array
bounds, floats give one (n, n) matrix and float bounds, from the same code.
A matrix makes every check and singularity decision when it is built, with
one `eigvalsh` over its stack, and one `inv` of that stack then gives every
member's bounds: `crb_diagonal` only divides them by the sample count.
`plan_qfim` also stacks a sequence of plans on a new leading axis of one
matrix; each distinct (scheme, path) block is built once per call and every
plan sums its blocks in task order.  `validate`'s mode-consistency rows
compare J per scheme between the two modes, through `_rank_one`, with no
matrix and no entries.
`crossover` bisects on plain floats through the J rule the array path guards.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import accumulate
from operator import mul
from typing import Mapping, Sequence

import numpy as np

from .network import MeasurementTask, MonitoringPlan, UsageLedger, channel_uses
from .schemes import SCHEMES, Scheme, SchemeSpec, _Record, _require_links

SYM_ATOL = 1e-12
# Most negative eigenvalue a PSD matrix may show, scaled by its largest
# eigenvalue once that exceeds 1: rounding grows with the entries.
PSD_ATOL = 1e-10
# Eigenvalue ratio below which a matrix is reported as singular (condition
# number above 1e12).
SINGULAR_RTOL = 1e-12


class FisherMode(Enum):
    CLOSED_FORM = "closed-form"
    FIRST_PRINCIPLES = "first-principles"


class FisherMatrix(_Record):
    """Symmetric PSD information matrix over an ordered link-parameter vector.

    ``entries`` has shape (n, n), or (..., n, n) for a batch of parameter
    points, over distinct names in ``order``.  Entries may be +inf where a
    probability vanishes and the information diverges; such coordinates are
    treated as exactly known by the bound computations, and the finite block
    left must be positive semidefinite.  ``ledger`` records the channel-use
    normalization when ``normalized`` is set.  ``_singular``, in the batch
    shape, flags each member whose finite block has eigenvalue ratio below
    ``SINGULAR_RTOL``: its parameters are not jointly identifiable.
    ``_bounds``, shape (..., n) in parameter order, is the diagonal of each
    member's inverse, with 0 on known coordinates and +inf on a singular
    member's finite ones.  Both are read-only and neither is a field, so
    equality, hashing and repr leave them out.
    """

    def __init__(
        self,
        entries: np.ndarray,
        order: tuple,
        mode: FisherMode,
        normalized: bool = False,
        ledger: UsageLedger | None = None,
    ) -> None:
        self._store(locals())
        # A hook of its own: perfbench's recorder wraps it to count constructions.
        self.__post_init__()

    def __post_init__(self) -> None:
        e = np.array(self.entries, dtype=float)
        n = len(self.order)
        if e.ndim < 2 or e.shape[-2:] != (n, n):
            raise ValueError("entries must be square over the parameter order")
        if len(set(self.order)) != n:
            raise ValueError("parameter order repeats a name")
        finite = np.isfinite(e)
        all_finite = finite.all()
        if not all_finite and (e[~finite] != math.inf).any():
            raise ValueError("entries must not be nan or -inf")
        # inf - inf is nan: equal infinities pass by equality alone.
        with np.errstate(invalid="ignore"):
            t = e.swapaxes(-1, -2)
            if not ((e == t) | (np.abs(e - t) <= SYM_ATOL)).all():
                raise ValueError("matrix is not symmetric within tolerance")
        block, perm, known = (e, None, False) if all_finite else _finite_first(e)
        if not (all_finite or np.isfinite(block).all()):
            raise ValueError("off-diagonal infinity with finite diagonal is not supported")
        eig = np.linalg.eigvalsh(block)
        # Slices, not indices: a matrix over no parameters has no eigenvalue.
        lo, hi = eig[..., :1], eig[..., -1:]
        if (lo < -PSD_ATOL * np.maximum(1.0, hi)).any():
            raise ValueError("matrix is not positive semidefinite within tolerance")
        with np.errstate(divide="ignore", invalid="ignore"):
            singular = np.asarray(((hi <= 0.0) | (lo <= 0.0) | (lo / hi < SINGULAR_RTOL)).any(-1))
        if singular.any():
            # A singular member inverts the identity in its place; its bounds are +inf.
            block = np.where(singular[..., None, None], np.eye(n), block)
        bounds = np.diagonal(np.linalg.inv(block), axis1=-2, axis2=-1)
        if perm is not None or singular.any():
            bounds = np.where(known, 0.0, np.where(singular[..., None], math.inf, bounds))
        if perm is not None:
            bounds = np.take_along_axis(bounds, np.argsort(perm, axis=-1), axis=-1)
        for array in (e, singular, bounds):
            array.setflags(write=False)
        self.__dict__.update(entries=e, order=tuple(self.order), _singular=singular, _bounds=bounds)


def _finite_first(e: np.ndarray) -> tuple:
    """Each member with its known coordinates (+inf diagonal) moved last, uncoupled.

    Returns ``(block, order, known)``: ``order`` is each member's stable
    permutation of the coordinates, finite ones first, and ``known`` flags the
    moved ones in that order.  Each known coordinate becomes a lone diagonal
    entry equal to the member's largest finite diagonal entry, or 1 when there
    is none.  That value lies between the finite block's smallest and largest
    eigenvalues, so the PSD and singularity tests see the finite block alone.
    """
    n = e.shape[-1]
    known = np.diagonal(e, axis1=-2, axis2=-1) == math.inf
    order = np.argsort(known, axis=-1, kind="stable")
    # One gather from the flat stack: member offset, then row and column.
    members = np.arange(known.size // n).reshape(known.shape[:-1] + (1, 1)) * (n * n)
    block = e.reshape(-1)[members + order[..., :, None] * n + order[..., None, :]]
    diagonal = np.diagonal(block, axis1=-2, axis2=-1)
    known = diagonal == math.inf
    fill = np.max(diagonal, -1, where=~known, initial=-math.inf)[..., None, None]
    lone = np.eye(n) * np.where(fill == -math.inf, 1.0, fill)
    return np.where(known[..., :, None] | known[..., None, :], lone, block), order, known


def _plain(x: np.ndarray) -> float | np.ndarray:
    """A float for a batch of one, the array otherwise."""
    return float(x) if np.ndim(x) == 0 else x


def _leave_one_out(ws: Sequence) -> list:
    """g_i = dW/dw_i, the product of the other links, exact when a link is 0."""
    prefix = list(accumulate(ws, mul, initial=1.0))
    suffix = list(accumulate(reversed(ws), mul, initial=1.0))[::-1]
    return [a * b for a, b in zip(prefix, suffix[1:])]


def _parameter(w: float | np.ndarray, name: str, with_value: bool = False) -> np.ndarray:
    """``w`` as an array once it is a float or a 1-D list or array within [0, 1]."""
    ws = np.asarray(w, dtype=float)
    if ws.ndim > 1:
        raise ValueError(f"{name} must be a float or a 1-D array")
    if not ((ws >= 0.0) & (ws <= 1.0)).all():
        raise ValueError(f"{name}={w} outside [0, 1]" if with_value else f"{name} outside [0, 1]")
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


def _blocks(
    tasks: Sequence[MeasurementTask], row: Mapping, index: Mapping, batch: tuple, mode: FisherMode
) -> dict:
    """Each distinct task's information over the parameter order, shape (..., n, n)."""
    n = len(index)
    blocks = {}
    for scheme, link_ids in dict.fromkeys((t.scheme, t.path.link_ids) for t in tasks):
        ws = [row[lid] for lid in link_ids]
        info = _rank_one(scheme, ws, mode)[..., None, None]
        g = np.array(_leave_one_out(ws)).T  # batch-major, (..., k)
        coords = np.array([index[lid] for lid in link_ids])
        block = np.zeros(batch + (n, n))
        block[..., coords[:, None], coords] = info * (g[..., :, None] * g[..., None, :])
        blocks[scheme, link_ids] = block
    return blocks


def task_qfim(
    task: MeasurementTask,
    params: Mapping[str, float | np.ndarray],
    mode: FisherMode,
) -> FisherMatrix:
    """Information matrix of one task over the full parameter vector.

    The matrix of the one-task plan: entries outside the task's path
    coordinates are zero.  Parameters may sit on the closed interval [0, 1];
    where a probability vanishes the affected entries are +inf rather than a
    silent overflow.
    """
    return plan_qfim(MonitoringPlan("task", (task,)), params, mode)


def plan_qfim(
    plan: MonitoringPlan | Sequence[MonitoringPlan],
    params: Mapping[str, float | np.ndarray],
    mode: FisherMode,
    normalize: bool = False,
) -> FisherMatrix:
    """Sum of per-task information, optionally per total channel use.

    Tasks are independent experiments, so their information matrices add.
    Normalization divides by the plan's total channel uses for one round.
    Link parameters are floats or equal-length 1-D lists or arrays; the
    batch spans every parameter, including links no task reads.

    A sequence of plans over the same parameters gives one matrix that stacks
    the plans on a new leading axis of ``entries``, shape (plans, ..., n, n),
    checked and inverted as one batch.  Each member is bit for bit
    the matrix its plan gives alone.  With ``normalize`` each plan is divided
    by its own total and ``ledger`` is the tuple of the plans' ledgers.
    """
    single = isinstance(plan, MonitoringPlan)
    plans = (plan,) if single else tuple(plan)
    if not plans:
        raise ValueError("plan_qfim needs at least one plan")
    order = tuple(sorted(params))
    index = {lid: k for k, lid in enumerate(order)}
    links = list(dict.fromkeys(lid for p in plans for t in p.tasks for lid in t.path.link_ids))
    _require_links(links, index)
    # Every parameter, read by the tasks or not, sets the batch shape and is range-checked.
    arrays = {lid: _parameter(w, f"parameter for link {lid!r}") for lid, w in params.items()}
    shapes = {ws.shape for ws in arrays.values()} - {()}
    if len(shapes) > 1:
        raise ValueError("link parameters must be floats or equal-length 1-D arrays")
    batch = shapes.pop() if shapes else ()
    values = np.empty((len(links),) + batch)
    for k, lid in enumerate(links):
        values[k] = arrays[lid]
    tasks = [t for p in plans for t in p.tasks]
    blocks = _blocks(tasks, dict(zip(links, values)), index, batch, mode)
    ledgers = tuple(channel_uses(p) for p in plans) if normalize else None
    # Each plan's blocks add in task order; starting from 0.0 is exact for
    # these non-negative entries.
    entries = np.zeros((len(plans),) + batch + (len(order), len(order)))
    for k, (total, p) in enumerate(zip(entries, plans)):
        for t in p.tasks:
            total += blocks[t.scheme, t.path.link_ids]
        if normalize:
            total /= ledgers[k].total
    if single:
        entries, ledgers = entries[0], None if ledgers is None else ledgers[0]
    return FisherMatrix(entries, order, mode, normalized=normalize, ledger=ledgers)


def crb_diagonal(matrix: FisherMatrix, scale: float = 1.0) -> dict:
    """Per-parameter variance bounds: diagonal of the scaled matrix inverse.

    Coordinates with infinite information contribute a bound of 0.  A member
    whose finite block is singular (flagged when the matrix was built) gets
    +inf on its finite coordinates: the parameters are not jointly
    identifiable.  A batched matrix gives an array of bounds per parameter.
    ``scale`` (the samples per task) must be a positive finite number; the
    bounds, inverted when the matrix was built, are only divided by it.
    """
    if not (math.isfinite(scale) and scale > 0.0):
        raise ValueError(f"scale must be a positive finite number, got {scale!r}")
    with np.errstate(over="ignore"):
        return {lid: _plain(matrix._bounds[..., k] / scale) for k, lid in enumerate(matrix.order)}


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
    ws = _parameter(w, "w", with_value=True)
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
    scheme_a: Scheme,
    scheme_b: Scheme,
    mode: FisherMode,
    normalize: bool = False,
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
        return _per_use(spec_a, _information(spec_a, w, mode, True), normalize) - _per_use(
            spec_b, _information(spec_b, w, mode, True), normalize
        )

    lo, hi = 1e-9, 1.0 - 1e-9
    glo, ghi = gap(lo), gap(hi)
    # Only identical schemes give a 0 gap at an end, at both: that returns None.
    if (glo > 0.0) == (ghi > 0.0):
        return None
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        gmid = gap(mid)
        if gmid == 0.0:
            return mid
        if (gmid > 0.0) == (glo > 0.0):
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid
