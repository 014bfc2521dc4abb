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
parameter is a float or a 1-D array, all arrays in one call of equal length;
a batch then gives a `FisherMatrix` with entries of shape (..., n, n) and
bounds that are arrays over the batch, while floats give one (n, n) matrix and
float bounds from the same code.  A matrix is validated once, when it is
built: symmetry, symmetric infinities, and positive semidefiniteness of every
member whose entries are all finite, from one batched `eigvalsh`.  Those
eigenvalues also serve `crb_diagonal`'s singularity test, and each group of
members with the same finite coordinates is inverted in one batched call.
`plan_qfim` also takes a sequence of plans and stacks them on a new leading
axis of one matrix, so a sweep over several plans is validated and inverted
as one batch.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import accumulate
from operator import mul
from typing import Mapping, Sequence

import numpy as np

from .network import MeasurementTask, MonitoringPlan, UsageLedger, channel_uses
from .schemes import SCHEMES, Scheme, _Record

SYM_ATOL = 1e-12
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
    points.  Entries may be +inf where a probability vanishes and the
    information diverges; such coordinates are treated as exactly known by
    the bound computations.  ``ledger`` records the channel-use normalization
    when ``normalized`` is set.  ``_eigenvalues`` holds the ascending
    eigenvalues of each member with all-finite entries, else nan, over the
    flattened batch: shape (members, n).  It is not a field, so equality,
    hashing and repr leave it out.
    """

    __match_args__ = ("entries", "order", "mode", "normalized", "ledger")

    def __init__(
        self,
        entries: np.ndarray,
        order: tuple,
        mode: FisherMode,
        normalized: bool = False,
        ledger: UsageLedger | None = None,
    ) -> None:
        self.__dict__.update(
            entries=entries, order=order, mode=mode, normalized=normalized, ledger=ledger
        )
        # A hook of its own: perfbench's recorder wraps it to count constructions.
        self.__post_init__()

    def __post_init__(self) -> None:
        e = np.array(self.entries, dtype=float)
        n = len(self.order)
        if e.ndim < 2 or e.shape[-2:] != (n, n):
            raise ValueError("entries must be square over the parameter order")
        finite = np.isfinite(e)
        if (finite != finite.swapaxes(-1, -2)).any():
            raise ValueError("infinite entries must be placed symmetrically")
        masked = np.where(finite, e, 0.0)
        if (np.abs(masked - masked.swapaxes(-1, -2)) > SYM_ATOL).any():
            raise ValueError("matrix is not symmetric within tolerance")
        flat = e.reshape(math.prod(e.shape[:-2]), n, n)
        rows = finite.reshape(flat.shape).all(axis=(1, 2))
        eig = np.full(flat.shape[:-1], np.nan)
        if rows.any():
            eig[rows] = np.linalg.eigvalsh(flat[rows])
        if (eig[rows, :1] < -PSD_ATOL).any():
            raise ValueError("matrix is not positive semidefinite within tolerance")
        e.setflags(write=False)
        eig.setflags(write=False)
        self.__dict__.update(entries=e, order=tuple(self.order), _eigenvalues=eig)


def _plain(x: np.ndarray) -> float | np.ndarray:
    """A float for a batch of one, the array otherwise."""
    return float(x) if np.ndim(x) == 0 else x


def _leave_one_out(ws: Sequence) -> list:
    """g_i = dW/dw_i, the product of the other links, exact when a link is 0."""
    prefix = list(accumulate(ws, mul, initial=1.0))
    suffix = list(accumulate(reversed(ws), mul, initial=1.0))[::-1]
    return [a * b for a, b in zip(prefix, suffix[1:])]


def _rank_one(scheme: Scheme, ws: Sequence, mode: FisherMode) -> np.ndarray:
    """J over the batch: a task's information block is J * outer(g, g).

    J is +inf only at W = 1, where every link is 1 and so is every g_i.  In
    first principles an outcome with dp_k = 0 contributes nothing and one with
    p_k = 0 contributes +inf; the sum runs in outcome order.
    """
    spec = SCHEMES[scheme]
    product = math.prod(ws)
    with np.errstate(divide="ignore", invalid="ignore"):
        if mode is FisherMode.CLOSED_FORM:
            info = np.where(product == 1.0, math.inf, spec.closed_form(product))
            if len(ws) == 1:
                info = info * spec.direct_factor
        else:
            p = np.array(spec.probabilities(product))
            dp = np.array(spec.derivatives(product))
            terms = np.where(dp == 0.0, 0.0, np.where(p > 0.0, dp * dp / p, math.inf))
            info = 0.0
            for term in terms:
                info = info + term
    return info


def _information(
    tasks: Sequence[MeasurementTask],
    params: Mapping[str, float | np.ndarray],
    mode: FisherMode,
    order: tuple,
) -> np.ndarray:
    """Summed task information over the parameter order, shape (..., n, n)."""
    index = {lid: k for k, lid in enumerate(order)}
    links = list(dict.fromkeys(lid for task in tasks for lid in task.path.link_ids))
    for lid in links:
        if lid not in index:
            raise ValueError(f"path link {lid!r} missing from the parameter vector")
    # Every parameter, read by the tasks or not, sets the batch shape and is range-checked.
    shapes = set()
    for lid, w in params.items():
        w = np.asarray(w, dtype=float)
        if w.ndim > 1:
            raise ValueError(f"parameter for link {lid!r} must be a float or a 1-D array")
        if not ((w >= 0.0) & (w <= 1.0)).all():
            raise ValueError(f"parameter for link {lid!r} outside [0, 1]")
        shapes.add(w.shape)
    shapes.discard(())
    if len(shapes) > 1:
        raise ValueError("link parameters must be floats or equal-length 1-D arrays")
    batch = shapes.pop() if shapes else ()
    values = np.empty((len(links),) + batch)
    for k, lid in enumerate(links):
        values[k] = params[lid]
    row = dict(zip(links, values))
    # Link-major (n, n, ...) while summing; the batch axes move to the front.
    total = np.zeros((len(order), len(order)) + batch)
    for task in tasks:
        ws = [row[lid] for lid in task.path.link_ids]
        info = _rank_one(task.scheme, ws, mode)
        g = np.array(_leave_one_out(ws))
        coords = np.array([index[lid] for lid in task.path.link_ids])
        total[coords[:, None], coords] += info * (g[:, None] * g[None, :])
    return total.transpose(tuple(range(2, total.ndim)) + (0, 1))


def task_qfim(
    task: MeasurementTask,
    params: Mapping[str, float | np.ndarray],
    mode: FisherMode,
) -> FisherMatrix:
    """Information matrix of one task over the full parameter vector.

    Entries outside the task's path coordinates are zero.  Parameters may sit
    on the closed interval [0, 1]; where a probability vanishes the affected
    entries are +inf rather than a silent overflow.
    """
    order = tuple(sorted(params))
    return FisherMatrix(entries=_information((task,), params, mode, order), order=order, mode=mode)


def plan_qfim(
    plan: MonitoringPlan | Sequence[MonitoringPlan],
    params: Mapping[str, float | np.ndarray],
    mode: FisherMode,
    normalize: bool = False,
) -> FisherMatrix:
    """Sum of per-task information, optionally per total channel use.

    Tasks are independent experiments, so their information matrices add.
    Normalization divides by the plan's total channel uses for one round.
    Link parameters are floats or equal-length 1-D arrays; the batch spans
    every parameter, including links no task reads.

    A sequence of plans over the same parameters gives one matrix that stacks
    the plans on a new leading axis of ``entries``, shape (plans, ..., n, n),
    validated and later inverted as one batch.  Each member is bit for bit
    the matrix its plan gives alone.  With ``normalize`` each plan is divided
    by its own total and ``ledger`` is the tuple of the plans' ledgers.
    """
    single = isinstance(plan, MonitoringPlan)
    plans = (plan,) if single else tuple(plan)
    if not plans:
        raise ValueError("plan_qfim needs at least one plan")
    order = tuple(sorted(params))
    totals = [_information(p.tasks, params, mode, order) for p in plans]
    ledgers = None
    if normalize:
        ledgers = tuple(channel_uses(p) for p in plans)
        totals = [total / ledger.total for total, ledger in zip(totals, ledgers)]
    if single:
        entries, ledger = totals[0], None if ledgers is None else ledgers[0]
    else:
        entries, ledger = np.stack(totals), ledgers
    return FisherMatrix(
        entries=entries, order=order, mode=mode, normalized=normalize, ledger=ledger
    )


def crb_diagonal(matrix: FisherMatrix, scale: float = 1.0) -> dict:
    """Per-parameter variance bounds: diagonal of the scaled matrix inverse.

    Coordinates with infinite information contribute a bound of 0.  If the
    finite part is singular (eigenvalue ratio below 1e-12), its coordinates
    get +inf: the parameters are not jointly identifiable.  A batched matrix
    gives an array of bounds per parameter.  ``scale`` (the samples per task)
    must be a positive finite number.
    """
    if not (math.isfinite(scale) and scale > 0.0):
        raise ValueError(f"scale must be a positive finite number, got {scale!r}")
    e = matrix.entries
    n = len(matrix.order)
    flat = e.reshape(math.prod(e.shape[:-2]), n, n)
    bounds = np.zeros(flat.shape[:-1])
    finite = np.isfinite(np.diagonal(flat, axis1=1, axis2=2))
    # Members with the same finite coordinates share one eigvalsh and one inv.
    groups: dict = {}
    for member, mask in enumerate(finite.tolist()):
        groups.setdefault(tuple(mask), []).append(member)
    for mask, members in groups.items():
        coords = np.flatnonzero(mask)
        if not coords.size:
            continue
        rows = np.array(members)
        sub = flat[rows[:, None, None], coords[:, None], coords]
        if not np.isfinite(sub).all():
            raise ValueError("off-diagonal infinity with finite diagonal is not supported")
        eig = matrix._eigenvalues[rows] if coords.size == n else np.linalg.eigvalsh(sub)
        lo, hi = eig[:, 0], eig[:, -1]
        with np.errstate(divide="ignore", invalid="ignore"):
            singular = (hi <= 0.0) | (lo <= 0.0) | (lo / hi < SINGULAR_RTOL)
        bounds[rows[singular][:, None], coords] = math.inf
        if not singular.all():
            inverse = np.linalg.inv(sub[~singular])
            bounds[rows[~singular][:, None], coords] = (
                np.diagonal(inverse, axis1=1, axis2=2) / scale
            )
    bounds = bounds.reshape(e.shape[:-1])
    return {lid: _plain(bounds[..., k]) for k, lid in enumerate(matrix.order)}


def qcrb(matrix: FisherMatrix) -> float | np.ndarray:
    """Trace of the matrix inverse: summed per-parameter variance bounds.

    Returns +inf for a singular matrix, signalling unidentifiable parameters;
    a batched matrix gives an array.
    """
    return sum(crb_diagonal(matrix).values())


def single_link_fisher(
    scheme: Scheme, w: float | np.ndarray, mode: FisherMode, normalize: bool = False
) -> float | np.ndarray:
    """Scalar information of a direct single-link task, per point of ``w``.

    With ``normalize`` the value is divided by the channel uses one sample
    costs (2 for the fused-copies scheme, otherwise 1).
    """
    ws = np.asarray(w, dtype=float)
    if ws.ndim > 1:
        raise ValueError("w must be a float or a 1-D array")
    if not ((ws >= 0.0) & (ws <= 1.0)).all():
        raise ValueError(f"w={w} outside [0, 1]")
    info = _rank_one(scheme, [ws], mode)
    return _plain(info / SCHEMES[scheme].uses_per_link if normalize else info)


def single_link_qcrb(
    scheme: Scheme, w: float | np.ndarray, mode: FisherMode, normalize: bool = False
) -> float | np.ndarray:
    """Variance bound of a direct single-link task; +inf when information is 0."""
    with np.errstate(divide="ignore"):
        return _plain(np.divide(1.0, single_link_fisher(scheme, w, mode, normalize)))


def crossover(
    scheme_a: Scheme,
    scheme_b: Scheme,
    mode: FisherMode,
    normalize: bool = False,
) -> float | None:
    """Single-link parameter where the two schemes' information curves cross.

    Bisection to 1e-10 on (0, 1); returns None when the curves do not cross
    (identical schemes included).
    """
    # Every bisection point lies in (0, 1), so the information is taken from
    # _rank_one directly, without single_link_fisher's input checks.
    uses_a = SCHEMES[scheme_a].uses_per_link if normalize else 1
    uses_b = SCHEMES[scheme_b].uses_per_link if normalize else 1

    def gap(w: float) -> float:
        return float(_rank_one(scheme_a, [w], mode) / uses_a) - float(
            _rank_one(scheme_b, [w], mode) / uses_b
        )

    lo, hi = 1e-9, 1.0 - 1e-9
    glo, ghi = gap(lo), gap(hi)
    if glo == 0.0 and ghi == 0.0:
        return None
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if (glo > 0.0) == (ghi > 0.0):
        return None
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        gmid = gap(mid)
        if gmid == 0.0:
            return mid
        if (gmid > 0.0) == (glo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
