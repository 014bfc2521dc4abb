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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from operator import mul
from typing import Mapping, Sequence

import numpy as np

from .network import MeasurementTask, MonitoringPlan, UsageLedger, channel_uses
from .schemes import SCHEMES, Scheme

SYM_ATOL = 1e-12
PSD_ATOL = 1e-10
# Eigenvalue ratio below which a matrix is reported as singular (condition
# number above 1e12).
SINGULAR_RTOL = 1e-12


class FisherMode(Enum):
    CLOSED_FORM = "closed-form"
    FIRST_PRINCIPLES = "first-principles"


@dataclass(frozen=True)
class FisherMatrix:
    """Symmetric PSD information matrix over an ordered link-parameter vector.

    Entries may be +inf where a probability vanishes and the information
    diverges; such coordinates are treated as exactly known by the bound
    computations.  ``ledger`` records the channel-use normalization when
    ``normalized`` is set.
    """

    entries: np.ndarray
    order: tuple
    mode: FisherMode
    normalized: bool = False
    ledger: UsageLedger | None = None

    def __post_init__(self) -> None:
        e = np.array(self.entries, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1] or e.shape[0] != len(self.order):
            raise ValueError("entries must be square over the parameter order")
        finite = np.isfinite(e)
        if not np.array_equal(finite, finite.T):
            raise ValueError("infinite entries must be placed symmetrically")
        masked = np.where(finite, e, 0.0)
        if np.any(np.abs(masked - masked.T) > SYM_ATOL):
            raise ValueError("matrix is not symmetric within tolerance")
        if np.all(finite) and e.size and np.linalg.eigvalsh(e)[0] < -PSD_ATOL:
            raise ValueError("matrix is not positive semidefinite within tolerance")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)
        object.__setattr__(self, "order", tuple(self.order))

    @property
    def has_infinite(self) -> bool:
        return bool(np.any(~np.isfinite(self.entries)))


def _leave_one_out(ws: Sequence[float]) -> list:
    """g_i = dW/dw_i, the product of the other links, exact when a link is 0."""
    prefix = list(accumulate(ws, mul, initial=1.0))
    suffix = list(accumulate(reversed(ws), mul, initial=1.0))[::-1]
    return [a * b for a, b in zip(prefix, suffix[1:])]


def _rank_one(scheme: Scheme, ws: Sequence[float], mode: FisherMode) -> tuple:
    """(J, g) such that a task's information block is J * outer(g, g).

    J is +inf only at W = 1, where every link is 1 and so is every g_i.
    """
    spec = SCHEMES[scheme]
    product = math.prod(ws)
    if mode is FisherMode.CLOSED_FORM:
        info = math.inf if product == 1.0 else spec.closed_form(product)
        if len(ws) == 1:
            info *= spec.direct_factor
    else:
        info = 0.0
        for p, dp in zip(spec.probabilities(product), spec.derivatives(product)):
            if dp != 0.0:
                info += dp * dp / p if p > 0.0 else math.inf
    return info, _leave_one_out(ws)


def _task_entries(
    task: MeasurementTask, params: Mapping[str, float], mode: FisherMode, order: tuple
) -> np.ndarray:
    index = {lid: k for k, lid in enumerate(order)}
    for lid in task.path.link_ids:
        if lid not in index:
            raise ValueError(f"path link {lid!r} missing from the parameter vector")
        if not 0.0 <= params[lid] <= 1.0:
            raise ValueError(f"parameter for link {lid!r} outside [0, 1]")
    info, g = _rank_one(task.scheme, [params[lid] for lid in task.path.link_ids], mode)
    entries = np.zeros((len(order), len(order)))
    coords = [index[lid] for lid in task.path.link_ids]
    entries[np.ix_(coords, coords)] = info * np.outer(g, g)
    return entries


def task_qfim(
    task: MeasurementTask,
    params: Mapping[str, float],
    mode: FisherMode,
    order: Sequence[str] | None = None,
) -> FisherMatrix:
    """Information matrix of one task over the full parameter vector.

    Entries outside the task's path coordinates are zero.  Parameters may sit
    on the closed interval [0, 1]; where a probability vanishes the affected
    entries are +inf rather than a silent overflow.
    """
    param_order = tuple(order) if order is not None else tuple(sorted(params))
    return FisherMatrix(
        entries=_task_entries(task, params, mode, param_order), order=param_order, mode=mode
    )


def plan_qfim(
    plan: MonitoringPlan,
    params: Mapping[str, float],
    mode: FisherMode,
    normalize: bool = False,
) -> FisherMatrix:
    """Sum of per-task information, optionally per total channel use.

    Tasks are independent experiments, so their information matrices add.
    Normalization divides by the plan's total channel uses for one round.
    """
    order = tuple(sorted(params))
    n = len(order)
    total = np.zeros((n, n))
    for task in plan.tasks:
        total = total + _task_entries(task, params, mode, order)
    ledger = None
    if normalize:
        ledger = channel_uses(plan)
        total = total / ledger.total
    return FisherMatrix(
        entries=total, order=order, mode=mode, normalized=normalize, ledger=ledger
    )


def crb_diagonal(matrix: FisherMatrix, scale: float = 1.0) -> dict:
    """Per-parameter variance bounds: diagonal of the scaled matrix inverse.

    Coordinates with infinite information contribute a bound of 0.  If the
    finite part is singular (eigenvalue ratio below 1e-12), its coordinates
    get +inf: the parameters are not jointly identifiable.
    """
    e = matrix.entries
    n = len(matrix.order)
    bounds = {}
    finite = [k for k in range(n) if math.isfinite(e[k, k])]
    for k in range(n):
        if k not in finite:
            bounds[matrix.order[k]] = 0.0
    if not finite:
        return bounds
    sub = e[np.ix_(finite, finite)]
    if not np.all(np.isfinite(sub)):
        raise ValueError("off-diagonal infinity with finite diagonal is not supported")
    eig = np.linalg.eigvalsh(sub)
    if eig[-1] <= 0.0 or eig[0] <= 0.0 or eig[0] / eig[-1] < SINGULAR_RTOL:
        for k in finite:
            bounds[matrix.order[k]] = math.inf
        return bounds
    diag = np.diag(np.linalg.inv(sub))
    for pos, k in enumerate(finite):
        bounds[matrix.order[k]] = float(diag[pos]) / scale
    return bounds


def qcrb(matrix: FisherMatrix) -> float:
    """Trace of the matrix inverse: summed per-parameter variance bounds.

    Returns +inf for a singular matrix, signalling unidentifiable parameters.
    """
    return sum(crb_diagonal(matrix).values())


def single_link_fisher(
    scheme: Scheme, w: float, mode: FisherMode, normalize: bool = False
) -> float:
    """Scalar information of a direct single-link task.

    With ``normalize`` the value is divided by the channel uses one sample
    costs (2 for the fused-copies scheme, otherwise 1).
    """
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"w={w} outside [0, 1]")
    info, _ = _rank_one(scheme, [w], mode)
    return info / SCHEMES[scheme].uses_per_link if normalize else info


def single_link_qcrb(
    scheme: Scheme, w: float, mode: FisherMode, normalize: bool = False
) -> float:
    """Variance bound of a direct single-link task; +inf when information is 0."""
    info = single_link_fisher(scheme, w, mode, normalize)
    if info == 0.0:
        return math.inf
    if math.isinf(info):
        return 0.0
    return 1.0 / info


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

    def gap(w: float) -> float:
        return single_link_fisher(scheme_a, w, mode, normalize) - single_link_fisher(
            scheme_b, w, mode, normalize
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
