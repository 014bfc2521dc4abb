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
Every member's bounds are settled when its matrix is built; `crb_diagonal`
only divides them by the sample count.  `plan_qfim` also stacks a sequence
of plans on a new leading axis of one matrix; J and g of each distinct
(scheme, path) task are evaluated once per call and every plan sums its
blocks in task order.  A square plan (each task resolves exactly one new
link) is bounded from its own triangular factor, with no eigen-solver, no
inverse and no re-check of entries that are symmetric and PSD by
construction; that also gives each link that is identifiable a finite
bound when others are not.  Every other member, and every matrix a caller
builds, takes the generic route: checks, one `eigvalsh` for the PSD and
singularity decisions, and one `inv`.  `validate`'s mode-consistency rows
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

from .network import MeasurementTask, MonitoringPlan, UsageLedger, _plan_steps, channel_uses
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
    normalization when ``normalized`` is set.

    ``_bounds``, shape (..., n) in parameter order, holds each member's
    variance bounds, with 0 on known coordinates, and ``_singular``, in the
    batch shape, flags members whose parameters are not all identifiable.
    A member of a square plan from ``plan_qfim`` takes them from the plan's
    factor (``_factor_bounds``): +inf on exactly the links outside the range
    of its information.  Every other member takes the generic route: it is
    singular when its finite block has eigenvalue ratio below
    ``SINGULAR_RTOL``, and then +inf on every finite coordinate; otherwise
    its bounds are the diagonal of its inverse.  Both are read-only and
    neither is a field, so equality, hashing and repr leave them out; copies,
    deep copies and unpickled clones keep them bit for bit.
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
        # A plan-built matrix arrives with the members its plans' factors
        # settled (see ``_built``); every other member is derived here.
        bounds, singular, settled = vars(self).pop("_settled", None) or (None, None, None)
        e = np.array(self.entries, dtype=float)
        n = len(self.order)
        if e.ndim < 2 or e.shape[-2:] != (n, n):
            raise ValueError("entries must be square over the parameter order")
        if len(set(self.order)) != n:
            raise ValueError("parameter order repeats a name")
        if settled is None or not np.all(settled):
            rest = e if settled is None else e[~settled]
            finite = np.isfinite(rest)
            all_finite = finite.all()
            if not all_finite and (rest[~finite] != math.inf).any():
                raise ValueError("entries must not be nan or -inf")
            # inf - inf is nan: equal infinities pass by equality alone.
            with np.errstate(invalid="ignore"):
                t = rest.swapaxes(-1, -2)
                if not ((rest == t) | (np.abs(rest - t) <= SYM_ATOL)).all():
                    raise ValueError("matrix is not symmetric within tolerance")
            block, perm, known = (rest, None, False) if all_finite else _finite_first(rest)
            if not (all_finite or np.isfinite(block).all()):
                raise ValueError("off-diagonal infinity with finite diagonal is not supported")
            eig = np.linalg.eigvalsh(block)
            # Slices, not indices: a matrix over no parameters has no eigenvalue.
            lo, hi = eig[..., :1], eig[..., -1:]
            if (lo < -PSD_ATOL * np.maximum(1.0, hi)).any():
                raise ValueError("matrix is not positive semidefinite within tolerance")
            with np.errstate(divide="ignore", invalid="ignore"):
                flags = np.asarray(((hi <= 0.0) | (lo <= 0.0) | (lo / hi < SINGULAR_RTOL)).any(-1))
            if flags.any():
                # A singular member inverts the identity in its place; its bounds are +inf.
                block = np.where(flags[..., None, None], np.eye(n), block)
            derived = np.diagonal(np.linalg.inv(block), axis1=-2, axis2=-1)
            if perm is not None or flags.any():
                derived = np.where(known, 0.0, np.where(flags[..., None], math.inf, derived))
            if perm is not None:
                derived = np.take_along_axis(derived, np.argsort(perm, axis=-1), axis=-1)
            if settled is None:
                bounds, singular = derived, flags
            else:
                bounds[~settled], singular[~settled] = derived, flags
        for array in (e, singular, bounds):
            array.setflags(write=False)
        self.__dict__.update(entries=e, order=tuple(self.order), _singular=singular, _bounds=bounds)

    def __reduce__(self) -> tuple:
        # Deep copies and unpickled clones keep the bounds the matrix was
        # built with: from its plans' factors or by the generic route.
        return _built, (*self._values, (self._bounds, self._singular, True))


def _built(entries, order, mode, normalized, ledger, factor: tuple | None) -> FisherMatrix:
    """A matrix built with the bounds ``factor`` already settled, if any.

    ``factor`` is ``(bounds, singular, settled)``: the members ``settled``
    flags (all of them when it is ``True``) take those ``bounds`` and
    ``singular`` flags, and the constructor derives the other members' by
    the generic route, into the same arrays.  The matrix goes through
    ``__init__`` and ``__post_init__`` like any other.
    """
    matrix = object.__new__(FisherMatrix)
    vars(matrix)["_settled"] = factor
    matrix.__init__(entries, order, mode, normalized, ledger)
    return matrix


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


def _task_terms(keys: list, values: np.ndarray, row_of: Mapping, index: Mapping, mode) -> tuple:
    """J and g of each distinct (scheme, path) task in ``keys``, with the batch last.

    ``values[row_of[lid]]`` is link ``lid``'s batch.  Returns ``info``, shape
    (tasks, batch), and ``g``, shape (tasks, coordinates, batch): the
    g_i = dW/dw_i at each path link's coordinate and 0 off the path.  Tasks
    of one scheme and path length are evaluated as one stack, with the same
    arithmetic per task and point.
    """
    info = np.empty((len(keys),) + values.shape[1:])
    g = np.zeros((len(keys), len(index)) + values.shape[1:])
    groups: dict = {}
    for k, (scheme, link_ids) in enumerate(keys):
        groups.setdefault((scheme, len(link_ids)), []).append(k)
    for (scheme, length), rows in groups.items():
        paths = [keys[k][1] for k in rows]
        ws = [values[[row_of[path[i]] for path in paths]] for i in range(length)]
        info[rows] = _rank_one(scheme, ws, mode)
        for i, leave in enumerate(_leave_one_out(ws)):
            g[rows, [index[path[i]] for path in paths]] = leave
    return info, g


def _square_steps(plan: MonitoringPlan, n: int) -> tuple | None:
    """The plan's solve steps if every task resolves exactly one new link and the
    tasks cover all ``n`` coordinates; None otherwise."""
    try:
        steps = _plan_steps(plan)
    except ValueError:
        return None
    return steps if len(steps) == len(plan.tasks) == n else None


def _factor_bounds(
    plans: tuple, index: Mapping, picks: np.ndarray, info: np.ndarray, g: np.ndarray, ledgers, batch
) -> tuple | None:
    """Bounds of the members of square plans, from each plan's own factor.

    A square plan's information is F = G^T diag(J) G, with G lower triangular
    in solve order: G[r, q] is task r's g at the link step q resolves, and
    the diagonal holds each task's divisor, the product of its other links.
    With X = G^-1 from forward substitution, link i is identifiable iff
    X[i, t] = 0 for every task t with J = 0 (Stoica & Marzetta, IEEE TSP
    49(1), 2001), and its bound is then sum_t X[i, t]^2 / J_t, with 1/inf = 0.

    ``picks[p, r]`` is the distinct task that is plan p's task r; ``info``
    (tasks, batch) and ``g`` (tasks, coordinates, batch) are their J and g.
    Returns ``(bounds, singular, settled)`` over (plans, *batch), or None
    when no plan is square: ``settled`` flags the members these bounds hold
    for.
    The generic route bounds the rest: every member of a plan that is not
    square, and members with a zero divisor (or one so small that X
    overflows), or with a link of infinite information that a task of
    finite information resolves (the generic route knows such a link
    exactly, the factor only its product with the others).
    """
    n, size = len(index), info.shape[-1]
    square = {k: steps for k, p in enumerate(plans) if (steps := _square_steps(p, n)) is not None}
    if not (n and square):
        return None
    rows = np.array(list(square), dtype=int)
    # Square plan s's task r and the coordinate its step q resolves, each (n, s).
    tasks = picks[rows, :n].T
    coords = np.array([[index[t] for _, t, _ in steps] for steps in square.values()], dtype=int).T
    members = len(rows) * size
    j = info[tasks].reshape(n, members)
    lower = g[tasks[:, None, :], coords[None, :, :]].reshape(n, n, members)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = np.zeros(lower.shape)
        for r in range(n):
            x[r, r] = 1.0
            for q in range(r):
                x[r] -= lower[r, q] * x[q]
            x[r] /= lower[r, r]
        unknown = j == 0.0
        unidentified = (unknown & (x != 0.0)).any(1)
        # 1/inf = 0: a task of infinite information adds nothing.
        parts = x * x / np.where(unknown, math.inf, j)
    # Added in task order, one task at a time: over a batch of one, sum(1)
    # reduces a contiguous axis pairwise and can move the last bits.
    own = parts[:, 0]
    for t in range(1, n):
        own = own + parts[:, t]
    # A zero divisor, or one small enough to overflow X, leaves X non-finite.
    faulty = ~np.isfinite(x).all((0, 1))
    infinite = np.isinf(j)
    if infinite.any():
        faulty |= (infinite[:, None] & (lower != 0.0) & ~infinite[None, :]).any((0, 1))
    own[unidentified] = math.inf
    own = own.reshape(n, len(rows), size)
    if ledgers is not None:
        own *= np.array([[ledgers[k].total] for k in rows], dtype=float)
    bounds = np.zeros((len(plans), size, n))
    bounds[rows, :, coords] = own
    singular = np.zeros((len(plans), size), dtype=bool)
    singular[rows] = unidentified.any(0).reshape(len(rows), size)
    settled = np.zeros((len(plans), size), dtype=bool)
    settled[rows] = ~faulty.reshape(len(rows), size)
    shape = (len(plans),) + batch
    return bounds.reshape(shape + (n,)), singular.reshape(shape), settled.reshape(shape)


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
    bounded as one batch.  Each member is bit for bit the matrix, and has
    the bounds, its plan gives alone.  With ``normalize`` each plan is divided
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
    n, size = len(order), math.prod(batch)
    values = np.empty((len(links), size))
    for k, lid in enumerate(links):
        values[k] = arrays[lid]
    keys = list(dict.fromkeys((t.scheme, t.path.link_ids) for p in plans for t in p.tasks))
    info, g = _task_terms(keys, values, {lid: k for k, lid in enumerate(links)}, index, mode)
    # Each distinct task's block J g g^T, with the batch last, 0 off its path
    # also where J is +inf; one more block, all zero, pads shorter plans.
    outer = g[:, :, None] * g[:, None, :]
    blocks = np.zeros((len(keys) + 1, n, n, size))
    with np.errstate(invalid="ignore"):
        blocks[:-1] = np.where(outer == 0.0, 0.0, info[:, None, None] * outer)
    position = {key: k for k, key in enumerate(keys)}
    width = max(len(p.tasks) for p in plans)
    picks = np.full((len(plans), width), len(keys))
    for k, p in enumerate(plans):
        picks[k, : len(p.tasks)] = [position[t.scheme, t.path.link_ids] for t in p.tasks]
    # Every plan adds its task blocks in task order, all plans at once;
    # starting from 0.0 is exact for these non-negative entries.
    entries = np.zeros((len(plans), n, n, size))
    for column in picks.T:
        entries += blocks[column]
    ledgers = tuple(channel_uses(p) for p in plans) if normalize else None
    if normalize:
        entries /= np.reshape([ledger.total for ledger in ledgers], (-1, 1, 1, 1))
    entries = np.ascontiguousarray(entries.transpose(0, 3, 1, 2))
    entries = entries.reshape((len(plans),) + batch + (n, n))
    factor = _factor_bounds(plans, index, picks, info, g, ledgers, batch)
    if single:
        entries, ledgers = entries[0], None if ledgers is None else ledgers[0]
        factor = factor and tuple(array[0, ...] for array in factor)
    return _built(entries, order, mode, normalize, ledgers, factor)


def crb_diagonal(matrix: FisherMatrix, scale: float = 1.0) -> dict:
    """Per-parameter variance bounds: diagonal of the scaled matrix inverse.

    Coordinates with infinite information contribute a bound of 0, and
    parameters that are not identifiable +inf, as decided when the matrix
    was built (see ``FisherMatrix``).  A batched matrix gives an array of
    bounds per parameter.
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
