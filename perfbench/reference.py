"""Reference results for the benchmark's correctness checks.

Everything here is computed from the published per-scheme formulas and the
README tables, in plain Python, without importing the package under test:

* outcome probabilities of the three schemes as functions of the path
  product ``W`` (README, "Measurement schemes");
* the per-scheme information scalar ``J(W)``, either the published closed
  form or the outcome sum ``sum_k (dp_k/dW)^2 / p_k``;
* plan information as ``sum_t J_t(W_t) g_t g_t^T`` over tasks ``t``, where
  ``g_t`` holds the leave-one-out products of the task path, divided by the
  plan's channel uses when normalised;
* the delta-method variance of the sequential plan estimator, which sets the
  band a Monte-Carlo ``ratio`` column must fall in.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

LZM, JBM, PEM = "LZM", "JBM", "PEM"
SCHEMES = (LZM, JBM, PEM)
ZZ_LABELS = ("00", "01", "10", "11")
BELL_LABELS = ("phi+", "phi-", "psi+", "psi-")
CLOSED_FORM = "closed-form"
FIRST_PRINCIPLES = "first-principles"

# README "Star monitoring plans": (scheme, path link ids) per task, in order.
STAR_PLANS = {
    "JBM2": ((JBM, ("e0",)), (JBM, ("e1",)), (JBM, ("e0", "e2"))),
    "JBM3": ((JBM, ("e0",)), (JBM, ("e1",)), (JBM, ("e2",))),
    "HYB2": ((JBM, ("e0",)), (JBM, ("e0", "e2")), (LZM, ("e0", "e1"))),
    "HYB3": ((JBM, ("e0",)), (LZM, ("e0", "e1")), (LZM, ("e0", "e2"))),
}


def uses_per_sample(scheme: str) -> int:
    """Channel uses one sample costs on each path link."""
    return 2 if scheme == JBM else 1


def outcome_probabilities(scheme: str, w: float) -> dict:
    """README scheme table: outcome label to probability at path product w."""
    if scheme == LZM:
        agree, differ = (1 + w) / 4, (1 - w) / 4
        return dict(zip(ZZ_LABELS, (agree, differ, differ, agree)))
    x = w * w if scheme == JBM else w
    top, rest = (1 + 3 * x) / 4, (1 - x) / 4
    return dict(zip(BELL_LABELS, (top, rest, rest, rest)))


def _outcome_slopes(scheme: str, w: float) -> tuple:
    """d p_k / dW in the label order of ``outcome_probabilities``."""
    if scheme == LZM:
        return (0.25, -0.25, -0.25, 0.25)
    dx = 2 * w if scheme == JBM else 1.0
    return (0.75 * dx, -0.25 * dx, -0.25 * dx, -0.25 * dx)


def _ratio(num: float, den: float) -> float:
    if den == 0.0:
        return math.inf if num != 0.0 else 0.0
    return num / den


def info_scalar(scheme: str, w: float, mode: str, direct: bool) -> float:
    """Information about the path product W carried by one sample.

    Closed form is the published scalar, with the factor of two on a direct
    LZM link; first principles sums over the outcome table.
    """
    if mode == CLOSED_FORM:
        if scheme == LZM:
            return _ratio(2.0 if direct else 1.0, 1 - w * w)
        if scheme == JBM:
            return _ratio(12 * w * w, (1 + 3 * w * w) * (1 - w * w))
        return _ratio(3.0, (1 + 3 * w) * (1 - w))
    total = 0.0
    probs = outcome_probabilities(scheme, w).values()
    for p, dp in zip(probs, _outcome_slopes(scheme, w)):
        if p <= 0.0:
            if dp != 0.0:
                return math.inf
            continue
        total += dp * dp / p
    return total


def single_link_info(scheme: str, w: float, mode: str, normalize: bool) -> float:
    value = info_scalar(scheme, w, mode, direct=True)
    return value / uses_per_sample(scheme) if normalize else value


def crossover_w(mode: str, normalize: bool) -> float | None:
    """Where direct LZM and JBM information are equal, in closed form.

    c / (1 - W^2) / u_L = 12 W^2 / ((1 + 3W^2)(1 - W^2)) / u_J gives
    W^2 = c u_J / (12 u_L - 3 c u_J), with c = 2 in closed form, else 1.
    """
    c = 2.0 if mode == CLOSED_FORM else 1.0
    u_lzm, u_jbm = (1.0, 2.0) if normalize else (1.0, 1.0)
    den = 12 * u_lzm - 3 * c * u_jbm
    if den <= 0.0:
        return None
    root = math.sqrt(c * u_jbm / den)
    return root if 0.0 < root < 1.0 else None


def grid(start: float, stop: float, step: float) -> list:
    count = int(round((stop - start) / step)) + 1
    return [v for v in (round(start + i * step, 12) for i in range(count)) if v <= stop + 1e-9]


def _leave_one_out(ws: Sequence[float]) -> list:
    return [math.prod(ws[:i] + ws[i + 1 :]) for i in range(len(ws))]


def plan_uses(tasks: Sequence[tuple]) -> int:
    return sum(uses_per_sample(s) * len(path) for s, path in tasks)


def plan_info(
    tasks: Sequence[tuple], params: Mapping[str, float], mode: str, normalize: bool
) -> tuple:
    """(order, matrix): plan information over the sorted link ids."""
    order = tuple(sorted(params))
    index = {lid: k for k, lid in enumerate(order)}
    n = len(order)
    total = [[0.0] * n for _ in range(n)]
    for scheme, path in tasks:
        ws = [params[l] for l in path]
        j = info_scalar(scheme, math.prod(ws), mode, direct=len(path) == 1)
        g = _leave_one_out(ws)
        for a, la in enumerate(path):
            for b, lb in enumerate(path):
                total[index[la]][index[lb]] += j * g[a] * g[b]
    if normalize:
        uses = plan_uses(tasks)
        total = [[v / uses for v in row] for row in total]
    return order, total


def inverse(m: Sequence[Sequence[float]]) -> list:
    """Gauss-Jordan inverse with partial pivoting; raises on a singular matrix."""
    n = len(m)
    a = [list(map(float, row)) + [1.0 if i == j else 0.0 for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[pivot][col] == 0.0:
            raise ZeroDivisionError("singular matrix")
        a[col], a[pivot] = a[pivot], a[col]
        scale = a[col][col]
        a[col] = [v / scale for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0.0:
                f = a[r][col]
                a[r] = [v - f * p for v, p in zip(a[r], a[col])]
    return [row[n:] for row in a]


def plan_qcrb(tasks, params, mode: str, normalize: bool) -> float:
    _, info = plan_info(tasks, params, mode, normalize)
    inv = inverse(info)
    return sum(inv[k][k] for k in range(len(inv)))


def sequential_variance(tasks, params: Mapping[str, float], samples: int) -> dict:
    """Delta-method variance of each link estimate of the sequential solver.

    Each task estimates its path product with variance 1 / (n J(W)), the
    first-principles information of the sampled distribution.  A link first
    met in task t is that task's estimate divided by the links already known,
    so its log-error is the task's log-error minus theirs.
    """
    log_terms: dict = {}  # link -> {task index: coefficient of d ln W_t}
    task_log_var = []
    for t, (scheme, path) in enumerate(tasks):
        product = math.prod(params[l] for l in path)
        j = info_scalar(scheme, product, FIRST_PRINCIPLES, direct=len(path) == 1)
        task_log_var.append(1.0 / (samples * j * product * product))
        new = [l for l in path if l not in log_terms]
        if not new:
            continue
        coeffs = {t: 1.0}
        for other in path:
            if other != new[0]:
                for k, c in log_terms[other].items():
                    coeffs[k] = coeffs.get(k, 0.0) - c
        log_terms[new[0]] = coeffs
    return {
        lid: params[lid] ** 2 * sum(c * c * task_log_var[t] for t, c in coeffs.items())
        for lid, coeffs in log_terms.items()
    }


def crb_diagonal(tasks, params, samples: int, mode: str) -> dict:
    """Per-link bound: diagonal of the inverse plan information over samples."""
    order, info = plan_info(tasks, params, mode, normalize=False)
    inv = inverse(info)
    return {lid: inv[k][k] / samples for k, lid in enumerate(order)}


def variance_ratio_band(rounds: int, z: float = 6.0) -> tuple:
    """Range of (sample variance / true variance) over ``rounds`` rounds.

    Wilson-Hilferty quantiles of chi-square / dof at +-z standard normal
    deviations: z = 6 leaves a chance of about 1e-9 per check of a correct
    program falling outside, whatever the seed.
    """
    k = rounds - 1
    s = math.sqrt(2.0 / (9.0 * k))
    centre = 1.0 - 2.0 / (9.0 * k)
    return max(centre - z * s, 0.0) ** 3, (centre + z * s) ** 3
