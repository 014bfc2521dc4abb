"""The scheme table and the analytic outcome distributions it defines.

Each scheme's statistics depend on the path only through the product W of its
link parameters, and every outcome probability is affine in one power of it:
p_k = (1 + c_k W^d) / 4, with d = 1 for LZM and PEM and d = 2 for JBM.  The
frozen table ``SCHEMES`` holds every per-scheme fact the package uses, so no
other module branches on the scheme.  Sampling is deterministic given
(distribution, n, seed) and portable across platforms via a fixed, named PRNG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from .oracle import BELL_LABELS, ZZ_LABELS

if TYPE_CHECKING:
    from .network import MeasurementTask


class Scheme(Enum):
    """Measurement scheme run over a path.

    LZM: local Z-basis measurements at both path endpoints.
    JBM: joint Bell-state measurement at one endpoint on two fused path copies.
    PEM: Bell measurement at one endpoint assisted by a noiseless pre-shared pair.
    """

    LZM = "LZM"
    JBM = "JBM"
    PEM = "PEM"


@dataclass(frozen=True)
class SchemeSpec:
    """Every fact about one measurement scheme.

    Outcome k has probability ``(1 + slopes[k] * W**degree) / 4``.
    ``closed_form`` is the published information about W for W < 1; a task
    on a single link multiplies it by ``direct_factor``.  ``inverse`` maps the
    summed frequency of ``estimator_labels`` back to W.
    """

    labels: tuple
    slopes: tuple
    degree: int
    closed_form: Callable[[float], float]
    direct_factor: float
    uses_per_link: int
    preshared_pairs: int
    both_monitors: bool
    estimator_labels: tuple
    inverse: Callable[[float], float]

    def probabilities(self, w: float) -> tuple:
        # Left to right, as in (1 + 3*W*W)/4: grouping W*W first moves last bits.
        return tuple((1.0 + math.prod((c,) + (w,) * self.degree)) / 4.0 for c in self.slopes)

    def derivatives(self, w: float) -> tuple:
        """d p_k / dW in outcome order."""
        return tuple(c * self.degree / 4.0 * w ** (self.degree - 1) for c in self.slopes)


SCHEMES: Mapping[Scheme, SchemeSpec] = MappingProxyType(
    {
        Scheme.LZM: SchemeSpec(
            labels=ZZ_LABELS,
            slopes=(1.0, -1.0, -1.0, 1.0),
            degree=1,
            closed_form=lambda w: 1.0 / ((1.0 + w) * (1.0 - w)),
            direct_factor=2.0,
            uses_per_link=1,
            preshared_pairs=0,
            both_monitors=True,
            estimator_labels=("00", "11"),
            inverse=lambda f: 2.0 * f - 1.0,
        ),
        Scheme.JBM: SchemeSpec(
            labels=BELL_LABELS,
            slopes=(3.0, -1.0, -1.0, -1.0),
            degree=2,
            closed_form=lambda w: 12.0 * w * w / ((1.0 + 3.0 * w * w) * (1.0 - w * w)),
            direct_factor=1.0,
            uses_per_link=2,
            preshared_pairs=0,
            both_monitors=False,
            estimator_labels=("phi+",),
            # Sampling noise can push the pre-root value below zero.
            inverse=lambda f: math.sqrt(max(0.0, (4.0 * f - 1.0) / 3.0)),
        ),
        Scheme.PEM: SchemeSpec(
            labels=BELL_LABELS,
            slopes=(3.0, -1.0, -1.0, -1.0),
            degree=1,
            closed_form=lambda w: 3.0 / ((1.0 + 3.0 * w) * (1.0 - w)),
            direct_factor=1.0,
            uses_per_link=1,
            preshared_pairs=1,
            both_monitors=False,
            estimator_labels=("phi+",),
            inverse=lambda f: (4.0 * f - 1.0) / 3.0,
        ),
    }
)

PROB_ATOL = 1e-12


@dataclass(frozen=True)
class OutcomeDistribution:
    """Labeled probability vector over a scheme's measurement outcomes.

    ``path_product`` is the product of the Werner parameters along the
    measured path.
    """

    scheme: Scheme
    labels: tuple
    probabilities: tuple
    path_product: float

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.probabilities):
            raise ValueError("labels and probabilities must align")
        if not 0.0 <= self.path_product <= 1.0:
            raise ValueError(f"path product {self.path_product} outside [0, 1]")
        if any(p < -PROB_ATOL for p in self.probabilities):
            raise ValueError("negative outcome probability")
        if abs(sum(self.probabilities) - 1.0) > PROB_ATOL:
            raise ValueError("probabilities must sum to 1")

    def as_dict(self) -> dict:
        return dict(zip(self.labels, self.probabilities))


@dataclass(frozen=True)
class OutcomeCounts:
    """Outcome counts from sampling, or real-valued expected counts.

    ``seed`` records the RNG seed that produced sampled counts and is None
    for analytically constructed expected counts.
    """

    labels: tuple
    counts: Mapping[str, float]
    total: float
    seed: int | None = None

    def __post_init__(self) -> None:
        if set(self.counts) != set(self.labels):
            raise ValueError("counts must cover exactly the outcome labels")
        if self.total <= 0:
            raise ValueError("total must be positive")
        if abs(sum(self.counts.values()) - self.total) > 1e-9:
            raise ValueError("counts must sum to the total")

    def frequency(self, label: str) -> float:
        return self.counts[label] / self.total


def scheme_distribution(scheme: Scheme, path_product: float) -> OutcomeDistribution:
    """Outcome distribution of a scheme at a given path product."""
    if not 0.0 <= path_product <= 1.0:
        raise ValueError(f"path product {path_product} outside [0, 1]")
    w = float(path_product)
    spec = SCHEMES[scheme]
    return OutcomeDistribution(
        scheme=scheme, labels=spec.labels, probabilities=spec.probabilities(w), path_product=w
    )


def lzm_distribution(path_product: float) -> OutcomeDistribution:
    """Correlated Z-basis outcomes: equal bits carry (1+W)/4, unequal (1-W)/4."""
    return scheme_distribution(Scheme.LZM, path_product)


def jbm_distribution(path_product: float) -> OutcomeDistribution:
    """Joint Bell outcomes on two fused path copies: quadratic in the product."""
    return scheme_distribution(Scheme.JBM, path_product)


def pem_distribution(path_product: float) -> OutcomeDistribution:
    """Pair-assisted Bell outcomes: linear in the product."""
    return scheme_distribution(Scheme.PEM, path_product)


def task_distribution(task: MeasurementTask, params: Mapping[str, float]) -> OutcomeDistribution:
    """Outcome distribution of a task given per-link Werner parameters."""
    product = 1.0
    for lid in task.path.link_ids:
        product *= params[lid]
    return scheme_distribution(task.scheme, product)


def derive_seed(base: int, *indices: int) -> int:
    """Deterministic child seed for a sampling stream, stable across platforms."""
    ss = np.random.SeedSequence([int(base), *[int(i) for i in indices]])
    return int(ss.generate_state(1, np.uint64)[0])


def sample_outcomes(dist: OutcomeDistribution, n: int, seed: int) -> OutcomeCounts:
    """n categorical draws from the distribution with a fixed PCG64 stream."""
    if n < 1:
        raise ValueError("sample count must be at least 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    pvals = np.clip(np.array(dist.probabilities, dtype=float), 0.0, 1.0)
    pvals /= pvals.sum()
    drawn = rng.multinomial(n, pvals)
    counts = {label: int(c) for label, c in zip(dist.labels, drawn)}
    return OutcomeCounts(labels=dist.labels, counts=counts, total=n, seed=seed)


def expected_counts(dist: OutcomeDistribution, n: float) -> OutcomeCounts:
    """Noise-free expected counts n * p_k, used for consistency checks."""
    if n <= 0:
        raise ValueError("total must be positive")
    counts = {label: n * p for label, p in zip(dist.labels, dist.probabilities)}
    return OutcomeCounts(labels=dist.labels, counts=counts, total=float(n), seed=None)
