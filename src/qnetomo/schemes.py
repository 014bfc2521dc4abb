"""The scheme table and the analytic outcome distributions it defines.

Each scheme's statistics depend on the path only through the product W of its
link parameters, and every outcome probability is affine in one power of it:
p_k = (1 + c_k W^d) / 4, with d = 1 for LZM and PEM and d = 2 for JBM.  The
frozen table ``SCHEMES`` holds every per-scheme fact the package uses, so no
other module branches on the scheme; the estimators invert the same law.
Sampling from these distributions lives in ``qnetomo.estimators``.
"""

from __future__ import annotations

import math
from enum import Enum
from operator import attrgetter
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Mapping

if TYPE_CHECKING:
    from .network import MeasurementTask

BELL_LABELS = ("phi+", "phi-", "psi+", "psi-")
ZZ_LABELS = ("00", "01", "10", "11")


class Scheme(Enum):
    """Measurement scheme run over a path.

    LZM: local Z-basis measurements at both path endpoints.
    JBM: joint Bell-state measurement at one endpoint on two fused path copies.
    PEM: Bell measurement at one endpoint assisted by a noiseless pre-shared pair.
    """

    LZM = "LZM"
    JBM = "JBM"
    PEM = "PEM"


class _Record:
    """Base of the package's immutable value classes.

    A subclass names its fields in ``__match_args__`` and its ``__init__``
    stores them in the instance ``__dict__``, so copy and pickle need nothing
    more.  Equality, hashing and repr go over the fields in that order, as a
    frozen dataclass's do, and no attribute can be assigned or deleted.
    These are plain classes because a dataclass builds its methods with
    ``exec`` at import, which every fresh command would pay for.
    """

    __match_args__: tuple = ()

    def __init_subclass__(cls) -> None:
        get = attrgetter(*cls.__match_args__)
        # The tuple of field values; attrgetter returns a lone field bare.
        cls._values = property(get if len(cls.__match_args__) > 1 else lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__match_args__, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class SchemeSpec(_Record):
    """Every fact about one measurement scheme.

    Outcome k has probability ``(1 + slopes[k] * W**degree) / 4``, degree 1 or 2.
    ``closed_form`` is the published information about W for W < 1; a task
    on a single link multiplies it by ``direct_factor``.  Estimates of W
    solve the law for the summed frequency of ``estimator_labels``.
    """

    __match_args__ = (
        "labels",
        "slopes",
        "degree",
        "closed_form",
        "direct_factor",
        "uses_per_link",
        "preshared_pairs",
        "both_monitors",
        "estimator_labels",
    )

    def __init__(
        self,
        labels: tuple,
        slopes: tuple,
        degree: int,
        closed_form: Callable[[float], float],
        direct_factor: float,
        uses_per_link: int,
        preshared_pairs: int,
        both_monitors: bool,
        estimator_labels: tuple,
    ) -> None:
        self.__dict__.update(
            labels=labels,
            slopes=slopes,
            degree=degree,
            closed_form=closed_form,
            direct_factor=direct_factor,
            uses_per_link=uses_per_link,
            preshared_pairs=preshared_pairs,
            both_monitors=both_monitors,
            estimator_labels=estimator_labels,
        )

    def probabilities(self, w: float) -> tuple:
        # Left to right, as in (1 + 3*W*W)/4: grouping W*W first moves last bits.
        if self.degree == 1:
            return tuple([(1.0 + c * w) / 4.0 for c in self.slopes])
        return tuple([(1.0 + c * w * w) / 4.0 for c in self.slopes])

    def derivatives(self, w: float) -> tuple:
        """d p_k / dW in outcome order."""
        power = w ** (self.degree - 1)
        return tuple([c * self.degree / 4.0 * power for c in self.slopes])


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
        ),
    }
)

PROB_ATOL = 1e-12


class OutcomeDistribution(_Record):
    """Labeled probability vector over a scheme's measurement outcomes.

    ``path_product`` is the product of the Werner parameters along the
    measured path.
    """

    __match_args__ = ("scheme", "labels", "probabilities", "path_product")

    def __init__(
        self, scheme: Scheme, labels: tuple, probabilities: tuple, path_product: float
    ) -> None:
        if len(labels) != len(probabilities):
            raise ValueError("labels and probabilities must align")
        if not 0.0 <= path_product <= 1.0:
            raise ValueError(f"path product {path_product} outside [0, 1]")
        if any(p < -PROB_ATOL for p in probabilities):
            raise ValueError("negative outcome probability")
        if abs(sum(probabilities) - 1.0) > PROB_ATOL:
            raise ValueError("probabilities must sum to 1")
        self.__dict__.update(
            scheme=scheme, labels=labels, probabilities=probabilities, path_product=path_product
        )

    def as_dict(self) -> dict:
        return dict(zip(self.labels, self.probabilities))


def scheme_distribution(scheme: Scheme, path_product: float) -> OutcomeDistribution:
    """Outcome distribution of a scheme at a given path product."""
    w = float(path_product)
    spec = SCHEMES[scheme]
    return OutcomeDistribution(
        scheme=scheme, labels=spec.labels, probabilities=spec.probabilities(w), path_product=w
    )


def _require_links(link_ids, params: Mapping) -> None:
    """Raise if any of the path links has no parameter."""
    for lid in link_ids:
        if lid not in params:
            raise ValueError(f"path link {lid!r} missing from the parameter vector")


def task_distribution(task: MeasurementTask, params: Mapping[str, float]) -> OutcomeDistribution:
    """Outcome distribution of a task given per-link Werner parameters."""
    _require_links(task.path.link_ids, params)
    product = math.prod((params[lid] for lid in task.path.link_ids), start=1.0)
    return scheme_distribution(task.scheme, product)
