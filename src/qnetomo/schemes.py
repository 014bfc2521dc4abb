"""The scheme table and the analytic outcome distributions it defines.

Each scheme's statistics depend on the path only through the product W of its
link parameters, and every outcome probability is affine in one power of it:
p_k = (1 + c_k W^d) / 4, with d = 1 for LZM and PEM and d = 2 for JBM.  The
frozen table ``SCHEMES`` holds every per-scheme fact the package uses, so no
other module branches on the scheme.  Sampling is deterministic given
(distribution, n, seed) and portable across platforms via a fixed, named PRNG.

The Monte-Carlo stream contract: stream (r, t) of a run with seed s, the
draws of task t in round r, is ``PCG64(derive_seed(s, r, t))`` with one
``multinomial`` call per stream.  ``sample_outcomes`` draws one such stream;
``_sample_rounds`` draws every stream of a block of rounds in one batch,
computing the seeds with NumPy's documented ``SeedSequence`` hash over
arrays, and produces the same counts.  It checks the first stream of each
block against NumPy's own seeding and raises ``RuntimeError`` if they differ.
"""

from __future__ import annotations

import math
from enum import Enum
from operator import attrgetter
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

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

    Outcome k has probability ``(1 + slopes[k] * W**degree) / 4``.
    ``closed_form`` is the published information about W for W < 1; a task
    on a single link multiplies it by ``direct_factor``.  ``inverse`` maps the
    summed frequency of ``estimator_labels`` back to W, elementwise over
    arrays.
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
        "inverse",
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
        inverse: Callable,
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
            inverse=inverse,
        )

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
            inverse=lambda f: np.sqrt(np.maximum(0.0, (4.0 * f - 1.0) / 3.0)),
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


class OutcomeCounts(_Record):
    """Outcome counts from sampling, or real-valued expected counts.

    Labels are unique, and every count is finite and non-negative.
    ``seed`` records the RNG seed that produced sampled counts and is None
    for analytically constructed expected counts.
    """

    __match_args__ = ("labels", "counts", "total", "seed")

    def __init__(
        self, labels: tuple, counts: Mapping[str, float], total: float, seed: int | None = None
    ) -> None:
        if len(set(labels)) != len(labels):
            raise ValueError("outcome labels must be unique")
        if set(counts) != set(labels):
            raise ValueError("counts must cover exactly the outcome labels")
        if not all(math.isfinite(c) and c >= 0 for c in counts.values()):
            raise ValueError("counts must be finite and non-negative")
        if not total > 0:
            raise ValueError("total must be positive")
        if abs(sum(counts.values()) - total) > 1e-9:
            raise ValueError("counts must sum to the total")
        self.__dict__.update(labels=labels, counts=counts, total=total, seed=seed)

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


def task_distribution(task: MeasurementTask, params: Mapping[str, float]) -> OutcomeDistribution:
    """Outcome distribution of a task given per-link Werner parameters."""
    product = 1.0
    for lid in task.path.link_ids:
        if lid not in params:
            raise ValueError(f"path link {lid!r} missing from the parameter vector")
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


# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64's
# 128-bit multiplier, for seeding many streams at once.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


# Words wrap modulo 2**32 by design; 0-d operands would warn otherwise.
@np.errstate(over="ignore")
def _seed_sequence_state(entropy: list, n_words: int) -> list:
    """``SeedSequence(entropy).generate_state(n_words, np.uint32)`` elementwise.

    ``entropy`` lists the entropy words as uint32 arrays that broadcast
    together; the result lists the state words, one array each.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    pool = [hashmix(entropy[i] if i < len(entropy) else np.uint32(0)) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    out_const = _INIT_B
    state = []
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ np.uint32(out_const)
        out_const = out_const * _MULT_B & _MASK32
        value = value * np.uint32(out_const)
        state.append(value ^ (value >> np.uint32(16)))
    return state


def _uint64_words(state: list) -> list:
    """Little-endian pairs of uint32 state words as uint64 words."""
    return [
        lo.astype(np.uint64) | (hi.astype(np.uint64) << np.uint64(32))
        for lo, hi in zip(state[::2], state[1::2])
    ]


def _stream_seeds(seed: int, rounds: range, n_tasks: int) -> np.ndarray:
    """``derive_seed(seed, r, t)`` as a uint64 array shaped (rounds, tasks)."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if rounds.stop > 1 << 32:
        raise ValueError("round indices must be below 2**32")
    seed_words = []
    while True:
        seed_words.append(np.uint32(seed & _MASK32))
        seed >>= 32
        if not seed:
            break
    r = np.arange(rounds.start, rounds.stop, dtype=np.uint32)[:, None]
    t = np.arange(n_tasks, dtype=np.uint32)[None, :]
    (child,) = _uint64_words(_seed_sequence_state([*seed_words, r, t], 2))
    return child


def _pcg64_seed_words(children: np.ndarray) -> list:
    """The four uint64 words ``PCG64(child)`` seeds from, one array each.

    NumPy hashes a child below 2**32 as one word; its zero high word gives
    the same pool, which is padded with hashed zeros.
    """
    lo = (children & np.uint64(_MASK32)).astype(np.uint32)
    hi = (children >> np.uint64(32)).astype(np.uint32)
    return _uint64_words(_seed_sequence_state([lo, hi], 8))


def _pcg64_state(initstate_hi: int, initstate_lo: int, initseq_hi: int, initseq_lo: int) -> tuple:
    """(state, inc) that PCG64's set-seed step makes of its four seed words."""
    inc = ((initseq_hi << 64 | initseq_lo) << 1 | 1) & _MASK128
    state = ((inc + (initstate_hi << 64 | initstate_lo)) * _PCG64_MULT + inc) & _MASK128
    return state, inc


def _sample_rounds(
    dists: Sequence[OutcomeDistribution], n: int, seed: int, rounds: range
) -> np.ndarray:
    """Counts of every (round, task) stream, shaped (rounds, tasks, outcomes).

    Entry [i, t] equals ``sample_outcomes(dists[t], n, derive_seed(seed,
    rounds[i], t))``: the streams are seeded in one array pass and drawn
    through one reused generator whose state is set per stream.
    """
    if n < 1:
        raise ValueError("sample count must be at least 1")
    pvals = []
    for dist in dists:
        p = np.clip(np.array(dist.probabilities, dtype=float), 0.0, 1.0)
        pvals.append(p / p.sum())
    words = np.stack(_pcg64_seed_words(_stream_seeds(seed, rounds, len(dists))), axis=-1)
    if words.size:
        # The batch recomputes NumPy's seeding; check one stream against NumPy itself.
        reference = np.random.PCG64(derive_seed(seed, rounds.start, 0)).state["state"]
        if _pcg64_state(*words[0, 0].tolist()) != (reference["state"], reference["inc"]):
            raise RuntimeError(
                f"NumPy {np.__version__} seeds PCG64 streams differently from the batched "
                "SeedSequence hash; batched counts would not match sample_outcomes"
            )
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    counts = np.zeros((len(rounds), len(dists), max((len(p) for p in pvals), default=0)), np.int64)
    for i in range(len(rounds)):
        # One round's words at a time: Python ints for every stream would
        # cost more memory than the counts themselves.
        for t, stream_words in enumerate(words[i].tolist()):
            state, inc = _pcg64_state(*stream_words)
            bitgen.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            drawn = gen.multinomial(n, pvals[t])
            counts[i, t, : len(drawn)] = drawn
    return counts

