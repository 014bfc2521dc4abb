"""Monte-Carlo sampling, point estimators for link parameters, and benchmarking.

Per-task estimates invert the scheme table's outcome law: if the m estimator
labels' slopes sum to c, their summed frequency f gives W^d = (4f - m) / c.
Plans are solved sequentially, isolating one new link per task by dividing
out the links already estimated.  The benchmark compares empirical estimator
variance against the Cramér-Rao bound of the sampling experiment.

The Monte-Carlo stream contract: stream (r, t) of a run with seed s, the
draws of task t in round r, is ``PCG64(derive_seed(s, r, t))`` with one
``multinomial`` call per stream, so sampling is deterministic and portable.
``sample_outcomes`` draws one such stream; ``_sample_rounds`` draws every
stream of a block of rounds in one batch and produces the same counts.  It
computes each stream's four ``PCG64`` seed words with NumPy's documented
``SeedSequence`` hash over arrays, then hands them to ``PCG64`` through
NumPy's seed-sequence interface, so PCG64's own set-seed step makes each
stream's state.  It checks the first stream of each block against NumPy's
own seeding and raises ``RuntimeError`` if they differ.
"""

from __future__ import annotations

import functools
import math
import numbers
from typing import Mapping, Sequence

import numpy as np

from .fisher import FisherMode, crb_diagonal, plan_qfim
from .network import MonitoringPlan, _plan_steps
from .schemes import SCHEMES, OutcomeDistribution, SchemeSpec, _Record, task_distribution

# Estimated divisors at or below this magnitude make the remaining link
# unidentifiable in practice; the estimate is withheld instead of divided.
DIVISOR_GUARD = 1e-6
# Rounds sampled and solved per batch: bounds the working arrays, whatever
# the round count.
ROUND_BLOCK = 4096


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


def derive_seed(base: int, *indices: int) -> int:
    """Deterministic child seed for a sampling stream, stable across platforms."""
    ss = np.random.SeedSequence([int(base), *[int(i) for i in indices]])
    return int(ss.generate_state(1, np.uint64)[0])


def _pvals(dist: OutcomeDistribution) -> np.ndarray:
    """The probabilities clipped to [0, 1] and renormalised, as drawn from."""
    p = np.clip(np.array(dist.probabilities, dtype=float), 0.0, 1.0)
    return p / p.sum()


def sample_outcomes(dist: OutcomeDistribution, n: int, seed: int) -> OutcomeCounts:
    """n categorical draws from the distribution with a fixed PCG64 stream."""
    if n < 1:
        raise ValueError("sample count must be at least 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    drawn = rng.multinomial(n, _pvals(dist))
    counts = {label: int(c) for label, c in zip(dist.labels, drawn)}
    return OutcomeCounts(labels=dist.labels, counts=counts, total=n, seed=seed)


# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx), for seeding
# many streams at once.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715


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


@functools.cache
def _seed_words_type() -> type:
    """The seed-words class, built on first use.

    Importing ``numpy.random`` at module level would load it in every
    command; only sampling needs it.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """One stream's four precomputed ``SeedSequence`` words for ``PCG64``.

        ``PCG64(SeedWords(words))`` runs PCG64's own set-seed step on the
        words, so it starts where ``PCG64(child)`` does.  ``words`` is a
        contiguous uint64 array of four: PCG64 reads its buffer as it is.
        """

        __slots__ = ("words",)

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            # PCG64 passes the type itself, so its call skips the np.dtype lookup.
            if n_words == 4 and (dtype is np.uint64 or np.dtype(dtype) == np.uint64):
                return self.words
            raise ValueError(f"seed words hold 4 uint64 words, not {n_words} of {np.dtype(dtype)}")

    return SeedWords


def _sample_rounds(
    dists: Sequence[OutcomeDistribution], n: int, seed: int, rounds: range
) -> np.ndarray:
    """Counts of every (round, task) stream, shaped (rounds, tasks, outcomes).

    Entry [i, t] equals ``sample_outcomes(dists[t], n, derive_seed(seed,
    rounds[i], t))``: the streams' seed words are computed in one array pass,
    each stream's ``PCG64`` is seeded from its words by its own set-seed step
    and drawn once, and one task's draws fill its column in one store.
    """
    if n < 1:
        raise ValueError("sample count must be at least 1")
    pvals = [_pvals(dist) for dist in dists]
    # Shaped (rounds, tasks, 4): each stream's words are contiguous, as SeedWords needs.
    words = np.stack(_pcg64_seed_words(_stream_seeds(seed, rounds, len(dists))), axis=-1)
    seed_words = _seed_words_type()
    if words.size:
        # The batch recomputes NumPy's seeding; check one stream against NumPy itself.
        reference = np.random.PCG64(derive_seed(seed, rounds.start, 0)).state
        if np.random.PCG64(seed_words(words[0, 0])).state != reference:
            raise RuntimeError(
                f"NumPy {np.__version__} seeds PCG64 streams differently from the batched "
                "SeedSequence hash; batched counts would not match sample_outcomes"
            )
    pcg64, generator = np.random.PCG64, np.random.Generator
    counts = np.zeros((len(rounds), len(dists), max((len(p) for p in pvals), default=0)), np.int64)
    for t, p in enumerate(pvals):
        draws = (generator(pcg64(seed_words(w))).multinomial(n, p) for w in words[:, t])
        counts[:, t, : len(p)] = np.fromiter(draws, (np.int64, (len(p),)), len(rounds))
    return counts


class LinkEstimates(_Record):
    """Per-link estimates with unidentifiability flags.

    Links whose sequential divisor fell below the guard threshold appear in
    ``unidentifiable`` and carry no value.
    """

    __match_args__ = ("values", "unidentifiable")

    def __init__(
        self, values: Mapping[str, float], unidentifiable: frozenset = frozenset()
    ) -> None:
        self.__dict__.update(values=values, unidentifiable=unidentifiable)


def _clamp(x):
    """min(1, max(0, x)) as the builtins evaluate it, nan included, over arrays."""
    x = np.where(x > 0.0, x, 0.0)
    return np.where(x < 1.0, x, 1.0)


def _invert(spec: SchemeSpec, f):
    """W from the estimator labels' summed frequency f, over arrays.

    For d = 2, sampling noise can push W^2 below zero; its root is then 0.
    """
    slope = sum(spec.slopes[spec.labels.index(label)] for label in spec.estimator_labels)
    power = (4.0 * f - len(spec.estimator_labels)) / slope
    return np.sqrt(np.maximum(0.0, power)) if spec.degree == 2 else power


def _round_frequencies(plan: MonitoringPlan, steps: tuple, counts: np.ndarray, total: int) -> dict:
    """Estimator frequency per round of each resolving task.

    ``counts`` is shaped (rounds, tasks, outcomes), ``total`` samples a task.
    """
    frequencies = {}
    for idx, _, _ in steps:
        spec = SCHEMES[plan.tasks[idx].scheme]
        columns = [spec.labels.index(label) for label in spec.estimator_labels]
        frequencies[idx] = counts[:, idx, columns].sum(axis=1) / total
    return frequencies


def _solve_steps(plan: MonitoringPlan, steps: tuple, frequencies: Mapping) -> dict:
    """Link estimates over a batch of rounds, nan where a link was withheld.

    ``frequencies[idx]`` holds task idx's estimator frequency per round.  A
    divisor is nan when a link it divides by was withheld, and a divisor at
    or below ``DIVISOR_GUARD`` withholds the link it would resolve.
    """
    values: dict = {}
    for idx, target, others in steps:
        estimate = _clamp(_invert(SCHEMES[plan.tasks[idx].scheme], frequencies[idx]))
        divisor = np.ones_like(estimate)
        for lid in others:
            divisor = divisor * values[lid]
        dead = np.isnan(divisor) | (np.abs(divisor) <= DIVISOR_GUARD)
        with np.errstate(divide="ignore", invalid="ignore"):
            values[target] = np.where(dead, np.nan, _clamp(estimate / divisor))
    return values


def solve_plan(plan: MonitoringPlan, counts_by_task: Sequence[OutcomeCounts]) -> LinkEstimates:
    """Sequentially resolve per-link estimates from per-task counts.

    Tasks are processed in plan order; each may introduce at most one link
    not covered earlier.  The new link's estimate divides the task's path
    estimate by the product of the previously estimated links on that path.
    Divisors at or below 1e-6 flag the link as unidentifiable instead of
    exploding the division.  Each task's counts must be over its scheme's
    outcome labels.
    """
    if len(counts_by_task) != len(plan.tasks):
        raise ValueError(
            f"expected counts for {len(plan.tasks)} tasks, got {len(counts_by_task)}"
        )
    for idx, (task, counts) in enumerate(zip(plan.tasks, counts_by_task)):
        labels = SCHEMES[task.scheme].labels
        if set(counts.labels) != set(labels):
            raise ValueError(
                f"task {idx} ({task.scheme.value}) needs counts over {labels},"
                f" got {tuple(counts.labels)}"
            )
    steps = _plan_steps(plan)
    frequencies = {}
    for idx, _, _ in steps:
        counts = counts_by_task[idx]
        observed = sum(counts.counts[l] for l in SCHEMES[plan.tasks[idx].scheme].estimator_labels)
        frequencies[idx] = np.array([observed / counts.total])
    solved = _solve_steps(plan, steps, frequencies)
    values = {lid: float(column[0]) for lid, column in solved.items()}
    dead = frozenset(lid for lid, value in values.items() if math.isnan(value))
    return LinkEstimates(
        values={lid: value for lid, value in values.items() if lid not in dead},
        unidentifiable=dead,
    )


class BenchmarkRow(_Record):
    """Per-link benchmark outcome: empirical variance against its bound.

    ``unidentifiable_rounds`` counts the rounds whose estimate of the link was
    withheld; any such round makes ``variance`` and ``ratio`` nan.  A positive
    variance against an infinite bound also makes ``ratio`` nan.
    """

    __match_args__ = ("link", "true_w", "variance", "crb", "ratio", "unidentifiable_rounds")

    def __init__(
        self,
        link: str,
        true_w: float,
        variance: float,
        crb: float,
        ratio: float,
        unidentifiable_rounds: int,
    ) -> None:
        self.__dict__.update(
            link=link,
            true_w=true_w,
            variance=variance,
            crb=crb,
            ratio=ratio,
            unidentifiable_rounds=unidentifiable_rounds,
        )


def benchmark_variance(
    plan: MonitoringPlan,
    true_params: Mapping[str, float],
    samples_per_task: int,
    rounds: int,
    seed: int,
    mode: FisherMode = FisherMode.FIRST_PRINCIPLES,
) -> tuple:
    """Monte-Carlo estimator variance per link, with the matching bound.

    Each round samples every task ``samples_per_task`` times from its exact
    outcome distribution and solves the plan.  Blocks of rounds are drawn in
    one batch, from the streams ``sample_outcomes`` would draw, and solved as
    arrays.  The reported bound is the diagonal of the inverse plan
    information scaled by the per-task sample count; the default mode is
    first-principles because that is the information of the distributions
    actually sampled.  ``true_params`` names exactly the links the plan
    measures.
    """
    if rounds < 2:
        raise ValueError("variance needs at least 2 rounds")
    if samples_per_task < 1:
        raise ValueError("need at least 1 sample per task")
    covered = plan.covered_links()
    if set(true_params) != covered:
        missing = sorted(covered - set(true_params))
        extra = sorted(set(true_params) - covered)
        raise ValueError(
            f"true_params must name exactly the plan's links: missing {missing}, extra {extra}"
        )
    for lid, w in true_params.items():
        # One point only: plan_qfim would take an array as a batch of points.
        scalar = w[()] if isinstance(w, np.ndarray) and w.ndim == 0 else w
        if not isinstance(scalar, numbers.Real):
            raise ValueError(f"true_params[{lid!r}] must be one real number, got {type(w).__name__}")
    # Before any sampling: plan_qfim also range-checks every parameter.
    info = plan_qfim(plan, true_params, mode, normalize=False)
    order = tuple(sorted(true_params))
    dists = [task_distribution(task, true_params) for task in plan.tasks]
    steps = _plan_steps(plan)
    estimates = np.full((rounds, len(order)), np.nan)
    for start in range(0, rounds, ROUND_BLOCK):
        block = range(start, min(rounds, start + ROUND_BLOCK))
        counts = _sample_rounds(dists, samples_per_task, seed, block)
        frequencies = _round_frequencies(plan, steps, counts, samples_per_task)
        for lid, column in _solve_steps(plan, steps, frequencies).items():
            estimates[start : block.stop, order.index(lid)] = column
    bounds = crb_diagonal(info, scale=float(samples_per_task))
    rows = []
    for k, lid in enumerate(order):
        column = estimates[:, k]
        variance = float(np.var(column, ddof=1))
        bound = bounds[lid]
        if bound == 0.0:
            ratio = math.nan if variance == 0.0 else math.inf
        elif math.isinf(bound):
            ratio = 0.0 if variance == 0.0 else math.nan
        else:
            ratio = variance / bound
        rows.append(
            BenchmarkRow(
                link=lid,
                true_w=float(true_params[lid]),
                variance=variance,
                crb=bound,
                ratio=ratio,
                unidentifiable_rounds=int(np.isnan(column).sum()),
            )
        )
    return tuple(rows)
