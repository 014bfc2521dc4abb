"""Tests for sampling, distribution inversion, sequential plan solving, and benchmarking."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qnetomo import (
    MeasurementTask,
    MonitoringPlan,
    OutcomeCounts,
    Path,
    Scheme,
    benchmark_variance,
    build_star,
    builtin_plan,
    derive_seed,
    sample_outcomes,
    scheme_distribution,
    solve_plan,
    task_distribution,
)
from qnetomo import estimators
from qnetomo.estimators import (
    _pcg64_seed_words,
    _round_frequencies,
    _sample_rounds,
    _solve_steps,
    _stream_seeds,
)
from qnetomo.network import _plan_steps
from qnetomo.schemes import SCHEMES

from helpers import expected_counts

BELL = ("phi+", "phi-", "psi+", "psi-")
ZZ = ("00", "01", "10", "11")


def bell_counts(top, rest, total=None):
    counts = {"phi+": top, "phi-": rest, "psi+": rest, "psi-": rest}
    return OutcomeCounts(BELL, counts, total or (top + 3 * rest))


def zz_counts(n00, n01, n10, n11):
    counts = dict(zip(ZZ, (n00, n01, n10, n11)))
    return OutcomeCounts(ZZ, counts, sum(counts.values()))


def path_value(scheme, counts):
    """One-task solve_plan on a direct link: the clamped inversion of the counts."""
    task = MeasurementTask(scheme, Path(("e0",), ("v0", "v1")))
    return solve_plan(MonitoringPlan(scheme.value, (task,)), [counts]).values["e0"]


# The published inversions of each scheme's estimator frequency, before clamping.
PUBLISHED_INVERSES = {
    Scheme.LZM: (("00", "11"), lambda f: 2.0 * f - 1.0),
    Scheme.JBM: (("phi+",), lambda f: math.sqrt(max(0.0, (4.0 * f - 1.0) / 3.0))),
    Scheme.PEM: (("phi+",), lambda f: (4.0 * f - 1.0) / 3.0),
}


def raw_inversion(scheme, counts):
    """The published inversion of the counts' estimator frequency, before clamping."""
    labels, inverse = PUBLISHED_INVERSES[scheme]
    return inverse(sum(counts.counts[l] for l in labels) / counts.total)


class TestPathInversion:
    def test_lzm_balanced_example(self):
        assert abs(path_value(Scheme.LZM, zz_counts(375, 125, 125, 375)) - 0.5) < 1e-12

    def test_pem_example(self):
        assert abs(path_value(Scheme.PEM, bell_counts(700, 100)) - 0.6) < 1e-12

    def test_jbm_uniform_counts_give_zero(self):
        assert path_value(Scheme.JBM, bell_counts(250, 250)) == 0.0

    def test_jbm_example(self):
        assert abs(path_value(Scheme.JBM, bell_counts(4375, 1875)) - 0.5) < 1e-12

    def test_lzm_clamps_negative_raw(self):
        counts = zz_counts(100, 400, 400, 100)
        assert path_value(Scheme.LZM, counts) == 0.0
        assert raw_inversion(Scheme.LZM, counts) < 0.0

    def test_pem_clamps_above_one(self):
        counts = bell_counts(1000, 0)
        assert path_value(Scheme.PEM, counts) == 1.0
        assert raw_inversion(Scheme.PEM, counts) == 1.0

    def test_jbm_truncates_negative_pre_root(self):
        counts = bell_counts(100, 300)
        assert path_value(Scheme.JBM, counts) == 0.0
        assert raw_inversion(Scheme.JBM, counts) == 0.0

    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda scheme: scheme.value)
    def test_derived_inversion_equals_the_published_one(self, scheme):
        # Every frequency k/n, f = 0 and f = 1 included, and for JBM every
        # f < 1/4, whose pre-root value is negative.
        labels = ZZ if scheme is Scheme.LZM else BELL
        for n in (1, 7, 1000):
            for k in range(n + 1):
                # labels[0] is an estimator label of every scheme, labels[1] of none.
                counts = OutcomeCounts(labels, dict(zip(labels, (k, n - k, 0, 0))), n)
                expected = min(1.0, max(0.0, raw_inversion(scheme, counts)))
                assert path_value(scheme, counts) == expected

    def test_perfect_counts_invert_exactly(self):
        for scheme in Scheme:
            for w in (0.0, 0.25, 0.6, 1.0):
                counts = expected_counts(scheme_distribution(scheme, w), 100000)
                assert abs(path_value(scheme, counts) - w) < 1e-12


class TestInversionIsMaximumLikelihood:
    """The closed-form inversions maximize the multinomial likelihood on [0, 1]."""

    @staticmethod
    def _loglik(scheme, counts, w):
        probs = scheme_distribution(scheme, w).as_dict()
        acc = 0.0
        for label, n in counts.counts.items():
            if n == 0:
                continue
            if probs[label] <= 0.0:
                return -math.inf
            acc += n * math.log(probs[label])
        return acc

    @pytest.mark.parametrize(
        "scheme,labels", [(Scheme.LZM, ZZ), (Scheme.JBM, BELL), (Scheme.PEM, BELL)]
    )
    def test_grid_argmax(self, scheme, labels):
        rng = np.random.default_rng(321)
        grid = np.linspace(0.0, 1.0, 1001)
        for _ in range(20):
            raw = rng.integers(1, 300, size=4)
            counts = OutcomeCounts(labels, dict(zip(labels, map(int, raw))), int(raw.sum()))
            at_estimate = self._loglik(scheme, counts, path_value(scheme, counts))
            best_on_grid = max(self._loglik(scheme, counts, g) for g in grid)
            assert at_estimate >= best_on_grid - 1e-9


class TestSolvePlan:
    def _exact_counts(self, plan, params, n=10000):
        return [expected_counts(task_distribution(t, params), n) for t in plan.tasks]

    @pytest.mark.parametrize("kind", ["JBM2", "JBM3", "HYB2", "HYB3"])
    def test_exact_recovery(self, kind):
        params = {"e0": 0.9, "e1": 0.8, "e2": 0.7}
        graph = build_star(3, [params[f"e{i}"] for i in range(3)])
        plan = builtin_plan(kind, graph)
        solved = solve_plan(plan, self._exact_counts(plan, params))
        assert not solved.unidentifiable
        for lid, w in params.items():
            assert abs(solved.values[lid] - w) < 1e-12

    def test_dead_link_propagation(self):
        params = {"e0": 0.0, "e1": 0.8, "e2": 0.7}
        graph = build_star(3, [0.0, 0.8, 0.7])
        plan = builtin_plan("HYB3", graph)
        solved = solve_plan(plan, self._exact_counts(plan, params))
        assert solved.values["e0"] == 0.0
        assert solved.unidentifiable == frozenset({"e1", "e2"})
        assert "e1" not in solved.values and "e2" not in solved.values

    def test_counts_length_mismatch(self):
        graph = build_star(3, [0.9, 0.8, 0.7])
        plan = builtin_plan("JBM3", graph)
        with pytest.raises(ValueError, match="expected counts"):
            solve_plan(plan, self._exact_counts(plan, graph.params())[:2])

    def test_indirect_first_is_not_solvable(self):
        task = MeasurementTask(Scheme.PEM, Path(("e0", "e1"), ("v2", "v1")))
        plan = MonitoringPlan("bad-order", (task,))
        dist = scheme_distribution(Scheme.PEM, 0.72)
        with pytest.raises(ValueError, match="not solvable"):
            solve_plan(plan, [expected_counts(dist, 1000)])

    def test_counts_of_another_scheme_are_rejected(self):
        graph = build_star(3, [0.9, 0.8, 0.7])
        plan = builtin_plan("HYB3", graph)
        counts = self._exact_counts(plan, graph.params())
        lzm = next(i for i, task in enumerate(plan.tasks) if task.scheme is Scheme.LZM)
        counts[lzm] = bell_counts(700, 100)
        with pytest.raises(ValueError, match=rf"task {lzm} \(LZM\) needs counts over"):
            solve_plan(plan, counts)

    def test_redundant_task_is_skipped(self):
        direct = MeasurementTask(Scheme.PEM, Path(("e0",), ("v0", "v1")))
        plan = MonitoringPlan("twice", (direct, direct))
        first = expected_counts(scheme_distribution(Scheme.PEM, 0.9), 1000)
        second = expected_counts(scheme_distribution(Scheme.PEM, 0.3), 1000)
        solved = solve_plan(plan, [first, second])
        assert abs(solved.values["e0"] - 0.9) < 1e-12


def _single_link_plan(scheme):
    return MonitoringPlan(scheme.value, (MeasurementTask(scheme, Path(("e0",), ("a", "b"))),))


def _all_plans():
    """The seven benchmark plans: three single-link plans and four star plans."""
    plans = [_single_link_plan(scheme) for scheme in Scheme]
    graph = build_star(3, [0.9, 0.8, 0.7])
    return plans + [builtin_plan(kind, graph) for kind in ("JBM2", "JBM3", "HYB2", "HYB3")]


def _chained_plan():
    """e2 is divided by e1, itself divided by e0: a withheld e1 is a nan divisor."""
    return MonitoringPlan(
        "chain",
        (
            MeasurementTask(Scheme.PEM, Path(("e0",), ("v0", "c"))),
            MeasurementTask(Scheme.LZM, Path(("e0", "e1"), ("v0", "v1"))),
            MeasurementTask(Scheme.JBM, Path(("e1", "e2"), ("v1", "v2"))),
        ),
    )


def _batched(plan, counts, total):
    steps = _plan_steps(plan)
    return _solve_steps(plan, steps, _round_frequencies(plan, steps, counts, total))


def _reference_solve(plan, counts_by_task):
    """The sequential algorithm one round at a time, with Python floats."""
    values, dead = {}, set()
    for task, counts in zip(plan.tasks, counts_by_task):
        new = [l for l in task.path.link_ids if l not in values and l not in dead]
        if not new:
            continue
        (target,) = new
        others = [l for l in task.path.link_ids if l != target]
        divisor = math.prod(values.get(l, math.nan) for l in others)
        if math.isnan(divisor) or abs(divisor) <= 1e-6:
            dead.add(target)
        else:
            estimate = min(1.0, max(0.0, raw_inversion(task.scheme, counts)))
            values[target] = min(1.0, max(0.0, estimate / divisor))
    return values, dead


def _per_round(plan, counts, total):
    """solve_plan on each round's counts, checked against the reference."""
    solved = []
    for row in counts:
        per_task = [
            OutcomeCounts(labels, dict(zip(labels, map(int, c))), total)
            for labels, c in zip((SCHEMES[task.scheme].labels for task in plan.tasks), row)
        ]
        solved.append(solve_plan(plan, per_task))
        assert (solved[-1].values, solved[-1].unidentifiable) == _reference_solve(plan, per_task)
    return solved


def _assert_same(batched, per_round):
    """Each round's batched column entries equal solve_plan's, nan where withheld."""
    for r, solved in enumerate(per_round):
        assert set(solved.values) | solved.unidentifiable == set(batched)
        for lid, column in batched.items():
            if lid in solved.unidentifiable:
                assert math.isnan(column[r])
            else:
                assert column[r] == solved.values[lid]


class TestBatchedSolve:
    """All rounds solved as arrays equal per-round solve_plan, bit for bit."""

    @pytest.mark.parametrize("plan", _all_plans() + [_chained_plan()], ids=lambda plan: plan.name)
    def test_matches_solve_plan_on_random_counts(self, plan):
        rng = np.random.default_rng(len(plan.tasks) * 10 + len(plan.name))
        total, rounds = 6, 400
        # Dirichlet outcome weights over few samples: zero and one frequencies,
        # dead divisors, clamped estimates and negative pre-root values abound.
        counts = np.stack(
            [
                [rng.multinomial(total, rng.dirichlet(np.full(4, 0.5))) for _ in plan.tasks]
                for _ in range(rounds)
            ]
        )
        per_round = _per_round(plan, counts, total)
        _assert_same(_batched(plan, counts, total), per_round)
        dead = sum(len(solved.unidentifiable) for solved in per_round)
        clamped = sum(v in (0.0, 1.0) for solved in per_round for v in solved.values.values())
        assert clamped > 0
        if any(others for _, _, others in _plan_steps(plan)):
            assert dead > 0

    def test_negative_jbm_pre_root_and_clamping_at_one(self):
        plan = builtin_plan("JBM2", build_star(3, [0.9, 0.8, 0.7]))
        # Round 0: phi+ below 1/4 on e0, so its pre-root value is negative, e0
        # reads 0 and e2 (divided by e0) is withheld.  Round 1: the (e0, e2)
        # path estimate exceeds e0's, so e2 clamps at 1.
        counts = np.array(
            [
                [[0, 4, 4, 4], [9, 1, 1, 1], [12, 0, 0, 0]],
                [[9, 1, 1, 1], [9, 1, 1, 1], [12, 0, 0, 0]],
            ]
        )
        per_round = _per_round(plan, counts, 12)
        assert per_round[0].values["e0"] == 0.0 and per_round[0].unidentifiable == {"e2"}
        assert per_round[1].values["e2"] == 1.0 and not per_round[1].unidentifiable
        _assert_same(_batched(plan, counts, 12), per_round)

    def test_dead_divisor_at_w0_zero(self):
        params = {"e0": 0.0, "e1": 0.5, "e2": 0.5}
        plan = builtin_plan("HYB3", build_star(3, [0.0, 0.5, 0.5]))
        dists = [task_distribution(task, params) for task in plan.tasks]
        counts = np.array(
            [
                [
                    [sample_outcomes(d, 100, derive_seed(5, r, t)).counts[label] for label in d.labels]
                    for t, d in enumerate(dists)
                ]
                for r in range(30)
            ]
        )
        per_round = _per_round(plan, counts, 100)
        assert any(solved.unidentifiable for solved in per_round)
        _assert_same(_batched(plan, counts, 100), per_round)


class TestBenchmark:
    def _single_link_plan(self):
        return MonitoringPlan(
            "PEM-direct", (MeasurementTask(Scheme.PEM, Path(("e0",), ("a", "b"))),)
        )

    def test_deterministic_given_seed(self):
        plan = self._single_link_plan()
        a = benchmark_variance(plan, {"e0": 0.6}, 2000, 20, seed=9)
        b = benchmark_variance(plan, {"e0": 0.6}, 2000, 20, seed=9)
        assert a == b

    def test_stream_guard_catches_a_seeding_mismatch(self, monkeypatch):
        # A wrong SeedSequence constant stands in for a NumPy that hashes differently.
        monkeypatch.setattr(estimators, "_INIT_A", estimators._INIT_A ^ 1)
        with pytest.raises(RuntimeError, match=f"NumPy {np.__version__} seeds PCG64"):
            benchmark_variance(self._single_link_plan(), {"e0": 0.6}, 100, 5, seed=9)

    def test_seed_changes_the_variance(self):
        plan = self._single_link_plan()
        a = benchmark_variance(plan, {"e0": 0.6}, 2000, 20, seed=9)
        b = benchmark_variance(plan, {"e0": 0.6}, 2000, 20, seed=10)
        assert a[0].variance != b[0].variance

    def test_single_link_ratio_near_one(self):
        plan = self._single_link_plan()
        (row,) = benchmark_variance(plan, {"e0": 0.6}, 20000, 100, seed=17)
        assert row.link == "e0"
        assert abs(row.true_w - 0.6) < 1e-15
        assert abs(row.crb - (1.0 / 20000) / (3.0 / (2.8 * 0.4))) < 1e-12
        assert 0.7 < row.ratio < 1.4

    def test_star_plan_rows(self):
        graph = build_star(3, [0.9, 0.8, 0.7])
        plan = builtin_plan("JBM3", graph)
        rows = benchmark_variance(plan, graph.params(), 20000, 100, seed=17)
        assert tuple(r.link for r in rows) == ("e0", "e1", "e2")
        for row in rows:
            assert 0.5 < row.ratio < 1.6

    def test_parameter_keys_must_match_the_plan_links(self):
        only_e0 = MonitoringPlan(
            "only-e0", (MeasurementTask(Scheme.JBM, Path(("e0",), ("v0", "v1"))),)
        )
        with pytest.raises(ValueError, match=r"missing \[\], extra \['e1', 'e2'\]"):
            benchmark_variance(only_e0, {"e0": 0.9, "e1": 0.8, "e2": 0.7}, 1000, 5, seed=3)
        hyb3 = builtin_plan("HYB3", build_star(3, [0.9, 0.8, 0.7]))
        with pytest.raises(ValueError, match=r"missing \['e2'\], extra \[\]"):
            benchmark_variance(hyb3, {"e0": 0.9, "e1": 0.8}, 1000, 5, seed=3)
        with pytest.raises(ValueError, match=r"missing \[\], extra \['e9'\]"):
            benchmark_variance(hyb3, {"e0": 0.9, "e1": 0.8, "e2": 0.7, "e9": 0.5}, 1000, 5, seed=3)

    def test_parameters_must_be_single_numbers(self, monkeypatch):
        plan = builtin_plan("JBM3", build_star(3, [0.9, 0.8, 0.7]))
        params = {"e0": 0.6, "e1": 0.8, "e2": 0.7}
        rows = benchmark_variance(plan, params, 100, 5, seed=1)
        for same in (np.array(0.6), np.float64(0.6)):
            assert benchmark_variance(plan, {**params, "e0": same}, 100, 5, seed=1) == rows

        def no_sampling(*args):
            raise AssertionError("sampled before the parameters were checked")

        monkeypatch.setattr(estimators, "_sample_rounds", no_sampling)
        for bad in (np.array([0.5, 0.6]), [0.5], "0.5", np.array("0.5"), 0.5 + 0j, None):
            with pytest.raises(ValueError, match=r"true_params\['e0'\] must be one real number"):
                benchmark_variance(plan, {**params, "e0": bad}, 100, 5, seed=1)

    @pytest.mark.parametrize("plan", _all_plans(), ids=lambda plan: plan.name)
    def test_matches_the_per_round_reference(self, plan, monkeypatch):
        params = {"e0": 0.9, "e1": 0.6, "e2": 0.0}
        params = {lid: params[lid] for lid in plan.covered_links()}
        n, rounds, seed = 50, 12, 2**64 + 1
        dists = [task_distribution(task, params) for task in plan.tasks]
        estimates = np.full((rounds, 3), np.nan)
        for r in range(rounds):
            counts = [sample_outcomes(d, n, derive_seed(seed, r, t)) for t, d in enumerate(dists)]
            for lid, value in solve_plan(plan, counts).values.items():
                estimates[r, int(lid[1])] = value
        rows = benchmark_variance(plan, params, n, rounds, seed)
        for k, row in enumerate(rows):
            variance = float(np.var(estimates[:, k], ddof=1))
            assert row.variance == variance or (math.isnan(row.variance) and math.isnan(variance))
            assert row.unidentifiable_rounds == int(np.isnan(estimates[:, k]).sum())
        # Blocks of rounds are seeded from their own round indices.
        monkeypatch.setattr(estimators, "ROUND_BLOCK", 5)
        assert repr(benchmark_variance(plan, params, n, rounds, seed)) == repr(rows)

    def test_smallest_accepted_run(self):
        # One sample per task and two rounds are the least the checks allow.
        plan = self._single_link_plan()
        rows = benchmark_variance(plan, {"e0": 0.6}, 1, 2, seed=0)
        assert rows == benchmark_variance(plan, {"e0": 0.6}, 1, 2, seed=0)
        (row,) = rows
        assert row.link == "e0" and row.crb == 1.0 / (3.0 / (2.8 * 0.4))
        assert row.unidentifiable_rounds == 0 and math.isfinite(row.variance)

    def test_parameter_validation(self):
        plan = self._single_link_plan()
        with pytest.raises(ValueError, match="at least 2 rounds"):
            benchmark_variance(plan, {"e0": 0.6}, 100, 1, seed=1)
        with pytest.raises(ValueError, match="at least 1 sample"):
            benchmark_variance(plan, {"e0": 0.6}, 0, 5, seed=1)
        with pytest.raises(ValueError, match="outside"):
            benchmark_variance(plan, {"e0": 1.5}, 100, 5, seed=1)


class TestSampling:
    def test_deterministic_given_seed(self):
        dist = scheme_distribution(Scheme.PEM, 0.6)
        a = sample_outcomes(dist, 10000, seed=42)
        b = sample_outcomes(dist, 10000, seed=42)
        assert a.counts == b.counts
        assert a.seed == 42

    def test_different_seeds_differ(self):
        dist = scheme_distribution(Scheme.PEM, 0.6)
        a = sample_outcomes(dist, 10000, seed=1)
        b = sample_outcomes(dist, 10000, seed=2)
        assert a.counts != b.counts

    def test_counts_total(self):
        counts = sample_outcomes(scheme_distribution(Scheme.LZM, 0.3), 987, seed=7)
        assert counts.total == 987
        assert sum(counts.counts.values()) == 987

    def test_law_of_large_numbers(self):
        # 3-sigma band per outcome at n = 1e6
        n = 1_000_000
        dist = scheme_distribution(Scheme.JBM, 0.5)
        counts = sample_outcomes(dist, n, seed=2024)
        for label, p in dist.as_dict().items():
            sigma = np.sqrt(p * (1 - p) / n)
            assert abs(counts.frequency(label) - p) < 3 * sigma + 1e-9

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            sample_outcomes(scheme_distribution(Scheme.LZM, 0.5), 0, seed=1)

    def test_degenerate_distribution(self):
        counts = sample_outcomes(scheme_distribution(Scheme.JBM, 1.0), 500, seed=3)
        assert counts.counts["phi+"] == 500


class TestDerivedSeeds:
    def test_stable(self):
        assert derive_seed(12345, 0, 1) == derive_seed(12345, 0, 1)

    def test_index_sensitivity(self):
        base = 12345
        seen = {derive_seed(base, r, t) for r in range(5) for t in range(3)}
        assert len(seen) == 15

    def test_base_sensitivity(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
_dist = scheme_distribution


# Seeds of 1 to 6 uint32 words, the word boundaries among them.
_SEEDS = st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6).map(
    lambda words: sum(w << (32 * i) for i, w in enumerate(words))
)
_DISTS = st.lists(
    st.builds(scheme_distribution, st.sampled_from(list(Scheme)), unit), min_size=1, max_size=4
)


def _batched_states(children):
    """Whole PCG64 states seeded from the batch's seed words of each child."""
    words = np.stack(_pcg64_seed_words(np.asarray(children, dtype=np.uint64)), axis=-1)
    seed_words = estimators._seed_words_type()
    return [np.random.PCG64(seed_words(row)).state for row in words]


class TestBatchedStreams:
    """The batched sampler draws exactly the streams ``sample_outcomes`` draws.

    Stream (r, t) is ``PCG64(derive_seed(seed, r, t))`` with one multinomial
    call; each stage of the batch is checked against NumPy on its own.
    """

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=_SEEDS,
        start=st.integers(0, 5000),
        rounds=st.integers(1, 40),
        dists=_DISTS,
        n=st.integers(1, 60),
    )
    @example(seed=0, start=0, rounds=3, dists=[_dist(Scheme.PEM, 0.6)], n=5)
    @example(seed=0, start=0, rounds=3, dists=[_dist(Scheme.JBM, 0.6)] * 2, n=1)
    @example(seed=2**32 - 1, start=0, rounds=2, dists=[_dist(Scheme.LZM, 0.3)] * 2, n=7)
    @example(seed=2**32, start=1, rounds=2, dists=[_dist(Scheme.JBM, 1.0)], n=9)
    @example(seed=2**64 + 1, start=0, rounds=4, dists=[_dist(Scheme.PEM, 0.0)] * 3, n=11)
    @example(seed=2**130 + 12345, start=7, rounds=3, dists=[_dist(Scheme.LZM, 1.0)] * 4, n=13)
    def test_every_stage_matches_the_single_stream_path(self, seed, start, rounds, dists, n):
        block = range(start, start + rounds)
        children = _stream_seeds(seed, block, len(dists))
        expected = [[derive_seed(seed, r, t) for t in range(len(dists))] for r in block]
        assert children.tolist() == expected
        flat = [child for row in expected for child in row]
        assert _batched_states(flat) == [np.random.PCG64(child).state for child in flat]
        counts = _sample_rounds(dists, n, seed, block)
        assert counts.dtype == np.int64 and counts.shape == (rounds, len(dists), 4)
        for i, r in enumerate(block):
            for t, dist in enumerate(dists):
                single = sample_outcomes(dist, n, derive_seed(seed, r, t))
                assert counts[i, t].tolist() == [single.counts[label] for label in dist.labels]

    def test_pcg64_states_of_edge_children(self):
        children = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
        assert _batched_states(children) == [np.random.PCG64(c).state for c in children]

    def test_seed_words_hand_out_only_four_uint64_words(self):
        from numpy.random.bit_generator import ISeedSequence

        seed_words = estimators._seed_words_type()
        assert seed_words is estimators._seed_words_type()
        assert issubclass(seed_words, ISeedSequence)
        words = np.arange(4, dtype=np.uint64)
        assert seed_words(words).generate_state(4, np.uint64) is words
        assert seed_words(words).generate_state(4, "u8") is words
        wrong = [(1, np.uint64), (2, np.uint64), (8, np.uint64), (8, np.uint32)]
        wrong += [(4, np.uint32), (4, np.int64), (4, float)]
        for n_words, dtype in wrong:
            with pytest.raises(ValueError, match="4 uint64 words"):
                seed_words(words).generate_state(n_words, dtype)
        # The interface's default dtype is uint32, which the words are not.
        with pytest.raises(ValueError, match="4 uint64 words"):
            seed_words(words).generate_state(4)

    def test_importing_the_cli_leaves_numpy_random_unloaded(self):
        # Only sampling needs numpy.random; every other command skips its import.
        code = "import sys, qnetomo.cli\nprint('numpy.random' in sys.modules)"
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            check=True,
            timeout=60,
        )
        assert result.stdout.split() == ["False"]

    def test_rejects_what_the_batch_cannot_seed(self):
        dists = [scheme_distribution(Scheme.PEM, 0.5)]
        with pytest.raises(ValueError, match="at least 1"):
            _sample_rounds(dists, 0, 1, range(2))
        with pytest.raises(ValueError, match="non-negative"):
            _sample_rounds(dists, 5, -1, range(2))
        with pytest.raises(ValueError, match="below 2"):
            _sample_rounds(dists, 5, 1, range(2**32 - 1, 2**32 + 1))


class TestOutcomeCounts:
    def test_frequency(self):
        counts = OutcomeCounts(("a", "b"), {"a": 30, "b": 70}, 100)
        assert abs(counts.frequency("b") - 0.7) < 1e-15

    def test_real_valued_counts_allowed(self):
        counts = OutcomeCounts(("a", "b"), {"a": 7.35, "b": 3.15}, 10.5)
        assert abs(counts.frequency("a") - 0.7) < 1e-15
        assert counts.seed is None

    def test_label_cover(self):
        with pytest.raises(ValueError, match="cover"):
            OutcomeCounts(("a", "b"), {"a": 100}, 100)

    @pytest.mark.parametrize(
        "labels,counts,total,match",
        [
            (("a", "b"), {"a": 120, "b": -20}, 100, "non-negative"),
            (("a", "b"), {"a": float("nan"), "b": 0}, 100, "finite"),
            (("a", "b"), {"a": float("inf"), "b": 0}, float("inf"), "finite"),
            (("a", "a"), {"a": 10}, 10, "unique"),
            (("a", "b"), {"a": 0, "b": 0}, float("nan"), "positive"),
            (("a", "b"), {"a": 0, "b": 0}, 0, "total must be positive"),
            (
                ("phi+", "phi-", "psi+", "psi-"),
                {"phi+": 1200, "phi-": -100, "psi+": -50, "psi-": -50},
                1000,
                "non-negative",
            ),
        ],
        ids=[
            "negative",
            "nan",
            "infinite",
            "duplicate-labels",
            "nan-total",
            "zero-total",
            "bell-negative",
        ],
    )
    def test_impossible_counts_are_rejected(self, labels, counts, total, match):
        with pytest.raises(ValueError, match=match):
            OutcomeCounts(labels, counts, total)

    def test_total_consistency(self):
        with pytest.raises(ValueError, match="sum"):
            OutcomeCounts(("a", "b"), {"a": 30, "b": 60}, 100)
