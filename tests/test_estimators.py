"""Tests for distribution inversion, sequential plan solving, and benchmarking."""

import math

import numpy as np
import pytest

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
from qnetomo import estimators, schemes
from qnetomo.estimators import _round_frequencies, _solve_steps
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


def raw_inversion(scheme, counts):
    """The scheme's inversion of its estimator frequency, before clamping."""
    spec = SCHEMES[scheme]
    return float(spec.inverse(sum(counts.counts[l] for l in spec.estimator_labels) / counts.total))


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
        monkeypatch.setattr(schemes, "_INIT_A", schemes._INIT_A ^ 1)
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

    def test_parameter_validation(self):
        plan = self._single_link_plan()
        with pytest.raises(ValueError, match="at least 2 rounds"):
            benchmark_variance(plan, {"e0": 0.6}, 100, 1, seed=1)
        with pytest.raises(ValueError, match="at least 1 sample"):
            benchmark_variance(plan, {"e0": 0.6}, 0, 5, seed=1)
        with pytest.raises(ValueError, match="outside"):
            benchmark_variance(plan, {"e0": 1.5}, 100, 5, seed=1)
