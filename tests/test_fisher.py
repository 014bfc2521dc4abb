"""Tests for information matrices, bounds, and mode agreement."""

import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnetomo import (
    FisherMatrix,
    FisherMode,
    MeasurementTask,
    MonitoringPlan,
    Path,
    Scheme,
    build_star,
    builtin_plan,
    channel_uses,
    crb_diagonal,
    crossover,
    plan_qfim,
    qcrb,
    single_link_fisher,
    single_link_qcrb,
    task_qfim,
    trace_path,
    werner_density,
)
from qnetomo import fisher
from qnetomo.cli import _fmt

from helpers import _chain_task, constructed, exact_solve, watched_schemes

interior = st.floats(min_value=0.05, max_value=0.95, allow_nan=False)

CLOSED = FisherMode.CLOSED_FORM
FIRST = FisherMode.FIRST_PRINCIPLES


class TestSingleLinkScalars:
    def test_lzm_first_principles(self):
        # 1 / (1 - w^2)
        assert abs(single_link_fisher(Scheme.LZM, 0.5, FIRST) - 4.0 / 3.0) < 1e-12

    def test_lzm_closed_form_is_twice_first_principles(self):
        for w in np.linspace(0.05, 0.95, 19):
            closed = single_link_fisher(Scheme.LZM, w, CLOSED)
            first = single_link_fisher(Scheme.LZM, w, FIRST)
            assert abs(closed / first - 2.0) < 1e-12

    def test_jbm_both_modes(self):
        # 12 w^2 / ((1 + 3 w^2)(1 - w^2))
        expected = 12 * 0.25 / (1.75 * 0.75)
        assert abs(single_link_fisher(Scheme.JBM, 0.5, CLOSED) - expected) < 1e-12
        assert abs(single_link_fisher(Scheme.JBM, 0.5, FIRST) - expected) < 1e-12

    def test_pem_both_modes(self):
        # 3 / ((1 + 3 w)(1 - w))
        expected = 3 / (2.8 * 0.4)
        assert abs(single_link_fisher(Scheme.PEM, 0.6, CLOSED) - expected) < 1e-12
        assert abs(single_link_fisher(Scheme.PEM, 0.6, FIRST) - expected) < 1e-12

    def test_values_at_zero(self):
        assert abs(single_link_fisher(Scheme.LZM, 0.0, FIRST) - 1.0) < 1e-12
        assert single_link_fisher(Scheme.JBM, 0.0, FIRST) == 0.0
        assert abs(single_link_fisher(Scheme.PEM, 0.0, FIRST) - 3.0) < 1e-12

    def test_divergence_at_one(self):
        for scheme in Scheme:
            assert math.isinf(single_link_fisher(scheme, 1.0, FIRST))
            assert math.isinf(single_link_fisher(scheme, 1.0, CLOSED))

    def test_normalization_halves_jbm_only(self):
        for scheme, factor in ((Scheme.LZM, 1), (Scheme.JBM, 2), (Scheme.PEM, 1)):
            raw = single_link_fisher(scheme, 0.5, FIRST)
            per_use = single_link_fisher(scheme, 0.5, FIRST, normalize=True)
            assert abs(per_use * factor - raw) < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError, match=r"^w=1.2 outside \[0, 1\]$"):
            single_link_fisher(Scheme.LZM, 1.2, FIRST)
        with pytest.raises(ValueError, match="^w must be a float or a 1-D array$"):
            single_link_fisher(Scheme.LZM, np.full((2, 2), 0.5), FIRST)

    def test_a_range_error_names_the_first_bad_value(self):
        # Not the whole list: the oracle's rule, first value outside.
        ws = [0.5] * 100000 + [1.5]
        for function in (single_link_fisher, single_link_qcrb):
            with pytest.raises(ValueError) as info:
                function(Scheme.LZM, ws, FIRST)
            assert str(info.value) == "w=1.5 outside [0, 1]"
        with pytest.raises(ValueError) as oracle:
            werner_density(ws)
        assert str(oracle.value) == str(info.value) and len(str(info.value)) < 100
        with pytest.raises(ValueError, match=r"^w=-1.0 outside \[0, 1\]$"):
            single_link_fisher(Scheme.PEM, [0.5, -1.0, 1.5], CLOSED)
        graph = build_star(3, [0.5, 0.5, 0.5])
        params = {"e0": np.array(ws), "e1": 0.5, "e2": 0.5}
        with pytest.raises(ValueError, match=r"^parameter for link 'e0'=1.5 outside \[0, 1\]$"):
            plan_qfim(builtin_plan("JBM3", graph), params, FIRST)

    def test_qcrb_reciprocal(self):
        info = single_link_fisher(Scheme.PEM, 0.6, FIRST)
        assert abs(single_link_qcrb(Scheme.PEM, 0.6, FIRST) * info - 1.0) < 1e-12

    def test_qcrb_edge_cases(self):
        assert math.isinf(single_link_qcrb(Scheme.JBM, 0.0, FIRST))
        assert single_link_qcrb(Scheme.PEM, 1.0, FIRST) == 0.0
        assert abs(single_link_qcrb(Scheme.PEM, 0.0, FIRST) - 1.0 / 3.0) < 1e-12


# Float links below W = 1: single links from 0 to the last float below 1, and
# 2- and 3-link paths with links at 0 and 1 among them.
BELOW_ONE = [[w] for w in (0.0, 1e-300, 0.01, 0.37, 0.5, 0.99, 1.0 - 2.0**-53)] + [
    [0.3, 0.9],
    [1.0, 0.5],
    [0.0, 1.0],
    [0.2, 0.5, 0.8],
    [1.0, 1.0, 0.999],
    [0.9999999, 1.0, 0.9999999],
]


@pytest.mark.parametrize("mode", [CLOSED, FIRST])
@pytest.mark.parametrize("scheme", list(Scheme))
def test_rank_one_on_float_links_is_the_array_rule(scheme, mode):
    # At W = 1 the guard gives +inf for floats too, not a ZeroDivisionError.
    for n in (1, 2, 3):
        assert fisher._rank_one(scheme, [1.0] * n, mode) == math.inf
    for ws in BELOW_ONE:
        by_float = float(fisher._rank_one(scheme, ws, mode))
        by_array = fisher._rank_one(scheme, [np.array([w]) for w in ws], mode)
        assert math.isfinite(by_float) and by_float.hex() == float(by_array[0]).hex()


# validate's mode-consistency points: 1-, 2- and 3-link chains.
ROW_GRIDS = [
    [[0.05 + 0.1 * k] for k in range(10)],
    [[a, b] for a in (0.1, 0.3, 0.5, 0.7, 0.9) for b in (0.1, 0.3, 0.5, 0.7, 0.9)],
    [[a, b, c] for a in (0.2, 0.5, 0.8) for b in (0.2, 0.5, 0.8) for c in (0.2, 0.5, 0.8)],
]


class TestModeAgreement:
    """Closed form and first principles coincide away from the direct LZM entry."""

    @given(interior, interior)
    @settings(max_examples=40, deadline=None)
    def test_lzm_paths(self, w1, w2):
        task, params = _chain_task(Scheme.LZM, [w1, w2])
        a = task_qfim(task, params, CLOSED).entries
        b = task_qfim(task, params, FIRST).entries
        assert np.max(np.abs(a - b)) <= 1e-9 * max(1.0, np.max(np.abs(a)))

    @given(st.lists(interior, min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_jbm_paths(self, ws):
        task, params = _chain_task(Scheme.JBM, ws)
        a = task_qfim(task, params, CLOSED).entries
        b = task_qfim(task, params, FIRST).entries
        assert np.max(np.abs(a - b)) <= 1e-9 * max(1.0, np.max(np.abs(a)))

    @given(st.lists(interior, min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_pem_paths(self, ws):
        task, params = _chain_task(Scheme.PEM, ws)
        a = task_qfim(task, params, CLOSED).entries
        b = task_qfim(task, params, FIRST).entries
        assert np.max(np.abs(a - b)) <= 1e-9 * max(1.0, np.max(np.abs(a)))

    @pytest.mark.parametrize("grid", ROW_GRIDS, ids=["1-link", "2-link", "3-link"])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_task_entries_agree_within_the_row_tolerance(self, scheme, grid):
        # validate's rows compare J alone; every entry is checked here, at the
        # rows' 1e-9 relative, against exactly twice first principles on a
        # direct LZM task.
        task, params = _chain_task(scheme, grid[0])
        params = dict(zip(params, np.array(grid).T))
        closed = task_qfim(task, params, CLOSED).entries
        first = task_qfim(task, params, FIRST).entries
        if scheme is Scheme.LZM and len(grid[0]) == 1:
            first = 2.0 * first
        assert (np.abs(closed - first) <= 1e-9 * np.maximum(np.abs(closed), np.abs(first))).all()
        assert (closed > 0.0).all()


class TestTaskMatrices:
    def test_lzm_two_link_entry(self):
        task, params = _chain_task(Scheme.LZM, [0.9, 0.8])
        m = task_qfim(task, params, FIRST)
        assert m.order == ("p0", "p1")
        expected_00 = 0.8 * 0.8 / (1.0 - 0.72**2)
        assert abs(m.entries[0, 0] - expected_00) < 1e-12

    def test_path_blocks_are_rank_one(self):
        for scheme in (Scheme.LZM, Scheme.PEM, Scheme.JBM):
            task, params = _chain_task(scheme, [0.9, 0.7])
            m = task_qfim(task, params, FIRST).entries
            assert abs(np.linalg.det(m)) < 1e-10

    def test_embedding_into_a_larger_order(self):
        task, params = _chain_task(Scheme.PEM, [0.6])
        full = dict(params)
        full["z_extra"] = 0.3
        m = task_qfim(task, full, FIRST)
        assert m.order == ("p0", "z_extra")
        assert m.entries[1, 1] == 0.0 and m.entries[0, 1] == 0.0
        assert abs(m.entries[0, 0] - single_link_fisher(Scheme.PEM, 0.6, FIRST)) < 1e-12

    def test_missing_parameter_rejected(self):
        task, params = _chain_task(Scheme.LZM, [0.5, 0.5])
        del params["p1"]
        with pytest.raises(ValueError, match="missing"):
            task_qfim(task, params, FIRST)

    def test_out_of_range_parameter_rejected(self):
        task, params = _chain_task(Scheme.LZM, [0.5])
        params["p0"] = 1.5
        with pytest.raises(ValueError, match="outside"):
            task_qfim(task, params, FIRST)

    def test_infinite_entries_are_flagged_not_raised(self):
        task, params = _chain_task(Scheme.PEM, [1.0])
        m = task_qfim(task, params, FIRST)
        assert np.isinf(m.entries).any()

    @given(st.lists(interior, min_size=1, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_always_psd_and_symmetric(self, ws):
        for scheme in Scheme:
            task, params = _chain_task(scheme, ws)
            m = task_qfim(task, params, FIRST).entries
            assert np.max(np.abs(m - m.T)) < 1e-12
            assert np.linalg.eigvalsh(m)[0] > -1e-10


def _published_entry(scheme, ws, i, j):
    """One information entry as published, before any rank-one factoring."""
    product = math.prod(ws)
    g = [math.prod(ws[:k] + ws[k + 1 :]) for k in range(len(ws))]
    if scheme is Scheme.LZM:
        num, den = g[i] * g[j], (1.0 + product) * (1.0 - product)
    elif scheme is Scheme.JBM:
        sq_i = math.prod(w * w for k, w in enumerate(ws) if k != i)
        sq_j = math.prod(w * w for k, w in enumerate(ws) if k != j)
        num = 12.0 * ws[i] * ws[j] * sq_i * sq_j
        den = (1.0 + 3.0 * product * product) * (1.0 - product * product)
    else:
        num, den = 3.0 * g[i] * g[j], (1.0 + 3.0 * product) * (1.0 - product)
    return num / den if den else math.inf


class TestEdgeChains:
    """Multi-link paths with a dead link or with every link perfect."""

    @pytest.mark.parametrize("ws", [[0.0, 0.7, 0.5], [0.3, 0.0], [1.0, 1.0], [1.0, 1.0, 1.0]])
    @pytest.mark.parametrize("mode", [CLOSED, FIRST])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_entries_match_published_expressions(self, scheme, mode, ws):
        task, params = _chain_task(scheme, ws)
        m = task_qfim(task, params, mode).entries
        assert not np.isnan(m).any()
        assert np.isinf(m).any() == (math.prod(ws) == 1.0)
        for i, j in np.ndindex(m.shape):
            expected = _published_entry(scheme, ws, i, j)
            if math.isinf(expected):
                assert m[i, j] == math.inf
            else:
                assert abs(m[i, j] - expected) <= 1e-12 * abs(expected)


class TestPlanMatrices:
    def _star(self, ws):
        return build_star(3, ws)

    def test_additivity(self):
        graph = self._star([0.9, 0.8, 0.7])
        plan = builtin_plan("HYB3", graph)
        params = graph.params()
        total = plan_qfim(plan, params, FIRST).entries
        manual = sum(
            task_qfim(t, params, FIRST).entries
            for t in plan.tasks
        )
        assert np.max(np.abs(total - manual)) < 1e-12

    def test_normalization_divides_by_ledger_total(self):
        graph = self._star([0.9, 0.8, 0.7])
        plan = builtin_plan("JBM3", graph)
        params = graph.params()
        raw = plan_qfim(plan, params, FIRST)
        per_use = plan_qfim(plan, params, FIRST, normalize=True)
        ledger = channel_uses(plan)
        assert ledger.total == 6
        assert np.max(np.abs(raw.entries - per_use.entries * 6)) < 1e-12
        assert per_use.normalized and per_use.ledger == ledger
        assert raw.ledger is None

    @pytest.mark.parametrize("mode", [CLOSED, FIRST])
    def test_normalizing_a_plan_of_no_channel_use_is_an_error(self, mode):
        # The total is checked before anything is divided by it.
        empty = MonitoringPlan("none", ())
        with pytest.raises(ValueError, match="channel-use total of 0"):
            plan_qfim(empty, {"e0": 0.5}, mode, normalize=True)
        with pytest.raises(ValueError, match="channel-use total of 0"):
            fisher._plan_qcrb([empty], {"e0": 0.5}, mode, True)
        assert qcrb(plan_qfim(empty, {"e0": 0.5}, mode)) == math.inf

    def test_a_dead_hub_link_leaves_every_identifiable_bound_finite(self, monkeypatch):
        # At w0 = 0 a task through e0 informs e0 alone, LZM with J = 1 and JBM
        # with J = 0; every other link needs a task of its own.
        graph = self._star([0.0, 0.5, 0.5])
        expected = {
            "JBM2": [math.inf, 0.004375, math.inf],
            "JBM3": [math.inf, 0.004375, 0.004375],
            "HYB2": [0.04, math.inf, math.inf],
            "HYB3": [0.02, math.inf, math.inf],
        }
        monkeypatch.setattr(np, "linalg", None)
        for kind, bounds in expected.items():
            plan = builtin_plan(kind, graph)
            for mode in (CLOSED, FIRST):
                got = crb_diagonal(plan_qfim(plan, graph.params(), mode), scale=100.0)
                assert [got[lid] for lid in ("e0", "e1", "e2")] == pytest.approx(bounds, rel=1e-15)

    def test_all_builtin_plans_identifiable_in_the_interior(self):
        graph = self._star([0.9, 0.8, 0.7])
        for kind in ("JBM2", "JBM3", "HYB2", "HYB3"):
            plan = builtin_plan(kind, graph)
            value = qcrb(plan_qfim(plan, graph.params(), FIRST))
            assert math.isfinite(value) and value > 0.0


def _reference_information(scheme, ws, mode):
    """J_s(W) written out per scheme, independent of the package's scheme table."""
    w = math.prod(ws)
    if mode is CLOSED:
        if w == 1.0:
            return math.inf
        if scheme is Scheme.LZM:
            return (2.0 if len(ws) == 1 else 1.0) / ((1.0 + w) * (1.0 - w))
        if scheme is Scheme.JBM:
            return 12.0 * w * w / ((1.0 + 3.0 * w * w) * (1.0 - w * w))
        return 3.0 / ((1.0 + 3.0 * w) * (1.0 - w))
    if scheme is Scheme.LZM:
        table = [((1.0 + w) / 4.0, 0.25)] * 2 + [((1.0 - w) / 4.0, -0.25)] * 2
    elif scheme is Scheme.JBM:
        table = [((1.0 + 3.0 * w * w) / 4.0, 1.5 * w)] + [((1.0 - w * w) / 4.0, -0.5 * w)] * 3
    else:
        table = [((1.0 + 3.0 * w) / 4.0, 0.75)] + [((1.0 - w) / 4.0, -0.25)] * 3
    return sum(0.0 if d == 0.0 else (d * d / p if p > 0.0 else math.inf) for p, d in table)


def _reference_point(plan, params, mode, normalize):
    """Plan information and bounds at one point: J g g^T sums, then np.linalg.

    Coordinates with infinite information are known, bound 0.  A regular
    finite block gives the diagonal of its inverse.  In a singular one a
    coordinate in the range of the block gets its pseudo-inverse diagonal
    entry and only the others +inf (Stoica & Marzetta, IEEE TSP 49(1), 2001).
    """
    order = sorted(params)
    n = len(order)
    m = np.zeros((n, n))
    for task in plan.tasks:
        links = task.path.link_ids
        ws = [params[l] for l in links]
        info = _reference_information(task.scheme, ws, mode)
        g = [math.prod(ws[:k] + ws[k + 1 :]) for k in range(len(ws))]
        for a, la in enumerate(links):
            for b, lb in enumerate(links):
                m[order.index(la), order.index(lb)] += info * g[a] * g[b]
    if normalize:
        m /= channel_uses(plan).total
    finite = [k for k in range(n) if math.isfinite(m[k, k])]
    bounds = [0.0] * n
    sub = m[np.ix_(finite, finite)]
    if finite and np.linalg.matrix_rank(sub) < len(finite):
        pseudo = np.linalg.pinv(sub)
        for pos, k in enumerate(finite):
            unit = np.eye(len(finite))[pos]
            in_range = np.allclose(sub @ (pseudo @ unit), unit, rtol=0.0, atol=1e-9)
            bounds[k] = pseudo[pos, pos] if in_range else math.inf
    elif finite:
        inverse = np.linalg.inv(sub)
        for pos, k in enumerate(finite):
            bounds[k] = inverse[pos, pos]
    return m, bounds


def _close(actual, expected):
    if math.isinf(expected) or expected == 0.0:
        return actual == expected
    return abs(actual - expected) <= 1e-12 * abs(expected)


class TestBatchedCore:
    """One batch mixing infinite (w0 = w1 = 1), singular (w0 = 0) and ordinary rows."""

    ROWS = [
        (1.0, 1.0, 0.3),
        (0.9, 0.8, 0.7),
        (0.0, 0.5, 0.5),
        (1.0, 0.5, 0.5),
        (0.3, 0.6, 0.99),
        (1.0, 1.0, 1.0),
        (0.0, 0.9, 0.2),
        (0.5, 0.5, 0.5),
        (1.0, 1.0, 0.8),
    ]

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("mode", [CLOSED, FIRST])
    @pytest.mark.parametrize("kind", ["JBM2", "JBM3", "HYB2", "HYB3"])
    def test_matches_per_point_reference(self, kind, mode, normalize):
        plan = builtin_plan(kind, build_star(3, [0.5, 0.5, 0.5]))
        columns = np.array(self.ROWS).T
        params = {"e0": columns[0], "e1": columns[1], "e2": columns[2]}
        matrix = plan_qfim(plan, params, mode, normalize)
        assert matrix.entries.shape == (len(self.ROWS), 3, 3)
        bounds = crb_diagonal(matrix)
        total = qcrb(matrix)
        for i, row in enumerate(self.ROWS):
            point = dict(zip(("e0", "e1", "e2"), row))
            entries, expected = _reference_point(plan, point, mode, normalize)
            for a, b in np.ndindex(3, 3):
                assert _close(matrix.entries[i, a, b], entries[a, b])
            for k, lid in enumerate(("e0", "e1", "e2")):
                assert _close(bounds[lid][i], expected[k])
            assert _close(total[i], sum(expected))
            # The batch-of-one call is the same code and gives the same bits.
            assert total[i] == qcrb(plan_qfim(plan, point, mode, normalize))

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("mode", [CLOSED, FIRST])
    def test_stacked_plans_match_per_plan_calls(self, mode, normalize):
        plans = [
            builtin_plan(kind, build_star(3, [0.5, 0.5, 0.5]))
            for kind in ("JBM2", "JBM3", "HYB2", "HYB3")
        ]
        columns = np.array(self.ROWS).T
        params = {"e0": columns[0], "e1": columns[1], "e2": columns[2]}
        stacked = plan_qfim(plans, params, mode, normalize)
        assert stacked.entries.shape == (len(plans), len(self.ROWS), 3, 3)
        assert stacked.normalized is normalize
        if normalize:
            assert stacked.ledger == tuple(channel_uses(plan) for plan in plans)
        else:
            assert stacked.ledger is None
        bounds = crb_diagonal(stacked)
        total = qcrb(stacked)
        for k, plan in enumerate(plans):
            alone = plan_qfim(plan, params, mode, normalize)
            assert alone.entries.shape == (len(self.ROWS), 3, 3)
            assert alone.ledger == (channel_uses(plan) if normalize else None)
            assert np.array_equal(stacked.entries[k], alone.entries)
            for lid, column in crb_diagonal(alone).items():
                assert np.array_equal(bounds[lid][k], column)
            assert np.array_equal(total[k], qcrb(alone))

    def test_one_plan_sequence_keeps_the_stacking_axis(self):
        plan = builtin_plan("HYB3", build_star(3, [0.5, 0.5, 0.5]))
        point = {"e0": 0.9, "e1": 0.8, "e2": 0.7}
        alone = plan_qfim(plan, point, FIRST, normalize=True)
        stacked = plan_qfim([plan], point, FIRST, normalize=True)
        assert alone.entries.shape == (3, 3) and stacked.entries.shape == (1, 3, 3)
        assert np.array_equal(stacked.entries[0], alone.entries)
        assert alone.ledger == channel_uses(plan) and stacked.ledger == (alone.ledger,)
        assert isinstance(qcrb(alone), float) and qcrb(stacked).shape == (1,)
        with pytest.raises(ValueError, match="at least one plan"):
            plan_qfim([], point, FIRST)

    def test_stacked_plan_on_float_links_spans_the_batch(self):
        graph = build_star(3, [0.5, 0.5, 0.5])
        task = MeasurementTask(scheme=Scheme.JBM, path=trace_path(graph, ("e0",)))
        direct = MonitoringPlan(name="e0", tasks=(task,))
        params = {"e0": 0.9, "e1": 0.8, "e2": np.array([0.2, 0.6])}
        stacked = plan_qfim([direct, builtin_plan("HYB3", graph)], params, CLOSED)
        assert stacked.entries.shape == (2, 2, 3, 3)
        alone = plan_qfim(direct, params, CLOSED)
        # The batch comes from params, although the plan never reads e2.
        assert alone.entries.shape == (2, 3, 3)
        assert np.array_equal(stacked.entries[0], alone.entries)
        bound = qcrb(alone)
        assert isinstance(bound, np.ndarray) and bound.shape == (2,)

    def test_unread_link_must_be_float_or_1d(self):
        graph = build_star(3, [0.5, 0.5, 0.5])
        task = MeasurementTask(scheme=Scheme.JBM, path=trace_path(graph, ("e0",)))
        direct = MonitoringPlan(name="e0", tasks=(task,))
        params = {"e0": 0.9, "e1": 0.8, "e2": np.array([[0.2, 0.6]])}
        with pytest.raises(ValueError, match="'e2'"):
            plan_qfim(direct, params, CLOSED)
        with pytest.raises(ValueError, match="'e2'"):
            task_qfim(task, params, CLOSED)

    @pytest.mark.parametrize(
        "e1, e2, bad",
        [
            (1.5, np.array([-3.0, 0.5]), "'e1'=1.5"),
            (0.8, np.array([-3.0, 0.5]), "'e2'=-3.0"),
            (math.nan, 0.5, "'e1'=nan"),
            (0.8, np.array([0.5, math.nan]), "'e2'=nan"),
        ],
        ids=["e1-above-one", "e2-negative", "e1-nan", "e2-nan"],
    )
    def test_unread_link_must_lie_in_the_unit_interval(self, e1, e2, bad):
        graph = build_star(3, [0.5, 0.5, 0.5])
        task = MeasurementTask(scheme=Scheme.JBM, path=trace_path(graph, ("e0",)))
        direct = MonitoringPlan(name="e0", tasks=(task,))
        params = {"e0": 0.9, "e1": e1, "e2": e2}
        # The error names the first value outside the interval.
        message = rf"^parameter for link {bad} outside \[0, 1\]$"
        with pytest.raises(ValueError, match=message):
            plan_qfim(direct, params, CLOSED)
        with pytest.raises(ValueError, match=message):
            task_qfim(task, params, FIRST)

    @pytest.mark.parametrize("normalize", [False, True])
    def test_an_empty_batch_gives_empty_bounds(self, normalize):
        plans = [builtin_plan(kind, build_star(3, [0.5, 0.5, 0.5])) for kind in ("JBM2", "HYB3")]
        params = {"e0": [], "e1": np.array([]), "e2": 0.5}
        matrix = plan_qfim(plans, params, FIRST, normalize)
        assert matrix.entries.shape == (2, 0, 3, 3) and qcrb(matrix).shape == (2, 0)
        assert fisher._plan_qcrb(plans, params, FIRST, normalize) == [[], []]

    def test_float_and_array_parameters_mix(self):
        plan = builtin_plan("HYB3", build_star(3, [0.5, 0.5, 0.5]))
        params = {"e0": 0.99, "e1": 0.99, "e2": np.array([0.2, 0.6])}
        total = qcrb(plan_qfim(plan, params, CLOSED))
        for i, w in enumerate((0.2, 0.6)):
            single = qcrb(plan_qfim(plan, {"e0": 0.99, "e1": 0.99, "e2": w}, CLOSED))
            assert isinstance(single, float) and total[i] == single

    @pytest.mark.parametrize("mode", [CLOSED, FIRST])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_a_list_of_floats_is_the_equal_array(self, mode, normalize):
        grid = [0.0, 0.01, 0.37, 0.5, 0.99, 1.0]
        ws = np.array(grid)
        for scheme in Scheme:
            for function in (single_link_fisher, single_link_qcrb):
                by_list = function(scheme, grid, mode, normalize)
                by_array = function(scheme, ws, mode, normalize)
                assert by_list.dtype == by_array.dtype and by_list.tobytes() == by_array.tobytes()
        graph = build_star(3, [0.5, 0.5, 0.5])
        plans = [builtin_plan(kind, graph) for kind in ("JBM2", "JBM3", "HYB2", "HYB3")]
        # Homogeneous, and floats beside a list as the heterogeneous star sweep passes them.
        for by_list, by_array in [
            ({"e0": grid, "e1": grid, "e2": grid}, {"e0": ws, "e1": ws, "e2": ws}),
            ({"e0": 0.99, "e1": 1.0, "e2": grid}, {"e0": 0.99, "e1": 1.0, "e2": ws}),
        ]:
            a = plan_qfim(plans, by_list, mode, normalize)
            b = plan_qfim(plans, by_array, mode, normalize)
            assert a.entries.tobytes() == b.entries.tobytes()
            assert qcrb(a).tobytes() == qcrb(b).tobytes()

    @pytest.mark.parametrize(
        "e1", [np.array([0.5, 0.6]), np.array([[0.5, 0.6, 0.7]]), np.array([0.5, 1.2, 0.7])]
    )
    def test_bad_parameter_arrays_rejected(self, e1):
        plan = builtin_plan("JBM3", build_star(3, [0.5, 0.5, 0.5]))
        params = {"e0": np.array([0.5, 0.6, 0.7]), "e1": e1, "e2": 0.5}
        with pytest.raises(ValueError):
            plan_qfim(plan, params, CLOSED)

# Every task the 3-leaf star can run: each scheme over each 1- and 2-link path.
_STAR = build_star(3, [0.5, 0.5, 0.5])
_STAR_TASKS = [
    MeasurementTask(scheme=scheme, path=trace_path(_STAR, links))
    for scheme in Scheme
    for links in [("e0",), ("e1",), ("e2",), ("e0", "e1"), ("e0", "e2"), ("e1", "e2")]
]
# 0 and 1 put zero and infinite information, and singular members, in the stack.
_LINK_VALUES = st.one_of(st.sampled_from([0.0, 1.0]), interior)


class TestSharedBlocks:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        # Plans drawn from a pool of a few tasks, so they share most of them.
        pool=st.lists(st.sampled_from(_STAR_TASKS), min_size=1, max_size=4, unique=True),
        picks=st.lists(
            st.lists(st.integers(0, 3), min_size=1, max_size=4), min_size=1, max_size=4
        ),
        rows=st.lists(st.tuples(_LINK_VALUES, _LINK_VALUES, _LINK_VALUES), min_size=1, max_size=5),
        mode=st.sampled_from([CLOSED, FIRST]),
        normalize=st.booleans(),
    )
    def test_stack_matches_per_plan_and_per_point_calls(self, pool, picks, rows, mode, normalize):
        plans = [
            MonitoringPlan(name=f"p{k}", tasks=tuple(pool[i % len(pool)] for i in pick))
            for k, pick in enumerate(picks)
        ]
        columns = np.array(rows).T
        params = {"e0": columns[0], "e1": columns[1], "e2": columns[2]}
        stacked = plan_qfim(plans, params, mode, normalize)
        bounds, total = crb_diagonal(stacked), qcrb(stacked)
        for k, plan in enumerate(plans):
            alone = plan_qfim(plan, params, mode, normalize)
            assert np.array_equal(stacked.entries[k], alone.entries)
            alone_bounds = crb_diagonal(alone)
            for lid in ("e0", "e1", "e2"):
                assert np.array_equal(bounds[lid][k], alone_bounds[lid])
            assert np.array_equal(total[k], qcrb(alone))
            for i, row in enumerate(rows):
                values = dict(zip(("e0", "e1", "e2"), row))
                point = plan_qfim(plan, values, mode, normalize)
                assert np.array_equal(stacked.entries[k, i], point.entries)
                point_bounds = crb_diagonal(point)
                _, expected = _reference_point(plan, values, mode, normalize)
                for j, lid in enumerate(("e0", "e1", "e2")):
                    assert np.array_equal(bounds[lid][k, i], point_bounds[lid])
                    assert _close(point_bounds[lid], expected[j])
                assert np.array_equal(total[k, i], qcrb(point))


@st.composite
def _tree_plans(draw):
    """A square plan over a tree of 2-12 links, named p0, p1, ... in shuffled order.

    Link k hangs below an earlier link, and task k measures a path from one
    of its ancestors down to it, so each task introduces link k alone.  The
    names are shuffled, so with 10 or more links the sorted parameter order
    ("p10" before "p2") differs from the solve order.
    """
    m = draw(st.one_of(st.integers(2, 9), st.integers(10, 12)))
    names = [f"p{k}" for k in draw(st.permutations(range(m)))]
    parent = [None] + [draw(st.integers(0, k - 1)) for k in range(1, m)]
    tasks = []
    for k in range(m):
        chain = [k]
        for _ in range(draw(st.integers(0, 3))):
            if parent[chain[-1]] is not None:
                chain.append(parent[chain[-1]])
        ids = tuple(names[c] for c in reversed(chain))
        tasks.append(MeasurementTask(draw(st.sampled_from(list(Scheme))), Path(ids, ("a", "b"))))
    return MonitoringPlan(name="tree", tasks=tuple(tasks))


@st.composite
def _tree_points(draw):
    """A tree plan and 1-4 points: links in [0.5, 0.95], at most three of them at 0 or 1."""
    plan = draw(_tree_plans())
    names = [t.path.link_ids[-1] for t in plan.tasks]
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        row = draw(st.lists(st.floats(0.5, 0.95), min_size=len(names), max_size=len(names)))
        for k in draw(st.sets(st.integers(0, len(names) - 1), max_size=3)):
            row[k] = draw(st.sampled_from([0.0, 1.0]))
        rows.append(row)
    columns = np.array(rows).T
    return plan, {lid: columns[k] for k, lid in enumerate(names)}, rows


def _epsilon_limit(block):
    """e_i^T (F + eps I)^-1 e_i as eps -> 0, Richardson-extrapolated, and +inf
    where it grows like 1/eps (e_i outside the range of F)."""
    largest = np.linalg.eigvalsh(block)[-1]
    eps = 1e-7 * (largest if largest > 0.0 else 1.0)
    coarse, fine = (np.diag(np.linalg.inv(block + e * np.eye(len(block)))) for e in (eps, eps / 2))
    return np.where(fine / coarse > 1.5, math.inf, 2.0 * fine - coarse)


def _check_against_references(matrix, member):
    """One plan-built member against references that do not use its route.

    Known coordinates (+inf diagonal) have bound 0.  A regular finite block
    gives the inverse of the information, to within its condition number; a
    singular one the eps-limit, with +inf exactly where that grows like 1/eps.
    """
    bounds = matrix.bounds[member]
    entries = matrix.entries[member]
    finite = np.isfinite(np.diagonal(entries))
    assert (bounds[~finite] == 0.0).all()
    if not finite.any():
        return
    block = entries[np.ix_(finite, finite)]
    if np.linalg.matrix_rank(block) == len(block):
        expected = np.diag(np.linalg.inv(block))
        rtol = 4.0 * np.finfo(float).eps * np.linalg.cond(block)
        np.testing.assert_allclose(bounds[finite], expected, rtol=rtol, atol=0.0)
        assert not np.isinf(bounds).any(-1)
        return
    expected = _epsilon_limit(block)
    assert np.array_equal(np.isinf(bounds[finite]), np.isinf(expected))
    settled = np.isfinite(expected)
    np.testing.assert_allclose(bounds[finite][settled], expected[settled], rtol=1e-6, atol=0.0)
    assert np.isinf(bounds).any(-1) == (~settled).any()


def _exact_bounds(plan, point):
    """Each parameter's bound from exact rationals: 0 if known, None if not identifiable.

    Closed-form J at each float's exact value; the information over the links
    not known, sum_t J_t g_t g_t^T, solved exactly for each unit vector.
    """
    paths = [t.path.link_ids for t in plan.tasks]
    known = {l for path in paths if all(point[m] == 1 for m in path) for l in path}
    rest = [l for l in sorted(point) if l not in known]
    f = [[Fraction(0)] * len(rest) for _ in rest]
    for task in plan.tasks:
        links = task.path.link_ids
        product = math.prod((point[l] for l in links), start=Fraction(1))
        if product == 1:
            continue
        j = {
            Scheme.LZM: (2 if len(links) == 1 else 1) / ((1 + product) * (1 - product)),
            Scheme.JBM: 12 * product**2 / ((1 + 3 * product**2) * (1 - product**2)),
            Scheme.PEM: 3 / ((1 + 3 * product) * (1 - product)),
        }[task.scheme]
        g = [
            math.prod((point[m] for m in links if m != l), start=Fraction(1)) if l in links else 0
            for l in rest
        ]
        for a, b in np.ndindex(len(rest), len(rest)):
            f[a][b] += j * g[a] * g[b]
    bounds = dict.fromkeys(known, Fraction(0))
    for i, link in enumerate(rest):
        x = exact_solve(f, [Fraction(int(k == i)) for k in range(len(rest))])
        bounds[link] = None if x is None else x[i]
    return bounds


class TestFactorBounds:
    """Every plan-built member takes its bounds from its plan's integer incidence.

    Each member is checked against references that do not use it, links at 0
    and tasks with W = 1 included (``_check_against_references``).
    """

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_tree_points(), st.sampled_from([CLOSED, FIRST]), st.booleans())
    def test_square_plans_match_independent_references(self, drawn, mode, normalize):
        plan, params, rows = drawn
        matrix = plan_qfim(plan, params, mode, normalize)
        for member in range(len(rows)):
            _check_against_references(matrix, member)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        _tree_plans(),
        st.data(),
        st.booleans(),
    )
    def test_badly_scaled_points_match_an_exact_reference(self, plan, data, repeat):
        # Links spanning seven orders of magnitude, at 0 and at 1, where a
        # float information matrix loses the tasks of small information.
        if repeat:
            plan = MonitoringPlan(name="repeat", tasks=plan.tasks + plan.tasks[-1:])
        names = sorted({l for t in plan.tasks for l in t.path.link_ids})
        values = st.sampled_from([0.0, 1.0, 1e-7, 1e-3, 0.3, 0.9999])
        drawn = data.draw(st.lists(values, min_size=len(names), max_size=len(names)))
        point = dict(zip(names, drawn))
        bounds = crb_diagonal(plan_qfim(plan, point, CLOSED))
        for link, exact in _exact_bounds(plan, {l: Fraction(v) for l, v in point.items()}).items():
            if exact is None or exact == 0:
                assert bounds[link] == (math.inf if exact is None else 0.0)
            else:
                assert bounds[link] == pytest.approx(float(exact), rel=1e-9)

    @pytest.mark.parametrize("mode", [CLOSED, FIRST])
    def test_a_path_of_links_at_one_makes_them_known_with_no_link_at_zero(self, mode):
        # Square plan a, ab, bc at (0.5, 1, 1): the task over b and c has
        # W = 1, so b and c are known, although the tasks that bring b in
        # have finite information; a is then measured twice.
        tasks = [("a",), ("a", "b"), ("b", "c")]
        tasks = tuple(MeasurementTask(Scheme.JBM, Path(ids, ("x", "y"))) for ids in tasks)
        plan = MonitoringPlan("chain", tasks)
        point = {"a": 0.5, "b": 1.0, "c": 1.0}
        bounds = crb_diagonal(plan_qfim(plan, point, mode))
        assert bounds["b"] == bounds["c"] == 0.0
        exact = _exact_bounds(plan, {l: Fraction(v) for l, v in point.items()})
        assert bounds["a"] == pytest.approx(float(exact["a"]), rel=1e-12)

    @pytest.mark.parametrize("mode", [CLOSED, FIRST])
    def test_a_plan_whose_incidence_inverse_is_not_integer(self, mode):
        # Paths ab, bc, ca: no task order brings in one link at a time, and
        # the incidence has determinant 2, so each link is half a sum of paths.
        tasks = [("a", "b"), ("b", "c"), ("c", "a")]
        tasks = tuple(MeasurementTask(Scheme.LZM, Path(ids, ("x", "y"))) for ids in tasks)
        plan, point = MonitoringPlan("triangle", tasks), {"a": 0.9, "b": 0.6, "c": 0.3}
        bounds = crb_diagonal(plan_qfim(plan, point, mode))
        exact = _exact_bounds(plan, {l: Fraction(v) for l, v in point.items()})
        expected = [float(exact[l]) for l in "abc"]
        assert [bounds[l] for l in "abc"] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("mode", [CLOSED, FIRST])
    def test_a_combination_whose_coefficients_differ_in_size(self, mode):
        # The triangle ab, bc, ca and a path abcd: d is abcd less half of each
        # triangle path, so its integer combination mixes 2 and -1 over d = 2.
        tasks = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "b", "c", "d")]
        tasks = tuple(MeasurementTask(Scheme.LZM, Path(ids, ("x", "y"))) for ids in tasks)
        plan, point = MonitoringPlan("kite", tasks), {"a": 0.9, "b": 0.6, "c": 0.3, "d": 0.8}
        bounds = crb_diagonal(plan_qfim(plan, point, mode))
        exact = _exact_bounds(plan, {l: Fraction(v) for l, v in point.items()})
        expected = [float(exact[l]) for l in "abcd"]
        assert [bounds[l] for l in "abcd"] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("w0", [1e-170, 5e-324, 1e-160])
    def test_information_under_the_float_range_leaves_the_bound_infinite(self, w0):
        # A repeated task makes the rows dependent.  JBM's J at W = w0 is 0 in
        # floats, or (at 1e-160) so small that e0's bound is past the float range.
        plain = builtin_plan("JBM3", build_star(3, [0.5, 0.5, 0.5]))
        plan = MonitoringPlan(name="repeat", tasks=plain.tasks + plain.tasks[:1])
        params = {"e0": [w0, 0.5], "e1": 0.5, "e2": 0.5}
        bounds = crb_diagonal(plan_qfim(plan, params, CLOSED))
        assert bounds["e0"][0] == math.inf
        # e1 and e2 keep the bounds plain JBM3 gives them there.
        expected = crb_diagonal(plan_qfim(plain, params, CLOSED))
        for lid in ("e1", "e2"):
            assert bounds[lid][0] == expected[lid][0] == 0.4375
        # Each point on its own: the healthy one keeps the bounds it gets alone.
        alone = crb_diagonal(plan_qfim(plan, {"e0": 0.5, "e1": 0.5, "e2": 0.5}, CLOSED))
        assert [bounds[lid][1] for lid in alone] == list(alone.values())

    @pytest.mark.parametrize("mode", [CLOSED, FIRST])
    def test_a_task_whose_g_underflows_informs_nothing(self, mode):
        # On the path a-b-c at a = b = 1e-200, g_c = a * b is 0 in floats, so
        # the task, measured twice, informs nothing there: c is not
        # identifiable, and a and b keep the bounds their direct tasks give.
        tasks = [("a",), ("b",), ("a", "b", "c"), ("a", "b", "c")]
        tasks = tuple(MeasurementTask(Scheme.LZM, Path(ids, ("x", "y"))) for ids in tasks)
        point = {"a": 1e-200, "b": 1e-200, "c": 0.5}
        bounds = crb_diagonal(plan_qfim(MonitoringPlan("underflow", tasks), point, mode))
        direct = crb_diagonal(plan_qfim(MonitoringPlan("direct", tasks[:2]), point, mode))
        assert bounds == {**direct, "c": math.inf}
        assert math.isfinite(bounds["a"]) and bounds["a"] == bounds["b"]

    @pytest.mark.parametrize("mode", [CLOSED, FIRST])
    @pytest.mark.parametrize("repeat", range(3))
    @pytest.mark.parametrize("kind", ["JBM2", "JBM3", "HYB2", "HYB3"])
    def test_a_repeated_task_never_raises_a_bound(self, kind, repeat, mode):
        # A task measured twice adds information: every bound that is finite
        # without the repeat stays finite and does not rise, at every point
        # of the grid, at the edges of the float range too.
        plain = builtin_plan(kind, _STAR)
        plan = MonitoringPlan(name="repeat", tasks=plain.tasks + plain.tasks[repeat : repeat + 1])
        values = [0.0, 5e-324, 1e-170, 1e-160, 1e-13, 0.5, 1.0 - 2.0**-53, 1.0]
        points = list(itertools.product(values, repeat=3))
        params = {lid: np.array(column) for lid, column in zip(("e0", "e1", "e2"), zip(*points))}
        before, after = plan_qfim(plain, params, mode).bounds, plan_qfim(plan, params, mode).bounds
        finite = np.isfinite(before)
        assert np.isfinite(after[finite]).all()
        assert (after[finite] <= before[finite] * (1.0 + 1e-12)).all()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        _tree_points(),
        st.sampled_from(["repeat", "unread", "uncovered"]),
        st.sampled_from([CLOSED, FIRST]),
    )
    def test_non_square_plans_follow_the_same_rules(self, drawn, change, mode):
        plan, params, rows = drawn
        if change == "repeat":
            # A task that introduces no link is skipped when solving.
            other = MonitoringPlan(name="repeat", tasks=plan.tasks + plan.tasks[:1])
        elif change == "unread":
            other, params = plan, {**params, "zz": np.full(len(rows), 0.5)}
        else:
            other = MonitoringPlan(name="uncovered", tasks=plan.tasks[:-1])
        stacked = plan_qfim([plan, other], params, mode)
        alone = plan_qfim(plan, params, mode)
        assert stacked.bounds[0].tobytes() == alone.bounds.tobytes()
        alone = plan_qfim(other, params, mode)
        assert stacked.bounds[1].tobytes() == alone.bounds.tobytes()
        for member in range(len(rows)):
            _check_against_references(alone, member)


class TestBounds:
    # JBM3 measures each link directly, so its information is diagonal;
    # HYB3's tasks over (e0, e1) and (e0, e2) couple the links.
    def _matrix(self, kind, w0=0.9, w1=0.8, w2=0.7):
        return plan_qfim(builtin_plan(kind, _STAR), {"e0": w0, "e1": w1, "e2": w2}, FIRST)

    def test_diagonal_inverse(self):
        matrix = self._matrix("JBM3")
        assert (matrix.entries == np.diag(np.diagonal(matrix.entries))).all()
        bounds = crb_diagonal(matrix)
        for k, lid in enumerate(matrix.order):
            assert bounds[lid] == 1.0 / matrix.entries[k, k]

    def test_qcrb_sums_the_bounds(self):
        for kind in ("JBM3", "HYB3"):
            matrix = self._matrix(kind)
            assert qcrb(matrix) == sum(crb_diagonal(matrix).values())

    def test_correlated_inverse(self):
        matrix = self._matrix("HYB3")
        assert (matrix.entries != np.diag(np.diagonal(matrix.entries))).any()
        bounds = crb_diagonal(matrix)
        expected = np.diag(np.linalg.inv(matrix.entries))
        np.testing.assert_allclose([bounds[l] for l in matrix.order], expected, rtol=1e-12)

    def test_scale_divides(self):
        matrix = self._matrix("HYB3")
        unit = crb_diagonal(matrix)
        assert crb_diagonal(matrix, scale=100.0) == {l: b / 100.0 for l, b in unit.items()}

    @pytest.mark.parametrize("scale", [-2.0, 0.0, math.nan, math.inf])
    def test_scale_must_be_positive_and_finite(self, scale):
        graph = build_star(3, [0.9, 0.8, 0.7])
        matrix = plan_qfim(builtin_plan("HYB3", graph), graph.params(), FIRST)
        with pytest.raises(ValueError, match="scale"):
            crb_diagonal(matrix, scale=scale)

    @pytest.mark.parametrize("scale", [1e-10, 1e-300])
    def test_a_bound_past_the_float_range_is_inf(self, scale):
        # A direct JBM link at 1e-150 has J near 1.2e-299: 1 / J is finite,
        # and divided by the scale it overflows, with no warning.
        task, params = _chain_task(Scheme.JBM, [1e-150])
        matrix = task_qfim(task, params, CLOSED)
        assert crb_diagonal(matrix) == {"p0": 1.0 / matrix.entries[0, 0]}
        assert math.isfinite(1.0 / matrix.entries[0, 0])
        assert crb_diagonal(matrix, scale=scale) == {"p0": math.inf}

    def test_bounds_that_sum_past_the_float_range_give_inf(self):
        # JBM3 at 3e-155: each bound is finite; their sum overflows, batched
        # or not, with no warning.
        w = 3e-155
        matrix = self._matrix("JBM3", w, w, w)
        assert all(math.isfinite(b) for b in crb_diagonal(matrix).values())
        assert qcrb(matrix) == math.inf
        assert qcrb(self._matrix("JBM3", [w], [w], [w])).tolist() == [math.inf]

    def test_zero_information_gives_inf(self):
        # JBM3 at w0 = 0: e0's only task has J = 0, the others are untouched.
        matrix = self._matrix("JBM3", 0.0, 0.5, 0.5)
        assert matrix.entries[0, 0] == 0.0
        bounds = crb_diagonal(matrix)
        assert bounds["e0"] == math.inf
        assert bounds["e1"] == bounds["e2"] == 1.0 / matrix.entries[1, 1]

    @pytest.mark.parametrize("mode", [CLOSED, FIRST])
    def test_singular_matrix_gives_inf(self, mode):
        # A square plan whose incidence is singular: e0 is measured twice,
        # e1 and e2 only through their product.  Every entry is finite and
        # the matrix has rank 2: e1 and e2 are not identifiable, e0 is.
        tasks = [(Scheme.JBM, ("e0",)), (Scheme.PEM, ("e0",)), (Scheme.LZM, ("e1", "e2"))]
        tasks = tuple(MeasurementTask(s, trace_path(_STAR, links)) for s, links in tasks)
        plan, point = MonitoringPlan("singular", tasks), {"e0": 0.9, "e1": 0.8, "e2": 0.7}
        matrix = plan_qfim(plan, point, mode)
        assert np.isfinite(matrix.entries).all() and np.linalg.matrix_rank(matrix.entries) == 2
        bounds = crb_diagonal(matrix)
        assert bounds["e1"] == bounds["e2"] == math.inf
        exact = _exact_bounds(plan, {l: Fraction(v) for l, v in point.items()})
        assert bounds["e0"] == pytest.approx(float(exact["e0"]), rel=1e-12)
        assert qcrb(matrix) == math.inf

    def test_infinite_information_gives_zero_bound(self):
        # A link at 1 is known: infinite information, bound 0.
        matrix = self._matrix("JBM3", 1.0, 0.5, 0.5)
        assert matrix.entries[0, 0] == math.inf
        bounds = crb_diagonal(matrix)
        assert bounds["e0"] == 0.0 and bounds["e1"] == 1.0 / matrix.entries[1, 1]

    def test_unidentifiable_indirect_only_plan(self):
        # two parameters observed only through their product
        task, params = _chain_task(Scheme.PEM, [0.8, 0.5])
        bounds = crb_diagonal(task_qfim(task, params, FIRST))
        assert bounds["p0"] == math.inf and bounds["p1"] == math.inf


class TestStackedBounds:
    def test_mixed_masks_build_one_matrix_equal_to_single_plan_calls(self, monkeypatch):
        # Links at 1 in different members make known coordinates in different
        # places, and e0 at 0 makes every plan singular: still one matrix,
        # and each plan's bounds are bit for bit the ones it gives alone.
        graph = build_star(3, [0.5, 0.5, 0.5])
        plans = [builtin_plan(kind, graph) for kind in ("JBM2", "JBM3", "HYB2", "HYB3")]
        params = {
            "e0": np.array([1.0, 0.5, 0.5, 1.0, 0.3, 0.0]),
            "e1": np.array([0.5, 1.0, 0.5, 1.0, 0.3, 0.5]),
            "e2": np.array([0.5, 0.5, 1.0, 1.0, 0.3, 0.5]),
        }
        built = constructed(monkeypatch, FisherMatrix)
        stack = plan_qfim(plans, params, CLOSED)
        assert len(built) == 1
        monkeypatch.undo()
        bounds, total = crb_diagonal(stack, scale=3.0), qcrb(stack)
        assert total.shape == (4, 6) and (total[:, 3] == 0.0).all()
        assert (total[:, 5] == math.inf).all() and np.isfinite(total[:, :5]).all()
        for k, plan in enumerate(plans):
            alone = plan_qfim(plan, params, CLOSED)
            assert qcrb(alone).tobytes() == total[k].tobytes()
            for lid, bound in crb_diagonal(alone, scale=3.0).items():
                assert bound.tobytes() == bounds[lid][k].tobytes()

    def test_bounds_are_read_from_the_built_matrix(self, monkeypatch):
        # Bounds are settled when the matrix is built: crb_diagonal and qcrb
        # build no matrix of their own (and, in test_surface, run no linear
        # algebra).
        graph = build_star(3, [0.5, 0.5, 0.5])
        plans = [builtin_plan(kind, graph) for kind in ("JBM2", "HYB3")]
        known = plan_qfim(plans[1], {"e0": 1.0, "e1": 0.5, "e2": 0.5}, FIRST)
        params = {"e0": np.array([1.0, 0.5]), "e1": 0.5, "e2": 0.5}
        stack = plan_qfim(plans, params, CLOSED)
        plain = plan_qfim(builtin_plan("JBM3", graph), {"e0": 0.5, "e1": 0.8, "e2": 0.5}, FIRST)
        built = constructed(monkeypatch, FisherMatrix)
        unit = crb_diagonal(known)
        assert unit["e0"] == 0.0 and crb_diagonal(known, scale=2.0)["e1"] == unit["e1"] / 2.0
        assert qcrb(known) == unit["e1"] + unit["e2"]
        bounds, total = crb_diagonal(stack), qcrb(stack)
        assert (bounds["e0"][:, 0] == 0.0).all() and np.isfinite(total).all()
        assert list(crb_diagonal(plain).values()) == plain.bounds.tolist()
        assert qcrb(plain) == sum(plain.bounds.tolist())
        assert built == []


class TestBoundGrouping:
    # Points that share a mask (links at 0, tasks with W = 1, neither) are
    # bounded together; a point's bounds never depend on its neighbours.
    def test_interleaved_masks_match_single_member_calls(self):
        plans = [builtin_plan(kind, _STAR) for kind in ("JBM2", "JBM3", "HYB2", "HYB3")]
        points = [
            (0.9, 0.8, 0.7),
            (1.0, 0.5, 0.5),
            (1.0, 1.0, 1.0),
            (0.5, 1.0, 0.3),
            (0.0, 0.5, 0.5),
            (0.6, 0.2, 0.4),
            (0.5, 0.0, 1.0),
            (1.0, 0.5, 0.0),
        ]
        params = {lid: np.array(column) for lid, column in zip(("e0", "e1", "e2"), zip(*points))}
        batch = plan_qfim(plans, params, FIRST)
        bounds = crb_diagonal(batch, scale=7.0)
        for (k, plan), (p, point) in itertools.product(enumerate(plans), enumerate(points)):
            alone = plan_qfim(plan, dict(zip(("e0", "e1", "e2"), point)), FIRST)
            for lid, bound in crb_diagonal(alone, scale=7.0).items():
                assert bounds[lid].shape == (4, 8)
                assert np.asarray(bound).tobytes() == bounds[lid][k, p].tobytes()
        # Every link at 1: every coordinate is known in every plan.
        assert all((bounds[lid][:, 2] == 0.0).all() for lid in batch.order)
        # A link at 1 is known wherever a plan reads it alone.
        assert (bounds["e0"][:, 1] == 0.0).all() and (bounds["e1"][[0, 1], 3] == 0.0).all()
        # e0 at 0 hides every path through it: a link read only through e0
        # is not identifiable, one read alone keeps a finite bound.
        assert (bounds["e2"][[0, 2, 3], 4] == math.inf).all()
        assert (bounds["e1"][[2, 3], 4] == math.inf).all()
        assert np.isfinite(bounds["e1"][[0, 1], 4]).all() and math.isfinite(bounds["e2"][1, 4])
        assert np.isfinite(qcrb(batch)[:, [0, 5]]).all()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.sampled_from(["JBM2", "JBM3", "HYB2", "HYB3"]),
        st.lists(
            st.sampled_from([0.0, 1.0, 5e-324, 1e-150, 1e-13, 0.5, 1.0 - 2.0**-53]),
            min_size=3,
            max_size=3,
        ),
        st.sampled_from([CLOSED, FIRST]),
        st.booleans(),
    )
    def test_every_matrix_that_builds_can_be_bounded(self, kind, values, mode, normalize):
        # The constructor rejects a nan or negative bound, so a plan at any
        # point in the unit cube, at the edges of the float range too, must
        # build; its bounds and their sum are then in [0, +inf].
        point = dict(zip(("e0", "e1", "e2"), values))
        matrix = plan_qfim(builtin_plan(kind, _STAR), point, mode, normalize)
        bounds = crb_diagonal(matrix)
        assert all(bounds[lid] >= 0.0 for lid in matrix.order)
        assert qcrb(matrix) >= 0.0


# Two edge grids: links at 0 and 1, and under and near the float range.
EDGE_GRIDS = (
    (0.0, 1.0, 1e-7, 1e-150, 0.1, 0.3, 0.5, 0.77, 0.9, 0.999999),
    (0.0, 5e-324, 1e-170, 1e-160, 1e-13, 0.5, 1.0 - 2.0**-53, 1.0),
)


def _edge_batches(grid):
    """The whole cube, as one batch and its points free of marks, then a slice point by point."""
    cube = np.array(list(itertools.product(grid, repeat=3))).T
    plain = [v for v in grid if 2.0**-300 < v < 1.0]
    yield dict(zip(("e0", "e1", "e2"), cube))
    yield dict(zip(("e0", "e1", "e2"), np.array(list(itertools.product(plain, repeat=3))).T))
    for i, j in itertools.product(range(len(grid)), repeat=2):
        yield {"e0": grid[i], "e1": grid[j], "e2": grid[(i + j) % len(grid)]}


class TestPlanLayout:
    """A plan set's integer layout is cached; every call still checks and evaluates anew."""

    GRID = {"e0": [0.1, 0.5, 0.9], "e1": [0.2, 0.6, 0.95], "e2": 0.7}

    def _plans(self):
        graph = build_star(3, [0.5, 0.5, 0.5])
        return [builtin_plan(kind, graph) for kind in ("JBM2", "JBM3", "HYB2", "HYB3")]

    def test_star_kernel_outputs_are_pinned(self):
        # plan_qfim's entries and bounds and _plan_qcrb, for the four star plans
        # alone and stacked, in both modes with normalize off and on: the digest
        # is what the kernel gave before it cached a layout.
        plans = self._plans()
        digest = hashlib.sha256()
        for grid in EDGE_GRIDS:
            members = [[plan] for plan in plans] + [plans]
            for params, mode, normalize, plan_set in itertools.product(
                _edge_batches(grid), FisherMode, (False, True), members
            ):
                matrix = plan_qfim(plan_set, params, mode, normalize)
                digest.update(matrix.entries.tobytes() + matrix.bounds.tobytes())
                bounds = fisher._plan_qcrb(plan_set, params, mode, normalize)
                digest.update(np.array(bounds).tobytes())
        expected = "92a9148d70fc0d63404d0ef4c94a05c86d33678a92ef9688ba6d8dfb4b564286"
        assert digest.hexdigest() == expected

    def test_new_values_hit_the_cached_layout(self):
        plans = self._plans()
        fisher._layout.cache_clear()
        fisher._decision.cache_clear()
        fisher._plan_qcrb(plans, {"e0": 0.9, "e1": 0.8, "e2": 0.7}, CLOSED, True)
        layout, decision = fisher._layout.cache_info(), fisher._decision.cache_info()
        assert layout.misses == decision.misses == 1
        fisher._plan_qcrb(plans, self.GRID, FIRST, False)
        assert fisher._layout.cache_info().misses == 1
        assert fisher._layout.cache_info().hits == layout.hits + 1
        assert fisher._decision.cache_info().hits == decision.hits + 1

    def test_a_renamed_plan_with_the_same_tasks_shares_the_layout(self):
        plans = self._plans()
        # Same (scheme, link ids) tasks, traced again on another star.
        other = build_star(3, [0.1, 0.2, 0.3])
        renamed = [
            MonitoringPlan(f"copy of {p.name}", builtin_plan(p.name, other).tasks) for p in plans
        ]
        fisher._layout.cache_clear()
        first = fisher._plan_qcrb(plans, self.GRID, CLOSED, True)
        assert fisher._plan_qcrb(renamed, self.GRID, CLOSED, True) == first
        assert fisher._layout.cache_info().misses == 1

    @pytest.mark.parametrize("normalize", [False, True])
    def test_a_missing_link_raises_the_same_error_on_every_call(self, normalize):
        plans = self._plans()
        missing = r"^path link 'e1' missing from the parameter vector$"
        for _ in range(3):
            with pytest.raises(ValueError, match=missing):
                fisher._plan_qcrb(plans, {"e0": 0.9, "e2": 0.7}, CLOSED, normalize)
            with pytest.raises(ValueError, match=missing):
                plan_qfim(plans, {"e2": 0.7, "e0": [0.5, 0.6]}, FIRST, normalize)
        # A cached layout still range-checks every parameter of every call.
        fisher._plan_qcrb(plans, self.GRID, CLOSED, normalize)
        with pytest.raises(ValueError, match=r"^parameter for link 'e2'=1.5 outside \[0, 1\]$"):
            fisher._plan_qcrb(plans, {**self.GRID, "e2": 1.5}, CLOSED, normalize)

    @pytest.mark.parametrize("mode", [CLOSED, FIRST])
    def test_a_cached_call_evaluates_j_once_per_distinct_task(self, mode, monkeypatch):
        plans = self._plans()
        fisher._plan_qcrb(plans, self.GRID, mode, True)
        misses = fisher._layout.cache_info().misses
        seen = watched_schemes(monkeypatch)
        fisher._plan_qcrb(plans, self.GRID, mode, True)
        assert fisher._layout.cache_info().misses == misses
        # 6 distinct tasks at 3 points, one J call per rule: JBM's 4, LZM's 2 paths.
        assert len(seen) == 2
        assert {scheme: np.size(w) for scheme, w in seen} == {Scheme.JBM: 12, Scheme.LZM: 6}

    @pytest.mark.parametrize("mode", [CLOSED, FIRST])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_first_and_cached_calls_agree_bit_for_bit(self, mode, normalize):
        plans = self._plans()
        marked = {"e0": [0.0, 0.3, 1.0, 0.9], "e1": [0.5, 1e-170, 0.2, 0.8], "e2": 0.7}
        for params in (self.GRID, marked):
            fisher._layout.cache_clear()
            fisher._decision.cache_clear()
            first = plan_qfim(plans, params, mode, normalize)
            again = plan_qfim(plans, params, mode, normalize)
            assert first.entries.tobytes() == again.entries.tobytes()
            assert first.bounds.tobytes() == again.bounds.tobytes()
            totals = [qcrb(plan_qfim(p, params, mode, normalize)).tolist() for p in plans]
            assert fisher._plan_qcrb(plans, params, mode, normalize) == totals


class TestRecordChecks:
    # A matrix is a plan's result: its constructor checks only shapes, names
    # and bounds, and takes no entries without their bounds.
    def _fields(self):
        # Two points: one bad member rejects the whole stack.
        params = {"e0": [0.9, 1.0], "e1": 0.8, "e2": 0.7}
        matrix = plan_qfim(builtin_plan("HYB3", _STAR), params, FIRST)
        return matrix, dict(zip(FisherMatrix.__match_args__, matrix._values))

    def test_entries_without_bounds_are_a_type_error(self):
        matrix, _ = self._fields()
        with pytest.raises(TypeError):
            FisherMatrix(matrix.entries, matrix.order, matrix.mode)

    @pytest.mark.parametrize("bad", [math.nan, -1.0, -math.inf, -5e-324])
    def test_a_nan_or_negative_bound_is_a_value_error(self, bad):
        _, fields = self._fields()
        with pytest.raises(ValueError, match="^bounds must not be nan or negative$"):
            FisherMatrix(**{**fields, "bounds": [[0.0, 1.0, 1.0], [0.0, bad, 1.0]]})
        # 0, +inf and -0.0 are bounds.
        FisherMatrix(**{**fields, "bounds": [[0.0, 1.0, 1.0], [0.0, math.inf, -0.0]]})

    @pytest.mark.parametrize(
        "change",
        [
            {"entries": np.eye(2)},
            {"entries": np.ones(3)},
            {"bounds": np.ones(3)},
            {"bounds": np.ones((2, 2))},
            {"order": ("e0", "e1")},
        ],
    )
    def test_shapes_must_match_the_order(self, change):
        _, fields = self._fields()
        with pytest.raises(ValueError, match="^entries must be square over the parameter order"):
            FisherMatrix(**{**fields, **change})

    def test_rejects_a_repeated_name(self):
        _, fields = self._fields()
        with pytest.raises(ValueError, match="^parameter order repeats a name$"):
            FisherMatrix(**{**fields, "order": ("e0", "e1", "e0")})

    def test_entries_and_bounds_are_read_only_copies(self):
        matrix, fields = self._fields()
        entries, bounds = fields["entries"].copy(), fields["bounds"].copy()
        rebuilt = FisherMatrix(**{**fields, "entries": entries, "bounds": bounds})
        assert rebuilt.entries is not entries and rebuilt.bounds is not bounds
        for array in (matrix.entries, matrix.bounds, rebuilt.entries, rebuilt.bounds):
            with pytest.raises(ValueError):
                array[0] = 5.0


class TestCrossover:
    def test_closed_form_lzm_jbm(self):
        w = crossover(Scheme.LZM, Scheme.JBM, CLOSED)
        assert w is not None
        assert abs(w - 1.0 / math.sqrt(3.0)) < 1e-9

    def test_first_principles_lzm_jbm(self):
        w = crossover(Scheme.LZM, Scheme.JBM, FIRST)
        assert w is not None
        assert abs(w - 1.0 / 3.0) < 1e-9

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("mode", [CLOSED, FIRST])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_identical_schemes_have_no_crossover(self, scheme, mode, normalize):
        assert crossover(scheme, scheme, mode, normalize) is None

    def test_crossing_point_balances_information(self):
        w = crossover(Scheme.LZM, Scheme.JBM, CLOSED)
        a = single_link_fisher(Scheme.LZM, w, CLOSED)
        b = single_link_fisher(Scheme.JBM, w, CLOSED)
        assert abs(a - b) < 1e-7

    # Every ordered pair of distinct schemes, both modes, normalize off and
    # on: the roots of the per-point bisection, exact to the last bit.
    ROOTS = [
        ("LZM", "JBM", CLOSED, False, 0.577350269189626),
        ("LZM", "JBM", CLOSED, True, None),
        ("LZM", "JBM", FIRST, False, 0.33333333333333337),
        ("LZM", "JBM", FIRST, True, 0.5773502691896258),
        ("LZM", "PEM", CLOSED, False, 0.3333333333333331),
        ("LZM", "PEM", CLOSED, True, 0.3333333333333331),
        ("LZM", "PEM", FIRST, False, None),
        ("LZM", "PEM", FIRST, True, None),
        ("JBM", "LZM", CLOSED, False, 0.577350269189626),
        ("JBM", "LZM", CLOSED, True, None),
        ("JBM", "LZM", FIRST, False, 0.33333333333333337),
        ("JBM", "LZM", FIRST, True, 0.5773502691896258),
        ("JBM", "PEM", CLOSED, False, 0.5178281865628458),
        ("JBM", "PEM", CLOSED, True, None),
        ("JBM", "PEM", FIRST, False, 0.517828186562846),
        ("JBM", "PEM", FIRST, True, None),
        ("PEM", "LZM", CLOSED, False, 0.3333333333333331),
        ("PEM", "LZM", CLOSED, True, 0.3333333333333331),
        ("PEM", "LZM", FIRST, False, None),
        ("PEM", "LZM", FIRST, True, None),
        ("PEM", "JBM", CLOSED, False, 0.5178281865628458),
        ("PEM", "JBM", CLOSED, True, None),
        ("PEM", "JBM", FIRST, False, 0.517828186562846),
        ("PEM", "JBM", FIRST, True, None),
    ]

    @pytest.mark.parametrize("scheme_a, scheme_b, mode, normalize, root", ROOTS)
    def test_roots_are_pinned(self, scheme_a, scheme_b, mode, normalize, root):
        got = crossover(Scheme[scheme_a], Scheme[scheme_b], mode, normalize)
        assert got == root and (got is None) == (root is None)

    def test_roots_need_no_array_information(self, monkeypatch):
        # The bisection runs on plain floats: every W the J rules see is one.
        seen = watched_schemes(monkeypatch)
        for scheme_a, scheme_b, mode, normalize, root in self.ROOTS:
            got = crossover(Scheme[scheme_a], Scheme[scheme_b], mode, normalize)
            assert repr(got) == repr(root)
        assert {scheme for scheme, _ in seen} == set(Scheme)
        assert all(type(w) is float for _, w in seen)

    # Where each family of roots lies exactly: the polynomial changes sign there.
    EXACT = {
        "0.57735026919": lambda w: 3 * w * w - 1,  # 1/sqrt(3)
        "0.333333333333": lambda w: 3 * w - 1,  # 1/3
        "0.517828186563": lambda w: 9 * w**3 + w * w - w - 1,  # JBM equals PEM
    }

    @pytest.mark.parametrize(
        "scheme_a, scheme_b, mode, normalize", [r[:4] for r in ROOTS if r[-1] is not None]
    )
    def test_printed_roots_are_correctly_rounded(self, scheme_a, scheme_b, mode, normalize):
        # Each root lies in (0.1, 1), so its twelfth digit is the 1e-12 one:
        # the exact root within half of it of the text is the text correctly rounded.
        text = _fmt(crossover(Scheme[scheme_a], Scheme[scheme_b], mode, normalize))
        polynomial = self.EXACT[text]
        half = Fraction(1, 2 * 10**12)
        assert polynomial(Fraction(text) - half) * polynomial(Fraction(text) + half) < 0
