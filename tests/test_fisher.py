"""Tests for information matrices, bounds, and mode agreement."""

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

from helpers import _chain_task, constructed

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
    """Plan information and bounds at one point: J g g^T sums, then np.linalg.inv."""
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
        for k in finite:
            bounds[k] = math.inf
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

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([[1.0, 0.5], [0.2, 1.0]], "symmetric"),
            ([[1.0, math.inf], [0.0, 1.0]], "symmetric"),
            ([[1.0, 2.0], [2.0, 1.0]], "positive semidefinite"),
            ([[math.inf, 0.0], [0.0, -1.0]], "positive semidefinite"),
            ([[1.0, math.inf], [math.inf, 1.0]], "off-diagonal infinity"),
        ],
    )
    def test_one_bad_member_rejects_the_batch(self, bad, message):
        members = [np.eye(2), [[math.inf, 0.0], [0.0, 1.0]], bad, 2.0 * np.eye(2)]
        with pytest.raises(ValueError, match=message):
            FisherMatrix(np.array(members, dtype=float), ("a", "b"), FIRST)


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


class TestBounds:
    def _matrix(self, entries, order=("a", "b")):
        return FisherMatrix(np.array(entries, dtype=float), order, FIRST)

    def test_diagonal_inverse(self):
        bounds = crb_diagonal(self._matrix([[2.0, 0.0], [0.0, 4.0]]))
        assert abs(bounds["a"] - 0.5) < 1e-15
        assert abs(bounds["b"] - 0.25) < 1e-15

    def test_qcrb_sums_the_bounds(self):
        assert abs(qcrb(self._matrix([[2.0, 0.0], [0.0, 4.0]])) - 0.75) < 1e-15

    def test_correlated_inverse(self):
        m = self._matrix([[2.0, 1.0], [1.0, 2.0]])
        bounds = crb_diagonal(m)
        # inverse of [[2,1],[1,2]] has diagonal 2/3
        assert abs(bounds["a"] - 2.0 / 3.0) < 1e-12

    def test_scale_divides(self):
        bounds = crb_diagonal(self._matrix([[2.0, 0.0], [0.0, 4.0]]), scale=100.0)
        assert abs(bounds["a"] - 0.005) < 1e-15

    @pytest.mark.parametrize("scale", [-2.0, 0.0, math.nan, math.inf])
    def test_scale_must_be_positive_and_finite(self, scale):
        graph = build_star(3, [0.9, 0.8, 0.7])
        matrix = plan_qfim(builtin_plan("HYB3", graph), graph.params(), FIRST)
        with pytest.raises(ValueError, match="scale"):
            crb_diagonal(matrix, scale=scale)

    @pytest.mark.parametrize("entry, scale", [(2.2250738585072014e-308, 0.25), (1e-10, 1e-300)])
    def test_a_bound_past_the_float_range_is_inf(self, entry, scale):
        # 1 / entry is finite; divided by the scale it overflows, with no warning.
        matrix = self._matrix([[entry]], order=("a",))
        assert crb_diagonal(matrix) == {"a": 1.0 / entry}
        assert crb_diagonal(matrix, scale=scale) == {"a": math.inf}

    def test_bounds_that_sum_past_the_float_range_give_inf(self):
        # Each bound is finite; their sum overflows, batched or not, with no warning.
        entries = [[0.9e-308, 0.0], [0.0, 0.9e-308]]
        assert qcrb(self._matrix(entries)) == math.inf
        assert qcrb(self._matrix([entries])).tolist() == [math.inf]

    def test_singular_matrix_gives_inf(self):
        bounds = crb_diagonal(self._matrix([[1.0, 1.0], [1.0, 1.0]]))
        assert bounds["a"] == math.inf and bounds["b"] == math.inf

    def test_zero_information_gives_inf(self):
        bounds = crb_diagonal(self._matrix([[0.0]], order=("a",)))
        assert bounds["a"] == math.inf

    def test_infinite_information_gives_zero_bound(self):
        m = self._matrix([[math.inf, 0.0], [0.0, 4.0]])
        bounds = crb_diagonal(m)
        assert bounds["a"] == 0.0
        assert abs(bounds["b"] - 0.25) < 1e-15

    def test_unidentifiable_indirect_only_plan(self):
        # two parameters observed only through their product
        task, params = _chain_task(Scheme.PEM, [0.8, 0.5])
        bounds = crb_diagonal(task_qfim(task, params, FIRST))
        assert bounds["p0"] == math.inf and bounds["p1"] == math.inf


OFF_DIAGONAL = "off-diagonal infinity with finite diagonal is not supported"
NOT_PSD = "matrix is not positive semidefinite within tolerance"


def _per_mask_reference(stack, scale):
    """Bounds and singular flags by the per-mask algorithm, kept as a reference.

    Members are grouped by finite-diagonal mask, in order of first appearance;
    each group's finite sub-blocks are gathered, checked with one ``eigvalsh``
    and its regular members inverted with one ``inv``.  The PSD test is the
    matrix's own, relative to the largest eigenvalue once that exceeds 1.
    """
    n = stack.shape[-1]
    flat = stack.reshape(-1, n, n)
    bounds, singular = np.zeros(flat.shape[:-1]), np.zeros(len(flat), dtype=bool)
    masks = np.isfinite(np.diagonal(flat, axis1=1, axis2=2))
    for mask in dict.fromkeys(map(tuple, masks.tolist())):
        rows, coords = np.flatnonzero((masks == mask).all(axis=1)), np.flatnonzero(mask)
        if not coords.size:
            continue
        sub = flat[rows[:, None, None], coords[:, None], coords]
        if not np.isfinite(sub).all():
            raise ValueError(OFF_DIAGONAL)
        eig = np.linalg.eigvalsh(sub)
        lo, hi = eig[:, 0], eig[:, -1]
        if (lo < -fisher.PSD_ATOL * np.maximum(1.0, hi)).any():
            raise ValueError(NOT_PSD)
        with np.errstate(divide="ignore", invalid="ignore"):
            flags = (hi <= 0.0) | (lo <= 0.0) | (lo / hi < fisher.SINGULAR_RTOL)
        singular[rows] = flags
        bounds[rows[flags][:, None], coords] = math.inf
        regular = rows[~flags]
        if regular.size:
            inverse = np.linalg.inv(flat[regular[:, None, None], coords[:, None], coords])
            with np.errstate(over="ignore"):
                bounds[regular[:, None], coords] = np.diagonal(inverse, axis1=1, axis2=2) / scale
    return bounds.reshape(stack.shape[:-1]), singular.reshape(stack.shape[:-2])


def _coupled_infinity(stack):
    """True if some member has an infinite entry between two finite-diagonal coordinates."""
    finite = np.isfinite(np.diagonal(stack, axis1=-2, axis2=-1))
    return bool((np.isinf(stack) & finite[..., :, None] & finite[..., None, :]).any())


_VALUE = st.one_of(
    st.sampled_from([0.0, 1.0, 1e-8, 0.25, 0.5, 1.0 - 1e-12]),
    st.floats(min_value=0.0, max_value=1.0),
)


@st.composite
def _stacks(draw):
    """Stacks of 1-4 members over 1-4 coordinates with entries at 0, 1 and between.

    A member is a sum of rank-one terms J g g^T, as a plan's information is,
    or any symmetric matrix on the values (often not PSD, sometimes with an
    infinity off the diagonal); then some coordinates become known, with an
    infinite diagonal and some infinite entries in their row and column.
    """
    n = draw(st.integers(1, 4))
    stack = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            member = np.zeros((n, n))
            for _ in range(draw(st.integers(0, n + 1))):
                g = np.array(draw(st.lists(_VALUE, min_size=n, max_size=n)))
                member += draw(_VALUE) * (g[:, None] * g[None, :])
        else:
            size = n * (n + 1) // 2
            raw = st.one_of(_VALUE, st.just(math.inf))
            member = np.zeros((n, n))
            member[np.triu_indices(n)] = draw(st.lists(raw, min_size=size, max_size=size))
            member += np.triu(member, 1).T
        for k in range(n):
            if draw(st.integers(0, 3)) == 0:
                member[k, k] = math.inf
                for j in range(n):
                    if j != k and draw(st.booleans()):
                        member[k, j] = member[j, k] = math.inf
        stack.append(member)
    return np.array(stack)


class TestOnePathAgainstPerMaskReference:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_stacks(), st.sampled_from([0.25, 1.0, 3.0, 20000.0]))
    def test_bounds_flags_and_messages_match(self, stack, scale):
        order = tuple("abcd"[: stack.shape[-1]])
        try:
            expected, flags = _per_mask_reference(stack, scale)
        except ValueError as err:
            # The reference reports the first faulty group; the one path
            # looks for infinities between finite coordinates in every
            # member before any eigenvalue is taken.
            message = OFF_DIAGONAL if _coupled_infinity(stack) else str(err)
            with pytest.raises(ValueError) as info:
                FisherMatrix(stack, order, FIRST)
            assert str(info.value) == message
            return
        matrix = FisherMatrix(stack, order, FIRST)
        bounds = crb_diagonal(matrix, scale=scale)
        actual = np.stack([bounds[lid] for lid in order], axis=-1)
        np.testing.assert_array_equal(matrix._singular, flags)
        if len(order) <= 3:
            assert actual.tobytes() == expected.tobytes()
            return
        # At n = 4 LAPACK's LU recurses differently once a coordinate moves,
        # so its sums round in another order.  The gap is a few ulp at
        # condition number 1 and grows with the condition number.
        assert np.array_equal(np.isinf(actual), np.isinf(expected))
        assert np.array_equal(actual == 0.0, expected == 0.0)
        for member, got, want in zip(stack, actual, expected):
            finite = np.isfinite(np.diagonal(member))
            if finite.any() and np.isfinite(want).all():
                eig = np.linalg.eigvalsh(member[np.ix_(finite, finite)])
                rtol = 4.0 * np.finfo(float).eps * eig[-1] / eig[0]
                np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)

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
        # Known coordinates are settled when the matrix is built: crb_diagonal
        # and qcrb build no matrix of their own (and, in test_surface, run no
        # linear algebra).
        inf = math.inf
        single = FisherMatrix(np.array([[inf, 0.0], [0.0, 2.0]]), ("a", "b"), FIRST)
        graph = build_star(3, [0.5, 0.5, 0.5])
        plans = [builtin_plan(kind, graph) for kind in ("JBM2", "HYB3")]
        params = {"e0": np.array([1.0, 0.5]), "e1": 0.5, "e2": 0.5}
        stack = plan_qfim(plans, params, CLOSED)
        plain = FisherMatrix(np.diag([1.0, 2.0]), ("a", "b"), FIRST)
        built = constructed(monkeypatch, FisherMatrix)
        assert crb_diagonal(single, scale=2.0) == {"a": 0.0, "b": 0.25}
        assert qcrb(single) == 0.5
        bounds, total = crb_diagonal(stack), qcrb(stack)
        assert (bounds["e0"][:, 0] == 0.0).all() and np.isfinite(total).all()
        assert crb_diagonal(plain) == {"a": 1.0, "b": 0.5} and qcrb(plain) == 1.5
        assert built == []


class TestBoundGrouping:
    def test_interleaved_masks_match_single_member_calls(self):
        inf = math.inf
        members = [
            [[2.0, 0.5, 0.1], [0.5, 3.0, 0.2], [0.1, 0.2, 1.5]],
            [[inf, 0.0, 0.0], [0.0, 4.0, 1.0], [0.0, 1.0, 2.0]],
            [[inf, inf, inf], [inf, inf, inf], [inf, inf, inf]],
            [[1.0, 0.0, 0.3], [0.0, inf, 0.0], [0.3, 0.0, 2.0]],
            [[inf, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]],
            [[5.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]],
            [[1.0, 0.0, 0.3], [0.0, inf, 0.0], [0.3, 0.0, 0.09]],
            [[inf, 0.0, 0.0], [0.0, 2.0, 0.5], [0.0, 0.5, 1.0]],
        ]
        order = ("a", "b", "c")
        batch = FisherMatrix(np.array(members).reshape(2, 4, 3, 3), order, FIRST)
        bounds = crb_diagonal(batch, scale=7.0)
        for flat, entries in enumerate(members):
            i, j = divmod(flat, 4)
            single = crb_diagonal(FisherMatrix(np.array(entries), order, FIRST), scale=7.0)
            for lid in order:
                assert bounds[lid].shape == (2, 4)
                assert np.array_equal(bounds[lid][i, j], single[lid])
        assert all(bounds[lid][0, 2] == 0.0 for lid in order)
        assert bounds["b"][1, 0] == math.inf and bounds["a"][1, 2] == math.inf
        # Each group is checked as the matrix is built: one bad member in
        # place of the last rejects the batch before any bound is taken.
        for bad, message in [
            ([[inf, 0.0, 0.0], [0.0, 1.0, 5.0], [0.0, 5.0, 1.0]], "positive semidefinite"),
            ([[1.0, inf, 0.0], [inf, 2.0, 0.0], [0.0, 0.0, 1.0]], "off-diagonal infinity"),
        ]:
            with pytest.raises(ValueError, match=message):
                FisherMatrix(np.array(members[:-1] + [bad]).reshape(2, 4, 3, 3), order, FIRST)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.lists(st.sampled_from([0.0, 1.0, -1.0, 2.0, 1e-13, math.inf]), min_size=6, max_size=6)
    )
    def test_every_matrix_that_builds_can_be_bounded(self, upper):
        entries = np.zeros((3, 3))
        entries[np.triu_indices(3)] = upper
        entries += np.triu(entries, 1).T
        try:
            matrix = FisherMatrix(entries, ("a", "b", "c"), FIRST)
        except ValueError:
            return
        bounds = crb_diagonal(matrix)
        assert all(bounds[lid] >= 0.0 for lid in "abc")


class TestFisherMatrixValidation:
    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            FisherMatrix(np.array([[1.0, 0.5], [0.2, 1.0]]), ("a", "b"), FIRST)

    def test_rejects_asymmetric_infinities(self):
        bad = np.array([[1.0, math.inf], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            FisherMatrix(bad, ("a", "b"), FIRST)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="square"):
            FisherMatrix(np.eye(3), ("a", "b"), FIRST)

    def test_rejects_a_repeated_name(self):
        with pytest.raises(ValueError, match="repeats a name"):
            FisherMatrix(np.diag([1.0, 4.0]), ("a", "a"), FIRST)

    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_rejects_nan_and_negative_infinity(self, value):
        with pytest.raises(ValueError, match="nan or -inf"):
            FisherMatrix(np.array([[value]]), ("a",), FIRST)

    def test_finite_block_beside_infinity_must_be_psd(self):
        inf = math.inf
        entries = np.array([[inf, 0.0, 0.0], [0.0, 1.0, 5.0], [0.0, 5.0, 1.0]])
        with pytest.raises(ValueError, match="positive semidefinite"):
            FisherMatrix(entries, ("a", "b", "c"), FIRST)

    def test_psd_tolerance_scales_with_the_largest_eigenvalue(self):
        # Past 1, the PSD tolerance is relative to the largest eigenvalue: a
        # sum of J g g^T terms at 1.5e12 may round to an eigenvalue of -1e-4.
        order = ("a", "b")
        matrix = FisherMatrix(np.diag([1.5e12, -1e-4]), order, FIRST)
        assert bool(matrix._singular)
        for entries in ([[1.5e12, 0.0], [0.0, -200.0]], [[1.0, 0.0], [0.0, -2e-10]]):
            with pytest.raises(ValueError, match=NOT_PSD):
                FisherMatrix(np.array(entries), order, FIRST)
        FisherMatrix(np.diag([1.0, -0.5e-10]), order, FIRST)

    def test_entries_read_only(self):
        m = FisherMatrix(np.eye(2), ("a", "b"), FIRST)
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0


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
        # The bisection runs on plain floats: the array path is never called.
        def refuse(*args):
            raise AssertionError("crossover reached the array path")

        monkeypatch.setattr(fisher, "_rank_one", refuse)
        for scheme_a, scheme_b, mode, normalize, root in self.ROOTS:
            got = crossover(Scheme[scheme_a], Scheme[scheme_b], mode, normalize)
            assert repr(got) == repr(root)

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
