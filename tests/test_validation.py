"""The checks behind ``qnetomo validate``: grouped mode gaps, batched tables, the failure path."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnetomo import DensityMatrix, FisherMatrix, FisherMode, OutcomeDistribution, Scheme, task_qfim
from qnetomo import fisher, schemes, validation
from qnetomo.cli import main
from qnetomo.schemes import SCHEMES, SchemeSpec, scheme_distribution
from qnetomo.validation import _chain_task, _distribution_gap, _mode_gaps, validation_checks

ROWS = [
    "lzm-distribution-vs-oracle",
    "jbm-distribution-vs-oracle",
    "pem-distribution-vs-oracle",
    "swap-multiplicativity",
    "lzm-direct-mode-ratio-of-two",
    "mode-consistency-lzm-path",
    "mode-consistency-jbm-direct",
    "mode-consistency-jbm-path",
    "mode-consistency-pem-direct",
    "mode-consistency-pem-path",
]


def _per_task_mode_gap(scheme, param_sets):
    """The mode gap of one row from validated one-task matrices, one per path length."""
    gaps = [0.0]
    for length in {len(ws) for ws in param_sets}:
        task, params = _chain_task(scheme, [0.5] * length)
        columns = np.array([ws for ws in param_sets if len(ws) == length]).T
        params = dict(zip(params, columns))
        closed = task_qfim(task, params, FisherMode.CLOSED_FORM).entries
        first = task_qfim(task, params, FisherMode.FIRST_PRINCIPLES).entries
        with np.errstate(invalid="ignore"):
            gap = np.abs(closed - first) / np.maximum(np.abs(closed), np.abs(first))
        gaps.append(np.where(closed == first, 0.0, gap).max())
    return float(np.max(gaps))


_VALUE = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.01, 0.99))
_GRID = st.lists(st.lists(_VALUE, min_size=1, max_size=3), min_size=1, max_size=6)
_ROW = st.tuples(st.sampled_from(list(Scheme)), _GRID)
_EMPTY_ROW = st.tuples(st.sampled_from(list(Scheme)), st.just([]))


class TestGroupedModeGaps:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(_ROW, _EMPTY_ROW), min_size=1, max_size=6))
    def test_equal_to_the_per_task_gaps(self, rows):
        # Rows may share a scheme, a grid or some points: each keeps its own gap.
        if len(rows) > 1:
            rows = rows + [(rows[-1][0], rows[0][1])]
        got = _mode_gaps(rows)
        want = [_per_task_mode_gap(scheme, grid) for scheme, grid in rows]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert (math.isnan(g) and math.isnan(w)) or g == w

    def test_a_nan_gap_stays_with_its_row(self, monkeypatch):
        # Closed form infinite where first principles is finite: a nan gap.
        spec = SCHEMES[Scheme.PEM]
        broken = SchemeSpec(**{**vars(spec), "closed_form": lambda w: w * math.inf})
        monkeypatch.setattr(fisher, "SCHEMES", {**SCHEMES, Scheme.PEM: broken})
        rows = [(Scheme.JBM, [[0.5], [0.4, 0.3]]), (Scheme.PEM, [[0.5], [0.4, 0.3]])]
        jbm, pem = _mode_gaps(rows)
        assert jbm == _per_task_mode_gap(Scheme.JBM, rows[0][1]) and math.isnan(pem)

    def test_validate_makes_six_entry_builds_and_no_fisher_matrix(self, monkeypatch):
        builds, matrices, states, distributions = [], [], [], []

        def entries(plans, params, mode, normalize, _original=validation._plan_entries):
            builds.append((len(plans), mode))
            return _original(plans, params, mode, normalize)

        def counted(cls, seen):
            original = cls.__post_init__

            def post_init(obj):
                original(obj)
                seen.append(obj)

            return post_init

        monkeypatch.setattr(validation, "_plan_entries", entries)
        monkeypatch.setattr(FisherMatrix, "__post_init__", counted(FisherMatrix, matrices))
        monkeypatch.setattr(DensityMatrix, "__post_init__", counted(DensityMatrix, states))

        def distribution(obj, *args, _original=OutcomeDistribution.__init__, **kwargs):
            distributions.append(args or kwargs)
            _original(obj, *args, **kwargs)

        monkeypatch.setattr(OutcomeDistribution, "__init__", distribution)
        results = validation_checks()
        assert all(ok for *_, ok in results)
        # One stack per path length and mode: 1 link (JBM, PEM), 2 and 3 links
        # (LZM, JBM, PEM).
        closed, first = FisherMode.CLOSED_FORM, FisherMode.FIRST_PRINCIPLES
        assert Counter(builds) == {(2, closed): 1, (2, first): 1, (3, closed): 2, (3, first): 2}
        assert matrices == []
        # Both sides of swap-multiplicativity in one real validated stack; the
        # scheme tables are checked as batches, with no per-point record.
        assert [(s.matrix.shape, s.matrix.dtype) for s in states] == [((2, 100, 4, 4), np.float64)]
        assert distributions == []


WS = np.arange(21) / 20.0


def _broken(slopes):
    return {**SCHEMES, Scheme.LZM: SchemeSpec(**{**vars(SCHEMES[Scheme.LZM]), "slopes": slopes})}


class TestBatchedTables:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_equal_to_the_per_point_distributions_bit_for_bit(self, scheme):
        batch = SCHEMES[scheme].probabilities(WS)
        for k, w in enumerate(WS.tolist()):
            point = scheme_distribution(scheme, w).probabilities
            assert np.array([p[k] for p in batch]).tobytes() == np.array(point).tobytes()

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_an_oracle_equal_to_the_per_point_table_gives_a_zero_gap(self, scheme):
        def per_point(params):
            (ws,) = params
            dists = [scheme_distribution(scheme, w).as_dict() for w in ws.tolist()]
            return {label: np.array([d[label] for d in dists]) for label in dists[0]}

        assert _distribution_gap(scheme, per_point) == 0.0

    @pytest.mark.parametrize(
        "slopes, match",
        [
            # (1 - 1.1 w) / 4 is negative for w > 1/1.1; the sum stays 1.
            ((1.1, -1.1, -1.0, 1.0), "negative outcome probability"),
            # The probabilities sum to 1 + 1e-9 w.
            ((1.0 + 4e-9, -1.0, -1.0, 1.0), "sum to 1"),
            # (1 + nan w) / 4 is nan at every point, w = 0 included.
            ((math.nan, -1.0, -1.0, 1.0), "nan outcome probability"),
        ],
    )
    def test_a_broken_table_raises_as_a_distribution_does(self, monkeypatch, slopes, match):
        monkeypatch.setattr(validation, "SCHEMES", _broken(slopes))
        with pytest.raises(ValueError, match=match):
            validation_checks()
        monkeypatch.setattr(schemes, "SCHEMES", _broken(slopes))
        with pytest.raises(ValueError, match=match):
            scheme_distribution(Scheme.LZM, 1.0)

    def test_a_table_within_tolerance_passes_as_a_distribution_does(self, monkeypatch):
        # The probabilities sum to 1 + 1e-13 w, inside PROB_ATOL.
        monkeypatch.setattr(validation, "SCHEMES", _broken((1.0 + 4e-13, -1.0, -1.0, 1.0)))
        results = {name: ok for name, _, _, ok in validation_checks()}
        assert results["lzm-distribution-vs-oracle"]
        monkeypatch.setattr(schemes, "SCHEMES", _broken((1.0 + 4e-13, -1.0, -1.0, 1.0)))
        scheme_distribution(Scheme.LZM, 1.0)


def _statuses(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "check,status,max_error,tolerance"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ROWS
    return {r[0]: r[1] for r in rows}


class TestFailurePath:
    def test_a_perturbed_closed_form_fails_exactly_its_rows(self, monkeypatch, capsys, tmp_path):
        spec = SCHEMES[Scheme.JBM]
        scaled = SchemeSpec(
            **{**vars(spec), "closed_form": lambda w: spec.closed_form(w) * (1.0 + 1e-8)}
        )
        monkeypatch.setattr(fisher, "SCHEMES", {**SCHEMES, Scheme.JBM: scaled})
        out = tmp_path / "report.csv"
        assert main(["validate", "--out", str(out)]) == 2
        capsys.readouterr()
        failed = {"mode-consistency-jbm-direct", "mode-consistency-jbm-path"}
        assert _statuses(out) == {name: "FAIL" if name in failed else "PASS" for name in ROWS}

    def test_a_shifted_oracle_output_fails_only_its_distribution_row(
        self, monkeypatch, capsys, tmp_path
    ):
        def shifted(params, _original=validation.pem_oracle_probabilities):
            probs = _original(params)
            probs["psi-"] = probs["psi-"] + 1e-9
            return probs

        monkeypatch.setattr(validation, "pem_oracle_probabilities", shifted)
        out = tmp_path / "report.csv"
        assert main(["validate", "--out", str(out)]) == 2
        capsys.readouterr()
        statuses = _statuses(out)
        assert statuses.pop("pem-distribution-vs-oracle") == "FAIL"
        assert set(statuses.values()) == {"PASS"}

    @pytest.mark.parametrize("side", ["_linear", "_werner"])
    def test_a_perturbed_swap_side_fails_only_the_swap_row(self, monkeypatch, capsys, tmp_path, side):
        # Mixed with 1e-9 of I/4: still a valid state, 1e-9 off the Werner product.
        def mixed(params, _original=getattr(validation, side)):
            return (1.0 - 1e-9) * _original(params) + 1e-9 * np.eye(4) / 4.0

        monkeypatch.setattr(validation, side, mixed)
        out = tmp_path / "report.csv"
        assert main(["validate", "--out", str(out)]) == 2
        capsys.readouterr()
        statuses = _statuses(out)
        assert statuses.pop("swap-multiplicativity") == "FAIL"
        assert set(statuses.values()) == {"PASS"}

    @pytest.mark.parametrize("side", ["_linear", "_werner"])
    def test_a_scaled_swap_side_is_rejected_as_a_state(self, monkeypatch, side):
        # Scaled by 1 + 1e-9, the trace misses 1 by 1e-9: the stack's validation
        # rejects it before the row compares the two sides.
        def scaled(params, _original=getattr(validation, side)):
            return _original(params) * (1.0 + 1e-9)

        monkeypatch.setattr(validation, side, scaled)
        with pytest.raises(ValueError, match="trace"):
            validation_checks()
