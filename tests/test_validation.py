"""The checks behind ``qnetomo validate``: grouped mode gaps and the failure path."""

import math
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qnetomo import DensityMatrix, FisherMatrix, FisherMode, Scheme, task_qfim
from qnetomo import fisher, validation
from qnetomo.cli import main
from qnetomo.schemes import SCHEMES, SchemeSpec
from qnetomo.validation import _chain_task, _mode_gaps, validation_checks

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
        builds, matrices, states = [], [], []

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
        results = validation_checks()
        assert all(ok for *_, ok in results)
        # One stack per path length and mode: 1 link (JBM, PEM), 2 and 3 links
        # (LZM, JBM, PEM).
        closed, first = FisherMode.CLOSED_FORM, FisherMode.FIRST_PRINCIPLES
        assert Counter(builds) == {(2, closed): 1, (2, first): 1, (3, closed): 2, (3, first): 2}
        assert matrices == []
        # The two validated oracle stacks of swap-multiplicativity, complex as before.
        assert [(s.matrix.shape, s.matrix.dtype) for s in states] == [
            ((100, 4, 4), np.complex128),
            ((100, 4, 4), np.complex128),
        ]


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
