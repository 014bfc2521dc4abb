"""The checks behind ``qnetomo validate``: all-scheme mode gaps, batched tables, the failure path."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnetomo import DensityMatrix, FisherMatrix, FisherMode, OutcomeDistribution, Scheme
from qnetomo import fisher, schemes, validation
from qnetomo.cli import main
from qnetomo.schemes import SCHEMES, SchemeSpec, scheme_distribution
from qnetomo.validation import _distribution_gap, _mode_gaps, validation_checks

from helpers import _chain_task, constructed

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


def _per_point_mode_gap(scheme, grid):
    """The mode gap of one scheme from J at each point alone, largest over the points.

    Each point's J is the scalar rule on that point's links, one mode at a
    time; a nan at any point makes the gap nan.
    """
    gaps = []
    for point in grid:
        ws = [np.float64(w) for w in point]
        closed, first = (fisher._rank_one(scheme, ws, mode) for mode in FisherMode)
        with np.errstate(invalid="ignore"):
            gap = np.abs(closed - first) / np.maximum(np.abs(closed), np.abs(first))
        gaps.append(0.0 if closed == first else float(gap))
    return float(np.max(gaps))


def _assert_per_task_gaps(gaps, grid):
    assert list(gaps) == list(Scheme)
    for scheme, got in gaps.items():
        want = _per_point_mode_gap(scheme, grid)
        assert (math.isnan(got) and math.isnan(want)) or got == want


_VALUE = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.01, 0.99))
# Points of one path length, 1 to 3 links.
_GRID = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(_VALUE, min_size=n, max_size=n), min_size=1, max_size=6)
)


def _closed_form_replaced(monkeypatch, scheme, closed_form):
    spec = SCHEMES[scheme]
    broken = SchemeSpec(**{**vars(spec), "closed_form": closed_form})
    monkeypatch.setattr(fisher, "SCHEMES", {**SCHEMES, scheme: broken})


class TestGroupedModeGaps:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_GRID)
    def test_equal_to_the_per_task_gaps(self, grid):
        _assert_per_task_gaps(_mode_gaps(grid), grid)

    def test_a_nan_gap_stays_with_its_row(self, monkeypatch):
        # Closed form infinite where first principles is finite: a nan gap.
        _closed_form_replaced(monkeypatch, Scheme.PEM, lambda w: w * math.inf)
        for grid in ([[0.5], [0.4]], [[0.4, 0.3], [0.5, 0.2]]):
            gaps = _mode_gaps(grid)
            assert math.isnan(gaps[Scheme.PEM])
            _assert_per_task_gaps(gaps, grid)

    def test_validate_builds_no_matrix_and_no_entries(self, monkeypatch):
        # The mode rows read J alone: every task or plan information call
        # builds a matrix, and none is built.
        classes = (FisherMatrix, DensityMatrix, OutcomeDistribution)
        built = {cls: constructed(monkeypatch, cls) for cls in classes}
        results = validation_checks()
        assert all(ok for *_, ok in results)
        assert built[FisherMatrix] == []
        # Both sides of swap-multiplicativity in one real validated stack; the
        # scheme tables are checked as batches, with no per-point record.
        states = [(s.matrix.shape, s.matrix.dtype) for s in built[DensityMatrix]]
        assert states == [((2, 100, 4, 4), np.float64)]
        assert built[OutcomeDistribution] == []
        # The probe sees what it counts: one task matrix is one matrix.
        fisher.task_qfim(*_chain_task(Scheme.PEM, [0.5, 0.4]), FisherMode.CLOSED_FORM)
        assert len(built[FisherMatrix]) == 1


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

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("band", [(0.0095, 0.0105), (0.0, 0.009)], ids=["2-link", "3-link"])
    def test_a_nan_gap_in_one_path_stack_fails_its_path_row(self, monkeypatch, scheme, band):
        # Only 0.1 * 0.1 among the 2-link products falls in the first band, and
        # only 0.2 ** 3 among the 3-link products below 0.009; no 1-link point
        # is under 0.05.  There the closed form is infinite: a nan gap in one
        # stack, which the path row must keep.
        low, high = band
        spec = SCHEMES[scheme]
        _closed_form_replaced(
            monkeypatch,
            scheme,
            lambda w: np.where((low <= w) & (w < high), math.inf, spec.closed_form(w)),
        )
        results = {name: (err, ok) for name, err, _, ok in validation_checks()}
        err, ok = results.pop(f"mode-consistency-{scheme.value.lower()}-path")
        assert math.isnan(err) and not ok
        assert all(ok for _, ok in results.values())

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
