"""End-to-end tests of the command-line interface.

All invocations run in-process through cli.main so exit codes and streams
can be asserted directly; one smoke test goes through a real subprocess.
"""

import contextlib
import hashlib
import io
import os
import re
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnetomo import (
    FisherMatrix,
    FisherMode,
    Scheme,
    network,
    single_link_fisher,
    single_link_qcrb,
    validate_plan,
)
from qnetomo.cli import (
    MAX_CONFIG_CHARS,
    MAX_GRID_POINTS,
    MAX_ROUNDS,
    MAX_SAMPLES,
    _DEFAULTS,
    _benchmark_plan,
    _build_parser,
    _Parser,
    _fmt,
    _grid,
    build_config,
    main,
)

from helpers import constructed, watched_schemes

CLOSED = FisherMode.CLOSED_FORM
FIRST = FisherMode.FIRST_PRINCIPLES


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(path)


def run_lines(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


INFINITE_E0_NOTE = "note: link e0 has an infinite bound; ratio undefined"


class _NoLinearAlgebra:
    def __getattr__(self, name):
        raise AssertionError(f"np.linalg.{name} called")
ZERO_E0_NOTE = "note: link e0 has a zero bound and zero variance; ratio undefined"

SMALL_GRID = """\
    # three-point sweep
    experiment = single-link
    grid.start = 0.1
    grid.stop = 0.3
    grid.step = 0.1
    """


class TestSingleLink:
    def test_header_and_shape(self, capsys, tmp_path):
        cfg = write_config(tmp_path, SMALL_GRID)
        code, lines, _ = run_lines(capsys, ["single-link", "--config", cfg])
        assert code == 0
        assert lines[0] == "scheme,w,fisher,qcrb,mode,normalized"
        assert len(lines) == 1 + 3 * 3
        # w is the outer loop, schemes cycle inside
        assert [l.split(",")[0] for l in lines[1:4]] == ["LZM", "JBM", "PEM"]
        assert lines[1].split(",")[1] == "0.1" and lines[4].split(",")[1] == "0.2"
        assert all(len(l.split(",")) == 6 for l in lines[1:])

    def test_default_grid_has_99_points(self, capsys):
        code, lines, _ = run_lines(capsys, ["single-link"])
        assert code == 0
        assert len(lines) == 1 + 3 * 99
        assert lines[1].split(",")[1] == "0.01"
        assert lines[-1].split(",")[1] == "0.99"

    def test_closed_form_values(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path,
            """\
            experiment = single-link
            grid.start = 0.5
            grid.stop = 0.5
            grid.step = 0.1
            mode = closed-form
            """,
        )
        code, lines, _ = run_lines(capsys, ["single-link", "--config", cfg])
        assert code == 0
        by_scheme = {l.split(",")[0]: l.split(",") for l in lines[1:]}
        assert by_scheme["JBM"][3] == "0.4375"
        assert by_scheme["JBM"][2] == _fmt(single_link_fisher(Scheme.JBM, 0.5, CLOSED))
        assert by_scheme["LZM"][2] == _fmt(8.0 / 3.0)
        assert by_scheme["LZM"][4] == "closed-form" and by_scheme["LZM"][5] == "off"

    def test_mode_flag_overrides_config(self, capsys, tmp_path):
        cfg = write_config(tmp_path, SMALL_GRID + "mode = closed-form\n")
        code, lines, _ = run_lines(
            capsys, ["single-link", "--config", cfg, "--mode", "first-principles"]
        )
        assert code == 0
        assert all(l.split(",")[4] == "first-principles" for l in lines[1:])

    @pytest.mark.parametrize(
        "command, key, flag, default, in_file, in_flag",
        [
            (
                "single-link", "mode", "--mode", CLOSED,
                ("first-principles", FIRST), ("closed-form", CLOSED),
            ),
            ("single-link", "normalize", "--normalize", False, ("on", True), ("off", False)),
            ("benchmark", "seed", "--seed", 12345, ("7", 7), ("0", 0)),
            (
                "single-link", "output", "--out", None,
                ("file.csv", "file.csv"), ("flag.csv", "flag.csv"),
            ),
        ],
        ids=["mode", "normalize", "seed", "output"],
    )
    def test_flag_beats_file_beats_default(
        self, tmp_path, command, key, flag, default, in_file, in_flag
    ):
        def resolve(text, *flags):
            config = write_config(tmp_path, f"experiment = {command}\n" + text)
            args = _build_parser().parse_args([command, "--config", config, *flags])
            return build_config(command, args).get(key)

        assert resolve("") == default
        assert resolve(f"{key} = {in_file[0]}\n") == in_file[1]
        assert resolve(f"{key} = {in_file[0]}\n", flag, in_flag[0]) == in_flag[1]

    def test_normalize_halves_the_fused_scheme(self, capsys, tmp_path):
        cfg = write_config(tmp_path, SMALL_GRID)
        code, norm, _ = run_lines(
            capsys, ["single-link", "--config", cfg, "--normalize", "on"]
        )
        assert code == 0
        for line in norm[1:]:
            fields = line.split(",")
            scheme = Scheme[fields[0]]
            w = float(fields[1])
            assert fields[2] == _fmt(single_link_fisher(scheme, w, CLOSED, True))
            assert fields[5] == "on"

    @pytest.mark.parametrize("normalize", ["on", "off"])
    @pytest.mark.parametrize("mode", [CLOSED, FIRST])
    def test_each_scheme_information_is_computed_once(self, capsys, monkeypatch, mode, normalize):
        seen = watched_schemes(monkeypatch)
        code, lines, _ = run_lines(
            capsys, ["single-link", "--mode", mode.value, "--normalize", normalize]
        )
        # One J evaluation per scheme, each over the whole grid.
        assert code == 0 and [scheme for scheme, _ in seen] == list(Scheme)
        assert all(np.shape(w) == (len(lines[1:]) // len(Scheme),) for _, w in seen)
        # The bound column is still the library's single-link bound.
        monkeypatch.undo()
        for line in lines[1:]:
            scheme, w, _, bound, _, _ = line.split(",")
            expected = single_link_qcrb(Scheme[scheme], float(w), mode, normalize == "on")
            assert bound == _fmt(expected)

    def test_out_writes_identical_bytes_across_runs(self, capsys, tmp_path):
        cfg = write_config(tmp_path, SMALL_GRID)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["single-link", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["single-link", "--config", cfg, "--out", str(out2)]) == 0
        capsys.readouterr()
        data = out1.read_bytes()
        assert data == out2.read_bytes()
        assert b"\r" not in data and data.endswith(b"\n")


class TestRatio:
    def test_header_and_crossover_note_on_stderr(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path,
            """\
            experiment = ratio
            grid.start = 0.5
            grid.stop = 0.5
            grid.step = 0.1
            """,
        )
        code, lines, err = run_lines(capsys, ["ratio", "--config", cfg])
        assert code == 0
        assert lines[0] == "w,qcrb_lzm/qcrb_jbm"
        expected = single_link_qcrb(Scheme.LZM, 0.5, CLOSED) / single_link_qcrb(
            Scheme.JBM, 0.5, CLOSED
        )
        assert lines[1] == f"0.5,{_fmt(expected)}"
        assert "crossover_w = 0.577350269" in err

    def test_crossover_note_on_stdout_when_csv_goes_to_file(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path,
            """\
            experiment = ratio
            grid.start = 0.3
            grid.stop = 0.4
            grid.step = 0.1
            mode = first-principles
            """,
        )
        out = tmp_path / "ratio.csv"
        code, lines, err = run_lines(
            capsys, ["ratio", "--config", cfg, "--out", str(out)]
        )
        assert code == 0
        assert any("crossover_w = 0.3333333" in l for l in lines)
        assert err == ""
        assert out.read_text().startswith("w,qcrb_lzm/qcrb_jbm\n")
        assert "crossover" not in out.read_text()


class TestStar:
    def test_homogeneous_rows(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path,
            """\
            experiment = star
            grid.start = 0.5
            grid.stop = 0.6
            grid.step = 0.1
            """,
        )
        code, lines, _ = run_lines(capsys, ["star", "--config", cfg])
        assert code == 0
        assert lines[0] == "strategy,w,qcrb"
        assert len(lines) == 1 + 4 * 2
        assert [l.split(",")[0] for l in lines[1:5]] == ["JBM2", "JBM3", "HYB2", "HYB3"]
        by_strategy = {l.split(",")[0]: float(l.split(",")[2]) for l in lines[1:5]}
        # normalization defaults on for this command; fused-only plans win
        assert by_strategy["JBM2"] <= by_strategy["HYB2"] + 1e-12
        assert by_strategy["JBM3"] <= by_strategy["HYB3"] + 1e-12

    def test_heterogeneous_sweep_uses_fixed_parameters(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path,
            """\
            experiment = star
            grid.start = 0.99
            grid.stop = 0.99
            grid.step = 0.01
            fixed.w0 = 0.99
            fixed.w1 = 0.99
            """,
        )
        code, lines, _ = run_lines(capsys, ["star", "--config", cfg])
        assert code == 0
        values = {l.split(",")[0]: float(l.split(",")[2]) for l in lines[1:]}
        # all three links at 0.99 must match the homogeneous sweep at 0.99
        hom = write_config(
            tmp_path,
            """\
            experiment = star
            grid.start = 0.99
            grid.stop = 0.99
            grid.step = 0.01
            """,
            name="hom.cfg",
        )
        code2, lines2, _ = run_lines(capsys, ["star", "--config", hom])
        assert code2 == 0
        hom_values = {l.split(",")[0]: float(l.split(",")[2]) for l in lines2[1:]}
        for kind in ("JBM2", "JBM3", "HYB2", "HYB3"):
            assert abs(values[kind] - hom_values[kind]) < 1e-12

    @pytest.mark.parametrize("mode", ["closed-form", "first-principles"])
    def test_a_badly_scaled_star_gets_finite_bounds(self, capsys, tmp_path, mode):
        # With e0 at 1e-7 the plans' eigenvalues lie more than twelve orders
        # apart, yet every link is identifiable: each plan's integer incidence
        # bounds it, where an eigenvalue-ratio test called every plan singular.
        cfg = write_config(
            tmp_path,
            """\
            experiment = star
            grid.start = 0.1
            grid.stop = 0.3
            grid.step = 0.1
            fixed.w0 = 1e-7
            fixed.w1 = 0.9
            """,
        )
        code, lines, _ = run_lines(capsys, ["star", "--config", cfg, "--mode", mode])
        assert code == 0 and len(lines) == 1 + 4 * 3
        assert lines[2] == "JBM3,0.1,5.00000000001e+13"
        assert all(np.isfinite(float(l.split(",")[2])) for l in lines[1:])

        def jbm(w):
            return 12.0 * w * w / ((1.0 + 3.0 * w * w) * (1.0 - w * w))

        # JBM3 is diagonal: 6 channel uses a round times the sum of 1 / J.
        for line in lines[1:]:
            kind, w2, bound = line.split(",")
            if kind == "JBM3":
                expected = 6.0 * sum(1.0 / jbm(w) for w in (1e-7, 0.9, float(w2)))
                assert float(bound) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("mode", ["closed-form", "first-principles"])
    @pytest.mark.parametrize("manifest", ["star_homogeneous.cfg", "star_heterogeneous.cfg"])
    def test_each_star_command_builds_no_matrix(
        self, capsys, tmp_path, monkeypatch, manifest, mode
    ):
        # The four plans over every grid point are bounded as one batch, each
        # from its own integer incidence: no matrix, no eigen-solver and no inverse.
        built = constructed(monkeypatch, FisherMatrix)
        monkeypatch.setattr(np, "linalg", _NoLinearAlgebra())
        config = str(MANIFESTS / manifest)
        argv = ["star", "--config", config, "--mode", mode, "--out", str(tmp_path / "s.csv")]
        assert main(argv) == 0
        capsys.readouterr()
        assert built == []

    def test_shipped_sweep_evaluates_each_task_information_once_per_point(
        self, capsys, tmp_path, monkeypatch
    ):
        # The four plans hold 12 tasks over 6 distinct (scheme, path) pairs,
        # and the sweep has 99 points: J is evaluated at 6 x 99 path products,
        # in one call per task or in one call per task and point alike.
        seen = watched_schemes(monkeypatch)
        out = tmp_path / "star.csv"
        argv = ["star", "--config", str(MANIFESTS / "star_homogeneous.cfg"), "--out", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        assert sum(np.size(w) for _, w in seen) == 6 * 99

    def test_each_task_path_is_traced_once(self, capsys, tmp_path, monkeypatch):
        # 4 plans of 3 tasks each: one Path record per task, none thrown away.
        traced = constructed(monkeypatch, network.Path)
        out = tmp_path / "star.csv"
        argv = ["star", "--config", str(MANIFESTS / "star_homogeneous.cfg"), "--out", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        assert len(traced) == 12

    def test_incomplete_fixed_pair_rejected(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path,
            """\
            experiment = star
            fixed.w0 = 0.99
            """,
        )
        code, _, err = run_lines(capsys, ["star", "--config", cfg])
        assert code == 1
        assert "fixed.w0 and fixed.w1" in err


class TestBenchmark:
    BENCH = """\
        experiment = benchmark
        plan = PEM
        fixed.w = 0.6
        samples = 2000
        rounds = 20
        seed = 7
        """

    def test_output_and_determinism(self, capsys, tmp_path):
        cfg = write_config(tmp_path, self.BENCH)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["benchmark", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["benchmark", "--config", cfg, "--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == "plan,link,true_w,empirical_variance,crb,ratio"
        fields = lines[1].split(",")
        assert fields[0] == "PEM" and fields[1] == "e0" and fields[2] == "0.6"

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_single_link_plans_are_valid(self, scheme):
        # Both chain nodes are monitors and the one task covers the one link.
        for w in (0.0, 0.5, 1.0):
            plan, graph = _benchmark_plan({"plan": scheme.name, "fixed.w": w})
            validate_plan(graph, plan)
            assert plan.name == scheme.name and plan.covered_links() == {"e0"}

    def test_seed_flag_changes_the_sample(self, capsys, tmp_path):
        cfg = write_config(tmp_path, self.BENCH)
        code1, lines1, _ = run_lines(capsys, ["benchmark", "--config", cfg])
        code2, lines2, _ = run_lines(
            capsys, ["benchmark", "--config", cfg, "--seed", "8"]
        )
        assert code1 == 0 and code2 == 0
        assert lines1[1].split(",")[3] != lines2[1].split(",")[3]
        assert lines1[1].split(",")[4] == lines2[1].split(",")[4]

    def test_star_plan_produces_three_rows(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path,
            """\
            experiment = benchmark
            plan = HYB3
            fixed.w0 = 0.9
            fixed.w1 = 0.8
            fixed.w2 = 0.7
            samples = 2000
            rounds = 10
            """,
        )
        code, lines, _ = run_lines(capsys, ["benchmark", "--config", cfg])
        assert code == 0
        assert [l.split(",")[1] for l in lines[1:]] == ["e0", "e1", "e2"]
        assert [l.split(",")[2] for l in lines[1:]] == ["0.9", "0.8", "0.7"]

    @pytest.mark.parametrize("w0, rounds", [("0", 5), ("0.05", 50)])
    def test_unidentifiable_links_are_noted(self, capsys, tmp_path, w0, rounds):
        cfg = write_config(
            tmp_path,
            f"""\
            experiment = benchmark
            plan = HYB3
            fixed.w0 = {w0}
            fixed.w1 = 0.5
            fixed.w2 = 0.5
            samples = 100
            rounds = {rounds}
            """,
        )
        code, lines, err = run_lines(capsys, ["benchmark", "--config", cfg])
        assert code == 0
        nan_links = [l.split(",")[1] for l in lines[1:] if l.split(",")[3] == "nan"]
        assert nan_links == ["e1", "e2"]
        notes = err.splitlines()
        if w0 == "0":
            # e0 is identified in every round and its bound is finite: the LZM
            # tasks through it inform it, 1 / (100 (w1^2 + w2^2)).
            assert lines[1].split(",")[4] == "0.02"
        assert len(notes) == len(nan_links)
        for link, note in zip(nan_links, notes):
            prefix, _, tail = note.partition(" of ")
            assert prefix.startswith(f"note: link {link} unidentifiable in ")
            assert tail == f"{rounds} rounds"
            assert 1 <= int(prefix.rsplit(" ", 1)[1]) <= rounds
        out = tmp_path / "bench.csv"
        code, echoed, err = run_lines(capsys, ["benchmark", "--config", cfg, "--out", str(out)])
        assert code == 0 and err == ""
        assert echoed == notes and out.read_text().splitlines() == lines

    def test_infinite_bound_is_noted(self, capsys, tmp_path):
        # JBM informs nothing at W = 0, and every JBM3 task through e0 is one.
        cfg = write_config(
            tmp_path,
            """\
            experiment = benchmark
            plan = JBM3
            fixed.w0 = 0
            fixed.w1 = 0.5
            fixed.w2 = 0.5
            samples = 100
            rounds = 5
            """,
        )
        code, lines, err = run_lines(capsys, ["benchmark", "--config", cfg])
        assert code == 0
        assert lines[1] == "JBM3,e0,0,0.0308013606859,inf,nan"
        assert err.splitlines().count(INFINITE_E0_NOTE) == 1
        assert not any(l.startswith("note:") for l in lines)
        out = tmp_path / "bench.csv"
        code, echoed, err = run_lines(capsys, ["benchmark", "--config", cfg, "--out", str(out)])
        assert code == 0 and err == "" and echoed.count(INFINITE_E0_NOTE) == 1
        assert out.read_text().splitlines() == lines

    @pytest.mark.parametrize("plan", ["HYB2", "HYB3"])
    def test_hybrid_plans_at_a_dead_link_reach_no_linear_algebra(
        self, capsys, tmp_path, monkeypatch, plan
    ):
        # At w0 = 0 every task through e0 informs e0 alone, or nothing: the
        # edge rules bound the plan with no eigen-solver and no inverse.
        cfg = write_config(tmp_path, f"experiment = benchmark\nplan = {plan}\n" + _W0_ZERO)
        monkeypatch.setattr(np, "linalg", _NoLinearAlgebra())
        assert main(["benchmark", "--config", cfg]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[4] for row in rows] == [
            "0.04" if plan == "HYB2" else "0.02", "inf", "inf"
        ]

    def test_near_perfect_links_beside_a_dead_one_give_finite_bounds(self, capsys, tmp_path):
        # The plan matrix's eigenvalues span from about 1.5e12 down to 1e-15,
        # yet every link has a task of its own: the plan's integer incidence
        # bounds each one by 1 / (100 J), J the information on that link alone.
        cfg = write_config(
            tmp_path,
            """\
            experiment = benchmark
            plan = JBM2
            fixed.w0 = 0.999999999999
            fixed.w1 = 0.999999999999
            fixed.w2 = 0.00000001
            samples = 100
            rounds = 5
            """,
        )
        argv = ["benchmark", "--config", cfg, "--mode", "closed-form"]
        code, lines, err = run_lines(capsys, argv)
        assert code == 0 and "Traceback" not in err

        def jbm(w):
            return 12.0 * w * w / ((1.0 + 3.0 * w * w) * (1.0 - w * w))

        near, dead = 0.999999999999, 0.00000001
        # e2 is measured only through (e0, e2), whose g on e2 is w0.
        info = [jbm(near), jbm(near), near * near * jbm(near * dead)]
        crb = [float(l.split(",")[4]) for l in lines[1:]]
        assert crb == pytest.approx([1.0 / (100.0 * j) for j in info], rel=1e-9)

    @pytest.mark.parametrize(
        "fixed, samples, flags, crb",
        [
            # A link with no information beside two measured on their own.
            (("0", "0.5", "0.5"), 100, [], ["inf", "0.004375", "0.004375"]),
            # A diagonal plan whose information spans fourteen orders of magnitude.
            (
                ("0.5", "1e-7", "0.9"),
                1000,
                ["--mode", "first-principles"],
                ["0.0004375", "8333333333.33", "6.70473251029e-05"],
            ),
        ],
    )
    def test_each_identifiable_link_of_a_direct_plan_gets_its_own_bound(
        self, capsys, tmp_path, fixed, samples, flags, crb
    ):
        w0, w1, w2 = fixed
        cfg = write_config(
            tmp_path,
            f"""\
            experiment = benchmark
            plan = JBM3
            fixed.w0 = {w0}
            fixed.w1 = {w1}
            fixed.w2 = {w2}
            samples = {samples}
            rounds = 20
            seed = 1
            """,
        )
        code, lines, err = run_lines(capsys, ["benchmark", "--config", cfg, *flags])
        assert code == 0
        assert [l.split(",")[4] for l in lines[1:]] == crb
        infinite = [INFINITE_E0_NOTE] if crb[0] == "inf" else []
        assert err.splitlines() == infinite

    @pytest.mark.parametrize("plan", ["PEM", "LZM"])
    def test_zero_bound_and_zero_variance_is_noted(self, capsys, tmp_path, plan):
        cfg = write_config(
            tmp_path,
            f"""\
            experiment = benchmark
            plan = {plan}
            fixed.w = 1
            samples = 100
            rounds = 5
            """,
        )
        code, lines, err = run_lines(capsys, ["benchmark", "--config", cfg])
        assert code == 0
        assert lines[1] == f"{plan},e0,1,0,0,nan"
        assert err.splitlines() == [ZERO_E0_NOTE]
        out = tmp_path / "bench.csv"
        code, echoed, err = run_lines(capsys, ["benchmark", "--config", cfg, "--out", str(out)])
        assert code == 0 and err == "" and echoed == [ZERO_E0_NOTE]
        assert out.read_text().splitlines() == lines

    def test_identified_links_print_no_note(self, capsys, tmp_path):
        cfg = write_config(tmp_path, self.BENCH)
        code, lines, err = run_lines(capsys, ["benchmark", "--config", cfg])
        assert code == 0 and err == "" and "nan" not in "".join(lines)

    def test_missing_plan_key(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "experiment = benchmark\nfixed.w = 0.5\n")
        code, _, err = run_lines(capsys, ["benchmark", "--config", cfg])
        assert code == 1 and "plan" in err

    def test_star_plan_needs_three_parameters(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path,
            """\
            experiment = benchmark
            plan = JBM2
            fixed.w0 = 0.9
            fixed.w1 = 0.8
            """,
        )
        code, _, err = run_lines(capsys, ["benchmark", "--config", cfg])
        assert code == 1 and "fixed.w2" in err

    def test_unknown_plan(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path, "experiment = benchmark\nplan = XYZ\nfixed.w = 0.5\n"
        )
        code, _, err = run_lines(capsys, ["benchmark", "--config", cfg])
        assert code == 1 and "unknown plan" in err


class TestValidate:
    ROWS = [
        ("lzm-distribution-vs-oracle", "PASS", "1e-12"),
        ("jbm-distribution-vs-oracle", "PASS", "1e-12"),
        ("pem-distribution-vs-oracle", "PASS", "1e-12"),
        ("swap-multiplicativity", "PASS", "1e-12"),
        ("lzm-direct-mode-ratio-of-two", "PASS", "1e-12"),
        ("mode-consistency-lzm-path", "PASS", "1e-09"),
        ("mode-consistency-jbm-direct", "PASS", "1e-09"),
        ("mode-consistency-jbm-path", "PASS", "1e-09"),
        ("mode-consistency-pem-direct", "PASS", "1e-09"),
        ("mode-consistency-pem-path", "PASS", "1e-09"),
    ]

    def test_all_checks_pass(self, capsys):
        code, lines, _ = run_lines(capsys, ["validate"])
        assert code == 0
        assert lines[0] == "check,status,max_error,tolerance"
        rows = [tuple(l.split(",")[k] for k in (0, 1, 3)) for l in lines[1:]]
        assert rows == self.ROWS

    def test_csv_bytes_are_pinned(self, capsys, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["validate", "--out", str(out)]) == 0
        capsys.readouterr()
        digest = "6ddea052ffd4d85bd6384e6a4ace268c0fc503f5fb686341cbd68d4cc5ea0ff9"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_path_mode_cells_are_the_scalar_gaps(self, capsys):
        # The two path rows whose largest gap of J differs from the largest
        # gap of the J g g^T entries (3.46910000726e-16 and 2.40837442581e-16).
        code, lines, _ = run_lines(capsys, ["validate"])
        assert code == 0
        cells = {l.split(",")[0]: l.split(",")[2] for l in lines[1:]}
        assert cells["mode-consistency-lzm-path"] == "2.22022400465e-16"
        assert cells["mode-consistency-pem-path"] == "1.97294032963e-16"

    def test_distribution_checks_call_each_oracle_once_on_21_points(self, capsys, monkeypatch):
        from qnetomo import validation

        calls = []
        for name in (
            "lzm_oracle_probabilities",
            "jbm_oracle_probabilities",
            "pem_oracle_probabilities",
        ):

            def counted(params, _name=name, _original=getattr(validation, name)):
                calls.append((_name, [np.asarray(w).tolist() for w in params]))
                return _original(params)

            monkeypatch.setattr(validation, name, counted)
        assert main(["validate"]) == 0
        capsys.readouterr()
        points = [[k / 20 for k in range(21)]]
        assert calls == [
            ("lzm_oracle_probabilities", points),
            ("jbm_oracle_probabilities", points),
            ("pem_oracle_probabilities", points),
        ]

    def test_report_file_and_stdout_echo(self, capsys, tmp_path):
        out = tmp_path / "report.csv"
        code, lines, _ = run_lines(capsys, ["validate", "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines() == lines

    def test_empty_out_means_stdout(self, capsys, tmp_path, monkeypatch):
        # As for the other commands, an empty --out is treated as not given.
        monkeypatch.chdir(tmp_path)
        code, lines, err = run_lines(capsys, ["validate", "--out", ""])
        assert (code, err) == (0, "")
        assert lines[0] == "check,status,max_error,tolerance"
        assert [l.split(",")[0] for l in lines[1:]] == [row[0] for row in self.ROWS]
        assert list(tmp_path.iterdir()) == []


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["unknown-command"],
            ["single-link", "--bogus"],
            ["single-link", "--mode", "sideways"],
            ["benchmark", "--seed", "not-a-number"],
            ["benchmark", "--seed", "-1"],
            ["benchmark", "--normalize", "on"],
        ],
    )
    def test_usage_errors_exit_one(self, capsys, argv):
        assert main(argv) == 1
        capsys.readouterr()

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_lines(
            capsys, ["single-link", "--config", str(tmp_path / "absent.cfg")]
        )
        assert code == 1 and "cannot read config" in err

    def test_config_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "latin.cfg"
        path.write_bytes(b"mode = \xff\n")
        code, _, err = run_lines(capsys, ["single-link", "--config", str(path)])
        assert code == 1
        assert err.startswith("error: cannot read config file: 'utf-8' codec can't decode")
        assert len(err.splitlines()) == 1

    def test_config_file_with_byte_order_mark(self, capsys, tmp_path):
        text = "experiment = ratio\ngrid.step = 0.49\n"
        plain = write_config(tmp_path, text)
        marked = write_config(tmp_path, "\ufeff" + text, name="bom.cfg")
        expected = run_lines(capsys, ["ratio", "--config", plain])
        assert expected[0] == 0 and len(expected[1]) == 4
        assert run_lines(capsys, ["ratio", "--config", marked]) == expected

    def test_config_file_over_the_cap(self, capsys, tmp_path):
        path = tmp_path / "long.cfg"
        path.write_text("#" * MAX_CONFIG_CHARS + "\n", encoding="utf-8")
        code, _, err = run_lines(capsys, ["single-link", "--config", str(path)])
        assert code == 1
        assert err == f"error: config file is longer than {MAX_CONFIG_CHARS} characters\n"

    def test_config_file_at_the_cap(self, capsys, tmp_path):
        path = tmp_path / "full.cfg"
        path.write_text("#" * (MAX_CONFIG_CHARS - 1) + "\n", encoding="utf-8")
        code, lines, err = run_lines(capsys, ["ratio", "--config", str(path)])
        assert (code, lines[0]) == (0, "w,qcrb_lzm/qcrb_jbm")

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "experiment = single-link\nwibble = 3\n")
        code, _, err = run_lines(capsys, ["single-link", "--config", cfg])
        assert code == 1 and "wibble" in err

    def test_key_not_applicable_to_command(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "experiment = benchmark\nplan = PEM\nfixed.w = 0.5\ngrid.start = 0.1\n")
        code, _, err = run_lines(capsys, ["benchmark", "--config", cfg])
        assert code == 1 and "grid.start" in err

    @pytest.mark.parametrize("command", ["single-link", "ratio", "star"])
    def test_sweeps_take_no_seed(self, capsys, tmp_path, command):
        cfg = write_config(tmp_path, "seed = 7\n")
        assert run_lines(capsys, [command, "--config", cfg]) == (
            1, [], f"error: config key 'seed' is not applicable to {command}\n"
        )
        assert run_lines(capsys, [command, "--seed", "7"]) == (
            1, [], "error: unrecognized arguments: --seed 7\n"
        )

    @pytest.mark.parametrize(
        "command, key, flag, text, message",
        [
            (
                "single-link", "mode", "--mode", "sideways",
                "unknown mode 'sideways'; use closed-form or first-principles",
            ),
            (
                "ratio", "normalize", "--normalize", "maybe",
                "normalize must be on or off, got 'maybe'",
            ),
            ("benchmark", "seed", "--seed", "x", "seed must be an integer, got 'x'"),
            ("benchmark", "seed", "--seed", "-1", "seed must be non-negative, got -1"),
        ],
        ids=["mode", "normalize", "seed-not-an-integer", "seed-negative"],
    )
    def test_flag_and_file_give_the_same_error(
        self, capsys, tmp_path, command, key, flag, text, message
    ):
        cfg = write_config(tmp_path, f"{key} = {text}\n")
        assert run_lines(capsys, [command, "--config", cfg]) == (1, [], f"error: {message}\n")
        assert run_lines(capsys, [command, flag, text]) == (1, [], f"error: {message}\n")

    def test_experiment_command_mismatch(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "experiment = ratio\n")
        code, _, err = run_lines(capsys, ["single-link", "--config", cfg])
        assert code == 1 and "does not match" in err

    def test_malformed_line(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "experiment single-link\n")
        code, _, err = run_lines(capsys, ["single-link", "--config", cfg])
        assert code == 1 and "key = value" in err

    def test_duplicate_key(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "seed = 1\nseed = 2\n")
        code, _, err = run_lines(capsys, ["single-link", "--config", cfg])
        assert code == 1 and "duplicate" in err

    def test_grid_outside_supported_range(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path,
            "experiment = single-link\ngrid.start = 0\ngrid.stop = 0.5\ngrid.step = 0.1\n",
        )
        code, _, err = run_lines(capsys, ["single-link", "--config", cfg])
        assert code == 1 and "grid" in err

    @pytest.mark.parametrize("step", ["-0.1", "0"])
    def test_nonpositive_step(self, capsys, tmp_path, step):
        cfg = write_config(
            tmp_path,
            f"experiment = single-link\ngrid.start = 0.1\ngrid.stop = 0.5\ngrid.step = {step}\n",
        )
        code, lines, err = run_lines(capsys, ["single-link", "--config", cfg])
        assert (code, lines, err) == (1, [], "error: grid.step must be positive\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            pytest.param(line, message, id=line)
            for line, message in [
                ("grid.step = nan", "grid.step must be a finite number, got 'nan'"),
                ("grid.step = inf", "grid.step must be a finite number, got 'inf'"),
                ("seed = -1", "seed must be non-negative, got -1"),
                ("grid.step = abc", "grid.step must be a number, got 'abc'"),
                ("fixed.w0 = abc", "fixed.w0 must be a number, got 'abc'"),
            ]
        ],
    )
    def test_non_finite_number_or_negative_seed(self, capsys, tmp_path, line, message):
        # Run under the first command that takes the key.
        command = next(c for c, keys in _DEFAULTS.items() if line.split()[0] in keys)
        cfg = write_config(tmp_path, f"experiment = {command}\n{line}\n")
        assert run_lines(capsys, [command, "--config", cfg]) == (1, [], f"error: {message}\n")

    @pytest.mark.parametrize(
        "text",
        [
            "experiment = single-link\ngrid.step = 1e-300\n",
            "experiment = single-link\ngrid.step = 5e-324\n",
            "experiment = benchmark\nplan = PEM\nfixed.w = 0.5\n"
            "samples = 1000000000000000000000\n",
            f"experiment = benchmark\nplan = PEM\nfixed.w = 0.5\nrounds = {MAX_ROUNDS + 1}\n",
            # One grid point over the cap, the twin of test_caps_are_inclusive.
            f"experiment = single-link\ngrid.step = {0.98 / MAX_GRID_POINTS!r}\n",
        ],
    )
    def test_size_over_cap(self, capsys, tmp_path, text):
        command = text.split("\n")[0].split(" = ")[1]
        cfg = write_config(tmp_path, text)
        code, lines, err = run_lines(capsys, [command, "--config", cfg])
        assert code == 1 and lines == []
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_mode_has_only_hyphenated_spellings(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "experiment = single-link\nmode = first_principles\n")
        code, lines, err = run_lines(capsys, ["single-link", "--config", cfg])
        assert code == 1 and lines == []
        assert err.splitlines() == [
            "error: unknown mode 'first_principles'; use closed-form or first-principles"
        ]

    def test_caps_are_inclusive(self, tmp_path):
        bench = write_config(
            tmp_path,
            f"experiment = benchmark\nplan = PEM\nfixed.w = 0.5\n"
            f"samples = {MAX_SAMPLES}\nrounds = {MAX_ROUNDS}\n",
        )
        args = _build_parser().parse_args(["benchmark", "--config", bench])
        cfg = build_config("benchmark", args)
        assert (cfg["samples"], cfg["rounds"]) == (MAX_SAMPLES, MAX_ROUNDS)
        step = 0.98 / (MAX_GRID_POINTS - 1)
        sweep = write_config(tmp_path, f"experiment = single-link\ngrid.step = {step!r}\n")
        args = _build_parser().parse_args(["single-link", "--config", sweep])
        assert len(_grid(build_config("single-link", args))) == MAX_GRID_POINTS

    def test_fixed_value_outside_unit_interval(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path,
            "experiment = benchmark\nplan = PEM\nfixed.w = 1.5\n",
        )
        code, _, err = run_lines(capsys, ["benchmark", "--config", cfg])
        assert code == 1 and "[0, 1]" in err

    def test_unwritable_output_path(self, capsys, tmp_path):
        code, _, err = run_lines(
            capsys,
            ["single-link", "--out", str(tmp_path / "no" / "such" / "dir" / "x.csv")],
        )
        assert code == 1 and "error:" in err


def test_subprocess_smoke(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(textwrap.dedent(SMALL_GRID), encoding="utf-8")
    # The child imports the same source tree as this process, installed or not.
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-m", "qnetomo.cli", "single-link", "--config", str(cfg)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert result.stdout.startswith("scheme,w,fisher,qcrb,mode,normalized\n")


ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MANIFESTS = ROOT / "manifests"
README = ROOT / "README.md"


def test_readme_key_table_names_every_config_key():
    """Each key's rows name exactly the commands whose table has that key."""
    table = README.read_text(encoding="utf-8").split("\nKeys:\n", 1)[1].split("\n\n", 1)[0]
    groups = {"all": set(_DEFAULTS), "sweeps": {"single-link", "ratio", "star"}}
    commands_of = {}
    for row in table.splitlines()[2:]:
        cells = row.split("|")
        commands = groups.get(cells[2].strip()) or set(re.findall(r"`([^`]+)`", cells[2]))
        for name in re.findall(r"`([^`]+)`", cells[1]):
            # `fixed.w0..w2` stands for fixed.w0, fixed.w1 and fixed.w2.
            span = re.fullmatch(r"(.*\.(\w+?))(\d)\.\.\2(\d)", name)
            if span:
                low, high = int(span[3]), int(span[4])
                names = [f"{span[1]}{i}" for i in range(low, high + 1)]
            else:
                names = [name]
            for key in names:
                commands_of.setdefault(key, set()).update(commands)
    expected = {}
    for command, keys in _DEFAULTS.items():
        for key in keys:
            expected.setdefault(key, set()).add(command)
    assert commands_of == expected


STAR_HOMOGENEOUS_SHA256 = "b10da683442cdad275db4e84317b4c717b2c0ee2facf3e17bf2f9c12cbdef717"


class TestPinnedSweeps:
    """SHA-256 of sweep CSVs, pinned to the per-point computation's output.

    The batched information core must reproduce every byte, the infinite
    (w0 = w1 = 1) and singular (w0 = 0) star rows included.
    """

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["single-link", "single_link.cfg"],
                "cbc30ab05c3317fb621f0c486b8fd86a6505566b41e7de09dc35d9f5f2c40a7f",
            ),
            (
                ["ratio", "ratio.cfg"],
                "dcc5ffbce481fd216829dfaa33e107b4a25d59ceb9e4a9e709a1f7b651422b3f",
            ),
            (["star", "star_homogeneous.cfg"], STAR_HOMOGENEOUS_SHA256),
            (
                ["star", "star_heterogeneous.cfg"],
                "467e6698afab1836efdc0d5d5a2838b8ad2c249779a064880d09b2ce891c0630",
            ),
            (
                ["star", "star_heterogeneous.cfg", "--mode", "first-principles"],
                "467e6698afab1836efdc0d5d5a2838b8ad2c249779a064880d09b2ce891c0630",
            ),
        ],
    )
    def test_manifest_csv(self, capsys, tmp_path, argv, digest):
        command, manifest, *flags = argv
        out = tmp_path / "sweep.csv"
        argv = [command, "--config", str(MANIFESTS / manifest), *flags, "--out", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "fixed, flags, digest",
        [
            (
                "fixed.w0 = 1.0\nfixed.w1 = 1.0\n",
                [],
                "0a64af6627dce3abd280a4e3b95fb8ed4ebb1d23b9ef4a7eee6d01e454ab44a9",
            ),
            (
                "fixed.w0 = 0.0\nfixed.w1 = 0.5\n",
                [],
                "f37f05010bdf9a462d0a7bbc59bc128157a204e37f8f918ea00be92161b2d8b5",
            ),
            (
                "fixed.w0 = 1.0\nfixed.w1 = 1.0\n",
                ["--mode", "first-principles", "--normalize", "off"],
                "5bbfc7115bdb16cb6ecaeddf28421cd10747fc228afeb1b2f8deb928a58c442e",
            ),
            (
                "fixed.w0 = 0.0\nfixed.w1 = 0.5\n",
                ["--mode", "first-principles", "--normalize", "off"],
                "f37f05010bdf9a462d0a7bbc59bc128157a204e37f8f918ea00be92161b2d8b5",
            ),
        ],
    )
    def test_star_edge_rows(self, capsys, tmp_path, fixed, flags, digest):
        cfg = write_config(tmp_path, "grid.start = 0.01\ngrid.stop = 0.05\n" + fixed)
        out = tmp_path / "star.csv"
        assert main(["star", "--config", cfg, *flags, "--out", str(out)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestParserReuse:
    """``main`` builds its parser once per process and keeps no state in it."""

    def star_digest(self, capsys, tmp_path, *flags):
        out = tmp_path / "star.csv"
        argv = ["star", "--config", str(MANIFESTS / "star_homogeneous.cfg"), *flags]
        assert main([*argv, "--out", str(out)]) == 0
        capsys.readouterr()
        return hashlib.sha256(out.read_bytes()).hexdigest()

    def test_one_parser_for_every_command(self, capsys, tmp_path, monkeypatch):
        _build_parser.cache_clear()
        built = []
        original = _Parser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            original(self, *args, **kwargs)

        monkeypatch.setattr(_Parser, "__init__", counted)
        bench = write_config(tmp_path, TestBenchmark.BENCH, name="bench.cfg")
        for argv in (
            ["single-link", "--config", str(MANIFESTS / "single_link.cfg")],
            ["ratio", "--config", str(MANIFESTS / "ratio.cfg")],
            ["star", "--config", str(MANIFESTS / "star_homogeneous.cfg")],
            ["benchmark", "--config", bench],
            ["validate"],
        ):
            assert main(argv) == 0
        capsys.readouterr()
        # One top-level parser; each subcommand parser is a _Parser too.
        assert built.count("qnetomo") == 1
        assert len(built) == 6

    def test_flags_do_not_carry_over(self, capsys, tmp_path):
        _build_parser.cache_clear()
        self.star_digest(capsys, tmp_path, "--mode", "first-principles", "--normalize", "off")
        assert self.star_digest(capsys, tmp_path) == STAR_HOMOGENEOUS_SHA256

    def test_parse_error_leaves_no_state(self, capsys, tmp_path):
        _build_parser.cache_clear()
        code, _, err = run_lines(capsys, ["star", "--mode", "bogus"])
        assert code == 1
        assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
        assert self.star_digest(capsys, tmp_path) == STAR_HOMOGENEOUS_SHA256

    def test_help_twice(self, capsys):
        _build_parser.cache_clear()
        outputs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exit_info:
                main(["--help"])
            assert exit_info.value.code == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[0].out.startswith("usage: qnetomo")


_W0_ZERO = "fixed.w0 = 0\nfixed.w1 = 0.5\nfixed.w2 = 0.5\nsamples = 100\nrounds = 5\n"
_HYB3_SMALL = (
    "plan = HYB3\nfixed.w0 = 0.9\nfixed.w1 = 0.8\nfixed.w2 = 0.7\nsamples = 2000\nrounds = 20\n"
)


class TestPinnedBenchmarks:
    """SHA-256 of benchmark CSVs and the exact notes, pinned to the per-stream sampler.

    The digests were taken from the sampler that seeds and draws one
    ``sample_outcomes`` stream at a time and solves one round at a time; the
    batched sampler and solver must reproduce every byte.  The CSV goes to
    stdout, so the notes go to stderr.
    """

    @pytest.mark.parametrize(
        "config, flags, digest, notes",
        [
            (
                "benchmark_jbm2.cfg",
                [],
                "83fd8a57e3d7caea5781bcf8cffcc28edef66d031e3f05c8a169bb96eace006c",
                [],
            ),
            (
                "benchmark_pem_single.cfg",
                [],
                "c31a66d71cc29d6009c8f38ff81e92a81d00cbdf2121bd13e2e6d1937945bcc0",
                [],
            ),
            (
                "plan = HYB3\nfixed.w0 = 0.95\nfixed.w1 = 0.85\nfixed.w2 = 0.75\n"
                "samples = 20000\nrounds = 1000\nmode = first-principles\nseed = 12345\n",
                [],
                "e76017f92e75849a14b7c099def936b6d5a1bc11b5513b49bdc6bcd89200df2d",
                [],
            ),
            (
                "plan = HYB3\n" + _W0_ZERO,
                [],
                "b42eccd198d5ffcc68723d44017d80ed80b9554f00bff8fe8de86eff9dd56ad1",
                [
                    "note: link e1 unidentifiable in 3 of 5 rounds",
                    "note: link e2 unidentifiable in 3 of 5 rounds",
                ],
            ),
            (
                "plan = HYB2\n" + _W0_ZERO,
                [],
                "47518af447d98760e9c9fd3af30de61d3ba3709c6aa307b79029061d7cd78e20",
                [
                    "note: link e1 unidentifiable in 3 of 5 rounds",
                    "note: link e2 unidentifiable in 3 of 5 rounds",
                ],
            ),
            (
                "plan = JBM2\n" + _W0_ZERO,
                [],
                "52f86d65172c68241f4deb81230860478506b0231b95b2aa6313ccca1f9c40cf",
                [INFINITE_E0_NOTE, "note: link e2 unidentifiable in 3 of 5 rounds"],
            ),
            (
                "plan = JBM3\n" + _W0_ZERO,
                [],
                "b9a82db11668a1e9e2ff2af4505253a6052805226b17106f6982346ca01053f8",
                [INFINITE_E0_NOTE],
            ),
            (
                "plan = PEM\nfixed.w = 1\nsamples = 100\nrounds = 5\n",
                [],
                "df7d444656196ae1732f4138379eac4819e32d22137c86e66228a12164a778ca",
                [ZERO_E0_NOTE],
            ),
            (
                _HYB3_SMALL,
                ["--seed", "0"],
                "874f97bd2fca807fad67c2dd107f2ede812ed7fbf7d2832b9cbd2a63118b8570",
                [],
            ),
            (
                _HYB3_SMALL,
                ["--seed", str(2**32)],
                "ff66c9a672ce515863ce4c327919eeb5fc6fb94c6b6b3fb8befe5fc892d08d61",
                [],
            ),
            (
                _HYB3_SMALL,
                ["--seed", str(2**64 + 1)],
                "c38bc8f2ad9a99d1db8bfa26778b0b7cf13987c2ebfbdcace54335fe2cdb8eae",
                [],
            ),
            (
                _HYB3_SMALL,
                ["--seed", str(2**128 + 1)],
                "321e8ce35e56cf055d6aca98402430a07a5c599af9092183dcc86a744114bb9b",
                [],
            ),
        ],
        ids=[
            "jbm2-manifest",
            "pem-manifest",
            "hyb3-20000x1000",
            "hyb3-w0-zero",
            "hyb2-w0-zero",
            "jbm2-w0-zero",
            "jbm3-w0-zero",
            "pem-w-one",
            "seed-0",
            "seed-2^32",
            "seed-2^64+1",
            "seed-2^128+1",
        ],
    )
    def test_csv_and_notes(self, capsys, tmp_path, config, flags, digest, notes):
        if config.endswith(".cfg"):
            path = str(MANIFESTS / config)
        else:
            path = write_config(tmp_path, "experiment = benchmark\n" + config)
        assert main(["benchmark", "--config", path, *flags]) == 0
        captured = capsys.readouterr()
        assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == digest
        assert captured.err == "".join(f"{note}\n" for note in notes)


def _numbers(low, high):
    return st.floats(low, high).map(repr) | st.integers(-5, 5).map(str)


_SPECIAL = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e400", "abc", "", "0x10"])
_HUGE = st.integers(10**10, 10**40).map(str)
_GENERIC = _numbers(-2.0, 2.0) | _SPECIAL | _HUGE | st.text(max_size=6)
# Valid values stay small: grids step at least 0.01, samples and rounds at most 1000.
_CONFIG_VALUES = {
    "experiment": st.sampled_from(["single-link", "ratio", "star", "benchmark", "validate", "x"]),
    "mode": st.sampled_from(["closed-form", "first-principles", "first_principles", "exact"]),
    "normalize": st.sampled_from(["on", "off", "yes"]),
    "seed": st.integers(-3, 10**30).map(str) | _SPECIAL,
    "grid.start": _numbers(-0.5, 1.5) | _SPECIAL | _HUGE,
    "grid.stop": _numbers(-0.5, 1.5) | _SPECIAL | _HUGE,
    "grid.step": st.floats(0.01, 1.0).map(repr) | _SPECIAL | _HUGE | st.just("-0.1"),
    "samples": st.integers(-2, 1000).map(str) | _SPECIAL | _HUGE,
    "rounds": st.integers(-2, 1000).map(str) | _SPECIAL | _HUGE,
    "plan": st.sampled_from(["JBM2", "JBM3", "HYB2", "HYB3", "LZM", "JBM", "PEM", "XYZ"]),
    "fixed.w": _numbers(-0.5, 1.5) | _SPECIAL,
    "fixed.w0": _numbers(-0.5, 1.5) | _SPECIAL,
    "fixed.w1": _numbers(-0.5, 1.5) | _SPECIAL,
    "fixed.w2": _numbers(-0.5, 1.5) | _SPECIAL,
    "fixed.w3": _GENERIC,
    "grid.size": _GENERIC,
    "colour": _GENERIC,
}
_ANY_LINE = st.sampled_from(sorted(_CONFIG_VALUES)).flatmap(
    lambda key: _CONFIG_VALUES[key].map(lambda value: f"{key} = {value}")
) | st.sampled_from(["# comment", "no separator", "= 0.5", "   "])
_PLAN_KEYS = {
    "benchmark": [
        {"plan": st.sampled_from(["LZM", "JBM", "PEM"]), "fixed.w": _CONFIG_VALUES["fixed.w"]},
        {
            "plan": st.sampled_from(["JBM2", "JBM3", "HYB2", "HYB3"]),
            **{key: _CONFIG_VALUES[key] for key in ("fixed.w0", "fixed.w1", "fixed.w2")},
        },
    ],
    "star": [{}, {key: _CONFIG_VALUES[key] for key in ("fixed.w0", "fixed.w1")}],
}


def _config_text(command):
    """Keys that apply to the command, a plan when it needs one, then any lines."""
    optional = {key: _CONFIG_VALUES[key] for key in _DEFAULTS.get(command, ()) if key != "output"}
    optional["experiment"] = st.sampled_from([command, command, "star"])
    bodies = [
        st.fixed_dictionaries(
            required, optional={k: v for k, v in optional.items() if k not in required}
        )
        for required in _PLAN_KEYS.get(command, [{}])
    ]
    return st.tuples(st.one_of(bodies), st.lists(_ANY_LINE, max_size=1)).map(
        lambda parts: [f"{k} = {v}" for k, v in parts[0].items()] + parts[1]
    )


_FLAGS = st.sampled_from(
    [
        ["--config", "{config}"],
        ["--config", "{missing}"],
        ["--out", "{out}"],
        ["--mode", "closed-form"],
        ["--mode", "first-principles"],
        ["--mode", "exact"],
        ["--normalize", "on"],
        ["--normalize", "off"],
        ["--seed", "7"],
        ["--seed", "-1"],
        ["--seed", "99999999999999999999999"],
        ["--seed", "nan"],
        ["--bogus"],
        ["--mode"],
    ]
)


class TestFuzzedInputs:
    """Any config text and flags end in exit 0, or in exit 1 with one error line."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        st.sampled_from(["single-link", "ratio", "star", "benchmark", "validate"]).flatmap(
            lambda command: st.tuples(st.just(command), _config_text(command))
        ),
        st.lists(_FLAGS, max_size=3),
    )
    def test_exit_code_and_single_error_line(self, case, flags):
        command, lines = case
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "run.cfg"
            config.write_text("\n".join(lines) + "\n", encoding="utf-8")
            paths = {"config": config, "missing": Path(tmp) / "none.cfg", "out": Path(tmp) / "o.csv"}
            argv = [command] if command == "validate" else [command, "--config", str(config)]
            argv += [arg.format(**paths) for flag in flags for arg in flag]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
        err = stderr.getvalue()
        assert code in (0, 1)
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == (1 if code == 1 else 0)
