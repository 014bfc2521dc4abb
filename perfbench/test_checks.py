"""Tests of the benchmark's own checks: correct outputs pass, damaged ones fail.

    python3 -m pytest perfbench/test_checks.py

The outputs come from the program itself, run in-process from ``src/``.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

import checks
import reference as ref
from run import MANIFESTS, SRC, oracle_param_sets

sys.path.insert(0, str(SRC))
from qnetomo import cli, oracle  # noqa: E402


def run_cli(tmp_path: Path, *args: str) -> tuple:
    """(CSV text, stdout text) of one in-process CLI command."""
    out = tmp_path / "out.csv"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main([*args, "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8"), stdout.getvalue()


def manifest(stem: str, **overrides: str) -> tuple:
    path = MANIFESTS / f"{stem}.cfg"
    return str(path), {**cli._parse_config_file(str(path)), **overrides}


def bump_ninth_digit(token: str) -> str:
    """Change the ninth significant digit of a number by 5 (mod 10)."""
    mantissa, e, exponent = token.partition("e")
    chars = list(mantissa)
    significant = 0
    for i, ch in enumerate(chars):
        if ch.isdigit() and (significant or ch != "0"):
            significant += 1
            if significant == 9:
                chars[i] = str((int(ch) + 5) % 10)
                return "".join(chars) + e + exponent
    raise ValueError(f"{token} has fewer than nine significant digits")


def damage(text: str, column: int) -> str:
    """Bump the ninth digit of the first long enough value in a column."""
    lines = text.split("\n")
    for k in range(len(lines) // 2, len(lines) - 1):
        fields = lines[k].split(",")
        try:
            fields[column] = bump_ninth_digit(fields[column])
        except ValueError:
            continue
        lines[k] = ",".join(fields)
        return "\n".join(lines)
    raise AssertionError("no value with nine significant digits")


def test_single_link_passes_and_ninth_digit_fails(tmp_path):
    path, config = manifest("single_link")
    text, _ = run_cli(tmp_path, "single-link", "--config", path)
    assert checks.check_single_link(text, config) == []
    for column in (2, 3):
        assert checks.check_single_link(damage(text, column), config)


@pytest.mark.parametrize("mode", ["closed-form", "first-principles"])
def test_ratio_and_crossover(tmp_path, mode):
    path, config = manifest("ratio", mode=mode)
    text, notes = run_cli(tmp_path, "ratio", "--config", path, "--mode", mode)
    want = 3**-0.5 if mode == "closed-form" else 1 / 3
    assert abs(ref.crossover_w(mode, normalize=False) - want) < 1e-15
    assert checks.check_ratio(text, config, notes) == []
    assert checks.check_ratio(damage(text, 1), config, notes)
    assert checks.check_ratio(text, config, "crossover_w = 0.5\n")


@pytest.mark.parametrize("stem", ["star_homogeneous", "star_heterogeneous"])
def test_star_passes_and_ninth_digit_fails(tmp_path, stem):
    path, config = manifest(stem)
    text, _ = run_cli(tmp_path, "star", "--config", path)
    assert checks.check_star(text, config) == []
    assert checks.check_star(damage(text, 2), config)


def test_benchmark_crb_and_ratio_band(tmp_path):
    path, config = manifest("benchmark_jbm2")
    text, _ = run_cli(tmp_path, "benchmark", "--config", path)
    assert checks.check_benchmark(text, config) == []
    assert checks.check_benchmark(damage(text, 4), config)
    header, *rows = text.rstrip("\n").split("\n")
    fields = rows[0].split(",")
    variance, crb = float(fields[3]) * 3, float(fields[4])
    fields[3], fields[5] = f"{variance:.12g}", f"{variance / crb:.12g}"
    tripled = "\n".join([header, ",".join(fields), *rows[1:]]) + "\n"
    assert any("outside" in p for p in checks.check_benchmark(tripled, config))


def test_validate_rejects_fail_row(tmp_path):
    text, _ = run_cli(tmp_path, "validate")
    assert checks.check_validate(text) == []
    failing = text.replace("swap-multiplicativity,PASS", "swap-multiplicativity,FAIL")
    assert failing != text
    assert checks.check_validate(failing)
    assert checks.check_validate(text.replace(",1e-09\n", ",1e-06\n", 1))


def test_oracle_paths_pass_and_wrong_statistics_fail():
    schemes = {
        "LZM": oracle.lzm_oracle_probabilities,
        "JBM": oracle.jbm_oracle_probabilities,
        "PEM": oracle.pem_oracle_probabilities,
    }
    sets = oracle_param_sets(seed=7)
    assert {len(ws) for ws in sets} == {2, 3}
    assert checks.check_oracle_paths(schemes, sets) == []
    swapped = {"JBM": schemes["PEM"]}
    assert checks.check_oracle_paths(swapped, sets)
