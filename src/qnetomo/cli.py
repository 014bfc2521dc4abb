"""Command-line front-end: parameter sweeps, oracle validation, benchmarks.

Subcommands: single-link, ratio, star, validate, benchmark.  Results are CSV
with a fixed header per command, values at 12 significant digits, and
byte-identical output for identical config and seed.  Exit codes: 0 success,
1 invalid config, 2 validation failure.  This module parses flags and config
files and formats rows; the checks ``validate`` reports live in
``qnetomo.validation``.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .estimators import benchmark_variance
from .fisher import (
    FisherMode,
    crossover,
    plan_qfim,
    qcrb,
    single_link_fisher,
    single_link_qcrb,
)
from .network import (
    BUILTIN_PLAN_KINDS,
    MeasurementTask,
    MonitoringPlan,
    Scheme,
    _chain,
    build_star,
    builtin_plan,
    trace_path,
    validate_plan,
)
from .validation import validation_checks

EXIT_OK = 0
EXIT_BAD_CONFIG = 1
EXIT_VALIDATION_FAILED = 2

DEFAULT_SEED = 12345
DEFAULT_SAMPLES = 100000
DEFAULT_ROUNDS = 200
GRID_MIN = 0.01
GRID_MAX = 0.99
# Size caps: larger requests are a ConfigError rather than an unbounded run.
MAX_GRID_POINTS = 100_000
MAX_SAMPLES = 10**9
MAX_ROUNDS = 10**6

_BASE_KEYS = {"experiment", "mode", "seed", "output"}
_GRID_KEYS = {"grid.start", "grid.stop", "grid.step"}
_ALLOWED_KEYS = {
    "single-link": _BASE_KEYS | _GRID_KEYS | {"normalize"},
    "ratio": _BASE_KEYS | _GRID_KEYS | {"normalize"},
    "star": _BASE_KEYS | _GRID_KEYS | {"normalize", "fixed.w0", "fixed.w1"},
    "benchmark": _BASE_KEYS
    | {"samples", "rounds", "plan", "fixed.w", "fixed.w0", "fixed.w1", "fixed.w2"},
}


class ConfigError(Exception):
    """Invalid configuration, flags, or run manifest."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; that code is reserved for
    # validation failures, so parse errors become ConfigError (exit 1).
    def error(self, message: str) -> None:
        raise ConfigError(message)


@dataclass
class RunConfig:
    """Merged run settings: defaults, then config file, then CLI flags."""

    command: str
    mode: FisherMode
    normalize: bool
    seed: int
    grid_start: float = GRID_MIN
    grid_stop: float = GRID_MAX
    grid_step: float = 0.01
    samples: int = DEFAULT_SAMPLES
    rounds: int = DEFAULT_ROUNDS
    fixed: dict = field(default_factory=dict)
    plan: str | None = None
    output: str | None = None


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _onoff(flag: bool) -> str:
    return "on" if flag else "off"


def _parse_mode(text: str) -> FisherMode:
    normalized = text.replace("_", "-")
    for mode in FisherMode:
        if mode.value == normalized:
            return mode
    raise ConfigError(f"unknown mode {text!r}; use closed-form or first-principles")


def _parse_onoff(text: str, key: str) -> bool:
    if text == "on":
        return True
    if text == "off":
        return False
    raise ConfigError(f"{key} must be on or off, got {text!r}")


def _parse_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    table: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"config line {lineno}: expected 'key = value'")
        if key in table:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        table[key] = value
    return table


def _take_float(table: Mapping[str, str], key: str, default: float) -> float:
    if key not in table:
        return default
    try:
        value = float(table[key])
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {table[key]!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {table[key]!r}")
    return value


def _take_int(table: Mapping[str, str], key: str, default: int) -> int:
    if key not in table:
        return default
    try:
        return int(table[key])
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {table[key]!r}") from None


def build_config(command: str, args: argparse.Namespace) -> RunConfig:
    table = _parse_config_file(args.config) if args.config else {}
    allowed = _ALLOWED_KEYS[command]
    for key in table:
        if key not in allowed:
            raise ConfigError(f"config key {key!r} is not applicable to {command}")
    experiment = table.get("experiment", command)
    if experiment != command:
        raise ConfigError(
            f"config experiment={experiment!r} does not match command {command!r}"
        )

    default_mode = "first-principles" if command == "benchmark" else "closed-form"
    mode = _parse_mode(args.mode or table.get("mode", default_mode))

    default_normalize = "on" if command == "star" else "off"
    normalize_text = getattr(args, "normalize", None) or table.get(
        "normalize", default_normalize
    )
    normalize = _parse_onoff(normalize_text, "normalize")

    seed = args.seed if args.seed is not None else _take_int(table, "seed", DEFAULT_SEED)
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")

    cfg = RunConfig(command=command, mode=mode, normalize=normalize, seed=seed)
    cfg.output = args.out or table.get("output")
    cfg.grid_start = _take_float(table, "grid.start", GRID_MIN)
    cfg.grid_stop = _take_float(table, "grid.stop", GRID_MAX)
    cfg.grid_step = _take_float(table, "grid.step", 0.01)
    cfg.samples = _take_int(table, "samples", DEFAULT_SAMPLES)
    cfg.rounds = _take_int(table, "rounds", DEFAULT_ROUNDS)
    cfg.plan = table.get("plan")
    for key, value in table.items():
        if key.startswith("fixed."):
            name = key[len("fixed.") :]
            cfg.fixed[name] = _take_float(table, key, 0.0)
            if not 0.0 <= cfg.fixed[name] <= 1.0:
                raise ConfigError(f"{key} must lie in [0, 1], got {value}")

    if command in ("single-link", "ratio", "star"):
        _check_grid(cfg)
    if command == "star" and cfg.fixed:
        if set(cfg.fixed) != {"w0", "w1"}:
            raise ConfigError(
                "heterogeneous star sweeps need exactly fixed.w0 and fixed.w1"
            )
    if command == "benchmark":
        _check_benchmark(cfg)
    return cfg


def _check_grid(cfg: RunConfig) -> None:
    if cfg.grid_step <= 0:
        raise ConfigError("grid.step must be positive")
    if cfg.grid_start > cfg.grid_stop:
        raise ConfigError("grid.start must not exceed grid.stop")
    if cfg.grid_start < GRID_MIN - 1e-12 or cfg.grid_stop > GRID_MAX + 1e-12:
        raise ConfigError(f"grid must stay within [{GRID_MIN}, {GRID_MAX}]")
    # Checked before the grid is built; the division may overflow to inf.
    if (cfg.grid_stop - cfg.grid_start) / cfg.grid_step > MAX_GRID_POINTS - 1:
        raise ConfigError(f"grid.step gives more than {MAX_GRID_POINTS} grid points")


def _check_benchmark(cfg: RunConfig) -> None:
    if cfg.plan is None:
        raise ConfigError("benchmark needs a plan key")
    if cfg.plan in Scheme.__members__:
        needed = {"w"}
    elif cfg.plan in BUILTIN_PLAN_KINDS:
        needed = {"w0", "w1", "w2"}
    else:
        raise ConfigError(
            f"unknown plan {cfg.plan!r}; use one of "
            f"{', '.join([*Scheme.__members__, *BUILTIN_PLAN_KINDS])}"
        )
    if set(cfg.fixed) != needed:
        raise ConfigError(
            f"plan {cfg.plan} needs exactly {', '.join('fixed.' + k for k in sorted(needed))}"
        )
    if not 1 <= cfg.samples <= MAX_SAMPLES:
        raise ConfigError(f"samples must lie in [1, {MAX_SAMPLES}], got {cfg.samples}")
    if not 2 <= cfg.rounds <= MAX_ROUNDS:
        raise ConfigError(f"rounds must lie in [2, {MAX_ROUNDS}], got {cfg.rounds}")


def _grid(cfg: RunConfig) -> list:
    count = int(round((cfg.grid_stop - cfg.grid_start) / cfg.grid_step)) + 1
    values = []
    for i in range(count):
        v = round(cfg.grid_start + i * cfg.grid_step, 12)
        if v <= cfg.grid_stop + 1e-9:
            values.append(v)
    return values


def cmd_single_link(cfg: RunConfig) -> tuple:
    """Per-scheme information and variance bound over the parameter grid."""
    grid = _grid(cfg)
    ws = np.array(grid)
    columns = [
        (
            scheme,
            single_link_fisher(scheme, ws, cfg.mode, cfg.normalize).tolist(),
            single_link_qcrb(scheme, ws, cfg.mode, cfg.normalize).tolist(),
        )
        for scheme in Scheme
    ]
    lines = ["scheme,w,fisher,qcrb,mode,normalized"]
    for i, w in enumerate(grid):
        for scheme, info, bound in columns:
            lines.append(
                f"{scheme.value},{_fmt(w)},{_fmt(info[i])},{_fmt(bound[i])},"
                f"{cfg.mode.value},{_onoff(cfg.normalize)}"
            )
    return lines, []


def cmd_ratio(cfg: RunConfig) -> tuple:
    """Bound ratio of the two local schemes, plus their crossover point."""
    grid = _grid(cfg)
    ws = np.array(grid)
    lzm_bound = single_link_qcrb(Scheme.LZM, ws, cfg.mode, cfg.normalize)
    jbm_bound = single_link_qcrb(Scheme.JBM, ws, cfg.mode, cfg.normalize)
    lines = ["w,qcrb_lzm/qcrb_jbm"]
    for w, ratio in zip(grid, (lzm_bound / jbm_bound).tolist()):
        lines.append(f"{_fmt(w)},{_fmt(ratio)}")
    root = crossover(Scheme.LZM, Scheme.JBM, cfg.mode, cfg.normalize)
    note = f"crossover_w = {'none' if root is None else _fmt(root)}"
    return lines, [note]


def cmd_star(cfg: RunConfig) -> tuple:
    """Bounds of the four star strategies over a homogeneous or w2 sweep."""
    graph = build_star(3, [0.5, 0.5, 0.5])
    plans = [builtin_plan(kind, graph) for kind in BUILTIN_PLAN_KINDS]
    grid = _grid(cfg)
    ws = np.array(grid)
    if cfg.fixed:
        params = {"e0": cfg.fixed["w0"], "e1": cfg.fixed["w1"], "e2": ws}
    else:
        params = {"e0": ws, "e1": ws, "e2": ws}
    bounds = [qcrb(plan_qfim(plan, params, cfg.mode, cfg.normalize)).tolist() for plan in plans]
    lines = ["strategy,w,qcrb"]
    for i, w in enumerate(grid):
        for plan, column in zip(plans, bounds):
            lines.append(f"{plan.name},{_fmt(w)},{_fmt(column[i])}")
    return lines, []


def _benchmark_plan(cfg: RunConfig) -> tuple:
    if cfg.plan in Scheme.__members__:
        graph = _chain({"e0": cfg.fixed["w"]})
        task = MeasurementTask(scheme=Scheme[cfg.plan], path=trace_path(graph, ("e0",)))
        plan = MonitoringPlan(name=cfg.plan, tasks=(task,))
        validate_plan(graph, plan)
        return plan, graph
    graph = build_star(3, [cfg.fixed["w0"], cfg.fixed["w1"], cfg.fixed["w2"]])
    return builtin_plan(cfg.plan, graph), graph


def cmd_benchmark(cfg: RunConfig) -> tuple:
    """Monte-Carlo estimator variance per link against the matching bound."""
    plan, graph = _benchmark_plan(cfg)
    rows = benchmark_variance(
        plan, graph.params(), cfg.samples, cfg.rounds, cfg.seed, cfg.mode
    )
    lines = ["plan,link,true_w,empirical_variance,crb,ratio"]
    for row in rows:
        lines.append(
            f"{cfg.plan},{row.link},{_fmt(row.true_w)},{_fmt(row.variance)},"
            f"{_fmt(row.crb)},{_fmt(row.ratio)}"
        )
    notes = []
    for row in rows:
        if row.unidentifiable_rounds:
            notes.append(
                f"note: link {row.link} unidentifiable in {row.unidentifiable_rounds} "
                f"of {cfg.rounds} rounds"
            )
        elif math.isinf(row.crb) and math.isnan(row.ratio):
            notes.append(f"note: link {row.link} has an infinite bound; ratio undefined")
        elif row.crb == 0.0 and row.variance == 0.0:
            notes.append(
                f"note: link {row.link} has a zero bound and zero variance; ratio undefined"
            )
    return lines, notes


def cmd_validate() -> tuple:
    """Machine-readable pass/fail report of every oracle check."""
    lines = ["check,status,max_error,tolerance"]
    all_ok = True
    for name, err, tol, ok in validation_checks():
        all_ok = all_ok and ok
        lines.append(f"{name},{'PASS' if ok else 'FAIL'},{_fmt(err)},{_fmt(tol)}")
    return lines, all_ok


def _write_lines(lines: Sequence[str], path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="qnetomo",
        description="Werner-link network tomography sweeps, validation, and benchmarks",
    )
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)
    for name, text in (
        ("single-link", "information and bound per scheme over a parameter grid"),
        ("ratio", "bound ratio of the two local schemes plus crossover"),
        ("star", "bounds of the four star strategies per channel use"),
        ("benchmark", "Monte-Carlo estimator variance against the bound"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", metavar="PATH", help="run manifest (key = value lines)")
        p.add_argument("--mode", choices=[m.value for m in FisherMode])
        if name != "benchmark":
            p.add_argument("--normalize", choices=["on", "off"])
        p.add_argument("--seed", type=int)
        p.add_argument("--out", metavar="PATH", help="CSV output path (default stdout)")
    v = sub.add_parser("validate", help="run the exact-oracle equivalence checks")
    v.add_argument("--out", metavar="PATH", help="CSV report path (default stdout)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "validate":
            lines, ok = cmd_validate()
            _write_lines(lines, args.out)
            if args.out:
                _write_lines(lines, None)
            return EXIT_OK if ok else EXIT_VALIDATION_FAILED
        cfg = build_config(args.command, args)
        runner = {
            "single-link": cmd_single_link,
            "ratio": cmd_ratio,
            "star": cmd_star,
            "benchmark": cmd_benchmark,
        }[args.command]
        lines, notes = runner(cfg)
        _write_lines(lines, cfg.output)
        for note in notes:
            # Keep stdout clean when the CSV itself goes to stdout.
            stream = sys.stdout if cfg.output else sys.stderr
            print(note, file=stream)
        return EXIT_OK
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
