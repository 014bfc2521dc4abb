"""Command-line front-end: parameter sweeps, oracle validation, benchmarks.

Subcommands: single-link, ratio, star, validate, benchmark.  Results are CSV
with a fixed header per command, values at 12 significant digits, and
byte-identical output for identical config and seed.  Exit codes: 0 success,
1 invalid config, 2 validation failure.  This module parses flags and config
files and formats rows; the checks ``validate`` reports live in
``qnetomo.validation``.  ``_DEFAULTS`` lists every config key of each command
with its default, and a command has the flag of each of its keys that
``_FLAGS`` names.  A flag overrides the config file, which overrides
defaults; ``_value`` checks both alike.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Sequence

from .fisher import (
    FisherMode,
    _inverse,
    _plan_qcrb,
    crossover,
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
)

EXIT_OK = 0
EXIT_BAD_CONFIG = 1
EXIT_VALIDATION_FAILED = 2

# The digits of every number a CSV prints.
_DIGITS = ".12g"
GRID_MIN = 0.01
GRID_MAX = 0.99
# Size caps: larger requests are a ConfigError rather than an unbounded run.
MAX_GRID_POINTS = 100_000
MAX_SAMPLES = 10**9
MAX_ROUNDS = 10**6
MAX_CONFIG_CHARS = 1 << 20

# Every key each command takes, with its default text (None: no default).
# build_config checks keys in this order.
_BASE = {"experiment": None, "mode": "closed-form", "output": None}
_SWEEP = {
    **_BASE,
    "grid.start": str(GRID_MIN),
    "grid.stop": str(GRID_MAX),
    "grid.step": "0.01",
    "normalize": "off",
}
_DEFAULTS = {
    "single-link": _SWEEP,
    "ratio": _SWEEP,
    "star": {**_SWEEP, "normalize": "on", "fixed.w0": None, "fixed.w1": None},
    "benchmark": {
        **_BASE,
        "mode": "first-principles",
        "seed": "12345",
        "samples": "100000",
        "rounds": "200",
        "plan": None,
        **dict.fromkeys(("fixed.w", "fixed.w0", "fixed.w1", "fixed.w2")),
    },
}
# The flag of each config key that has one: flag, metavar and help.
_FLAGS = {
    "mode": ("--mode", "{closed-form,first-principles}", None),
    "normalize": ("--normalize", "{on,off}", None),
    "seed": ("--seed", "N", None),
    "output": ("--out", "PATH", "CSV output path (default stdout)"),
}


class ConfigError(Exception):
    """Invalid configuration, flags, or run manifest."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; that code is reserved for
    # validation failures, so parse errors become ConfigError (exit 1).
    def error(self, message: str) -> None:
        raise ConfigError(message)


def _fmt(x: float) -> str:
    return format(x, _DIGITS)


def _lines(head: str, row: str, grid: list, columns: list) -> list:
    """``head``, then ``row`` (one or more lines) per grid point: {0} is w, {k} column k."""
    return [head] + [row.format(_fmt(w), *values) for w, values in zip(grid, zip(*columns))]


def _parse_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8-sig") as handle:
            text = handle.read(MAX_CONFIG_CHARS + 1)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    if len(text) > MAX_CONFIG_CHARS:
        raise ConfigError(f"config file is longer than {MAX_CONFIG_CHARS} characters")
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


def _value(key: str, text: str):
    """The value of config key ``key`` written as ``text``, typed and range-checked.

    Flags and config-file lines both pass here, so one text gives one error.
    """
    if key == "mode":
        for mode in FisherMode:
            if mode.value == text:
                return mode
        raise ConfigError(f"unknown mode {text!r}; use closed-form or first-principles")
    if key == "normalize":
        if text not in ("on", "off"):
            raise ConfigError(f"normalize must be on or off, got {text!r}")
        return text == "on"
    if key in ("seed", "samples", "rounds"):
        try:
            value = int(text)
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {text!r}") from None
        if key == "seed" and value < 0:
            raise ConfigError(f"seed must be non-negative, got {value}")
        if key == "samples" and not 1 <= value <= MAX_SAMPLES:
            raise ConfigError(f"samples must lie in [1, {MAX_SAMPLES}], got {value}")
        if key == "rounds" and not 2 <= value <= MAX_ROUNDS:
            raise ConfigError(f"rounds must lie in [2, {MAX_ROUNDS}], got {value}")
        return value
    if not key.startswith(("grid.", "fixed.")):
        return text
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {text!r}")
    if key.startswith("fixed.") and not 0.0 <= value <= 1.0:
        raise ConfigError(f"{key} must lie in [0, 1], got {text}")
    return value


def build_config(command: str, args: argparse.Namespace) -> dict:
    """Settings by config key: defaults, then the config file, then flags."""
    defaults = _DEFAULTS[command]
    table = _parse_config_file(args.config) if args.config else {}
    for key in table:
        if key not in defaults:
            raise ConfigError(f"config key {key!r} is not applicable to {command}")
    experiment = table.get("experiment", command)
    if experiment != command:
        raise ConfigError(
            f"config experiment={experiment!r} does not match command {command!r}"
        )
    # A flag's dest is its config key (--out sets output); None leaves it unset.
    flags = {k: v for k, v in vars(args).items() if k in defaults and v is not None}
    merged = {**defaults, **table, **flags}
    return {key: _value(key, text) for key, text in merged.items() if text is not None}


def _grid(cfg: dict) -> list:
    """The sweep's points, once grid.start, grid.stop and grid.step fit together."""
    start, stop, step = cfg["grid.start"], cfg["grid.stop"], cfg["grid.step"]
    if step <= 0:
        raise ConfigError("grid.step must be positive")
    if start > stop:
        raise ConfigError("grid.start must not exceed grid.stop")
    if start < GRID_MIN - 1e-12 or stop > GRID_MAX + 1e-12:
        raise ConfigError(f"grid must stay within [{GRID_MIN}, {GRID_MAX}]")
    # Checked before the grid is built; the division may overflow to inf.
    if (stop - start) / step > MAX_GRID_POINTS - 1:
        raise ConfigError(f"grid.step gives more than {MAX_GRID_POINTS} grid points")
    count = int(round((stop - start) / step)) + 1
    values = []
    for i in range(count):
        v = round(start + i * step, 12)
        if v <= stop + 1e-9:
            values.append(v)
    return values


def cmd_single_link(cfg: dict) -> tuple:
    """Per-scheme information and variance bound over the parameter grid."""
    grid = _grid(cfg)
    settings = f"{cfg['mode'].value},{'on' if cfg['normalize'] else 'off'}"
    columns, rows = [], []
    for scheme in Scheme:
        info = single_link_fisher(scheme, grid, cfg["mode"], cfg["normalize"])
        k = len(columns)
        columns += [info.tolist(), _inverse(info).tolist()]
        rows.append(f"{scheme.value},{{0}},{{{k + 1}:{_DIGITS}}},{{{k + 2}:{_DIGITS}}},{settings}")
    return _lines("scheme,w,fisher,qcrb,mode,normalized", "\n".join(rows), grid, columns), []


def cmd_ratio(cfg: dict) -> tuple:
    """Bound ratio of the two local schemes, plus their crossover point."""
    grid = _grid(cfg)
    lzm_bound = single_link_qcrb(Scheme.LZM, grid, cfg["mode"], cfg["normalize"])
    jbm_bound = single_link_qcrb(Scheme.JBM, grid, cfg["mode"], cfg["normalize"])
    lines = ["w,qcrb_lzm/qcrb_jbm"]
    for w, ratio in zip(grid, (lzm_bound / jbm_bound).tolist()):
        lines.append(f"{_fmt(w)},{_fmt(ratio)}")
    root = crossover(Scheme.LZM, Scheme.JBM, cfg["mode"], cfg["normalize"])
    note = f"crossover_w = {'none' if root is None else _fmt(root)}"
    return lines, [note]


@functools.cache
def _star_plans() -> tuple:
    """The four built-in plans on the 4-node star, built once."""
    graph = build_star(3, [0.5, 0.5, 0.5])
    return tuple(builtin_plan(kind, graph) for kind in BUILTIN_PLAN_KINDS)


def cmd_star(cfg: dict) -> tuple:
    """Bounds of the four star strategies over a homogeneous or w2 sweep.

    One ``_plan_qcrb`` call bounds the four plans over the whole sweep;
    no Fisher matrix is built.
    """
    plans = _star_plans()
    grid = _grid(cfg)
    if ("fixed.w0" in cfg) != ("fixed.w1" in cfg):
        raise ConfigError("heterogeneous star sweeps need exactly fixed.w0 and fixed.w1")
    if "fixed.w0" in cfg:
        params = {"e0": cfg["fixed.w0"], "e1": cfg["fixed.w1"], "e2": grid}
    else:
        params = {"e0": grid, "e1": grid, "e2": grid}
    bounds = _plan_qcrb(plans, params, cfg["mode"], cfg["normalize"])
    row = "\n".join(f"{plan.name},{{0}},{{{k}:{_DIGITS}}}" for k, plan in enumerate(plans, 1))
    return _lines("strategy,w,qcrb", row, grid, bounds), []


def _benchmark_plan(cfg: dict) -> tuple:
    """The plan and graph to benchmark, once the plan and its fixed.* keys agree."""
    name = cfg.get("plan")
    if name is None:
        raise ConfigError("benchmark needs a plan key")
    single = name in Scheme.__members__
    if not single and name not in BUILTIN_PLAN_KINDS:
        raise ConfigError(
            f"unknown plan {name!r}; use one of "
            f"{', '.join([*Scheme.__members__, *BUILTIN_PLAN_KINDS])}"
        )
    needed = {"fixed.w"} if single else {"fixed.w0", "fixed.w1", "fixed.w2"}
    if {key for key in cfg if key.startswith("fixed.")} != needed:
        raise ConfigError(f"plan {name} needs exactly {', '.join(sorted(needed))}")
    if single:
        graph = _chain({"e0": cfg["fixed.w"]})
        task = MeasurementTask(scheme=Scheme[name], path=trace_path(graph, ("e0",)))
        return MonitoringPlan(name=name, tasks=(task,)), graph
    graph = build_star(3, [cfg["fixed.w0"], cfg["fixed.w1"], cfg["fixed.w2"]])
    return builtin_plan(name, graph), graph


def cmd_benchmark(cfg: dict) -> tuple:
    """Monte-Carlo estimator variance per link against the matching bound."""
    # Imported when the command runs: the sweeps need no sampler.
    from .estimators import benchmark_variance

    plan, graph = _benchmark_plan(cfg)
    rows = benchmark_variance(
        plan, graph.params(), cfg["samples"], cfg["rounds"], cfg["seed"], cfg["mode"]
    )
    lines = ["plan,link,true_w,empirical_variance,crb,ratio"]
    for row in rows:
        lines.append(
            f"{cfg['plan']},{row.link},{_fmt(row.true_w)},{_fmt(row.variance)},"
            f"{_fmt(row.crb)},{_fmt(row.ratio)}"
        )
    notes = []
    for row in rows:
        if row.unidentifiable_rounds:
            notes.append(
                f"note: link {row.link} unidentifiable in {row.unidentifiable_rounds} "
                f"of {cfg['rounds']} rounds"
            )
        elif math.isnan(row.ratio):
            what = "an infinite bound" if math.isinf(row.crb) else "a zero bound and zero variance"
            notes.append(f"note: link {row.link} has {what}; ratio undefined")
    return lines, notes


def cmd_validate() -> tuple:
    """Machine-readable pass/fail report of every oracle check."""
    # Imported here so that no other command loads the checks.
    from .validation import validation_checks

    lines = ["check,status,max_error,tolerance"]
    all_ok = True
    for name, err, tol, ok in validation_checks():
        all_ok = all_ok and ok
        lines.append(f"{name},{'PASS' if ok else 'FAIL'},{_fmt(err)},{_fmt(tol)}")
    return lines, all_ok


def _write_lines(lines: Sequence[str], path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if not path:  # no --out, or an empty one
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


# Each command's runner and help text.
_COMMANDS = {
    "single-link": (cmd_single_link, "information and bound per scheme over a parameter grid"),
    "ratio": (cmd_ratio, "bound ratio of the two local schemes plus crossover"),
    "star": (cmd_star, "bounds of the four star strategies per channel use"),
    "benchmark": (cmd_benchmark, "Monte-Carlo estimator variance against the bound"),
    "validate": (cmd_validate, "run the exact-oracle equivalence checks"),
}


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built on first use and shared afterwards.

    Parsing reads the parser and writes only the namespace it returns, so
    repeated ``main`` calls in one process can share it; a fresh command
    still builds exactly one.
    """
    parser = _Parser(
        prog="qnetomo",
        description="Werner-link network tomography sweeps, validation, and benchmarks",
    )
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)
    for name, (_, text) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        keys = _DEFAULTS.get(name, {"output": None})  # validate has no config file
        if "experiment" in keys:
            p.add_argument("--config", metavar="PATH", help="run manifest (key = value lines)")
        for key, (flag, metavar, hint) in _FLAGS.items():
            if key in keys:
                p.add_argument(flag, dest=key, metavar=metavar, help=hint)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        runner, _ = _COMMANDS[args.command]
        if args.command == "validate":
            lines, ok = runner()
            _write_lines(lines, args.output)
            if args.output:  # the report file is echoed on stdout
                _write_lines(lines, None)
            return EXIT_OK if ok else EXIT_VALIDATION_FAILED
        cfg = build_config(args.command, args)
        lines, notes = runner(cfg)
        _write_lines(lines, cfg.get("output"))
        # Keep stdout clean when the CSV itself goes to stdout.
        stream = sys.stdout if cfg.get("output") else sys.stderr
        for note in notes:
            print(note, file=stream)
        return EXIT_OK
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
