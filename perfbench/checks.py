"""Correctness checks of CLI outputs against the reference computation.

Each ``check_*`` function takes what one command produced and returns a list
of problems; an empty list means the output is correct.  Nothing here
compares against a stored copy of earlier output.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

import reference as ref

SWEEP_RTOL = 1e-9
CROSSOVER_ATOL = 1e-4
ORACLE_ATOL = 1e-12

# Every row `qnetomo validate` reports, with the tolerance it must state.
VALIDATE_ROWS = {
    "lzm-distribution-vs-oracle": 1e-12,
    "jbm-distribution-vs-oracle": 1e-12,
    "pem-distribution-vs-oracle": 1e-12,
    "swap-multiplicativity": 1e-12,
    "lzm-direct-mode-ratio-of-two": 1e-12,
    "mode-consistency-lzm-path": 1e-9,
    "mode-consistency-jbm-direct": 1e-9,
    "mode-consistency-jbm-path": 1e-9,
    "mode-consistency-pem-direct": 1e-9,
    "mode-consistency-pem-path": 1e-9,
}


def relative_gap(a: float, b: float) -> float:
    if a == b:
        return 0.0
    if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def effective_settings(command: str, config: Mapping[str, str]) -> dict:
    """Mode, normalisation and grid a command runs with, from its manifest.

    ``config`` holds the manifest keys with any flag overrides applied; the
    defaults are those the README's CLI reference states.
    """
    default_mode = ref.FIRST_PRINCIPLES if command == "benchmark" else ref.CLOSED_FORM
    default_norm = "on" if command == "star" else "off"
    return {
        "mode": config.get("mode", default_mode),
        "normalize": config.get("normalize", default_norm) == "on",
        "grid": ref.grid(
            float(config.get("grid.start", 0.01)),
            float(config.get("grid.stop", 0.99)),
            float(config.get("grid.step", 0.01)),
        ),
    }


def _rows(text: str, header: str, width: int, problems: list) -> list:
    lines = text.split("\n")
    if not text.endswith("\n") or lines[0] != header:
        problems.append(f"expected header {header!r} and newline-terminated rows")
        return []
    rows = [line.split(",") for line in lines[1:-1]]
    if any(len(r) != width for r in rows):
        problems.append(f"every row needs {width} fields")
        return []
    return rows


def _compare(label: str, got: str, want: float, rtol: float, problems: list) -> None:
    try:
        value = float(got)
    except ValueError:
        problems.append(f"{label}: {got!r} is not a number")
        return
    if relative_gap(value, want) > rtol:
        problems.append(f"{label}: got {got}, reference {want!r}")


def _grid_rows(rows: list, grid: Sequence[float], per_point: int, problems: list) -> bool:
    if len(rows) != len(grid) * per_point:
        problems.append(f"expected {len(grid) * per_point} rows, got {len(rows)}")
        return False
    return True


def check_single_link(text: str, config: Mapping[str, str]) -> list:
    problems: list = []
    s = effective_settings("single-link", config)
    rows = _rows(text, "scheme,w,fisher,qcrb,mode,normalized", 6, problems)
    if not rows or not _grid_rows(rows, s["grid"], len(ref.SCHEMES), problems):
        return problems
    flag = "on" if s["normalize"] else "off"
    for k, row in enumerate(rows):
        w, scheme = s["grid"][k // 3], ref.SCHEMES[k % 3]
        info = ref.single_link_info(scheme, w, s["mode"], s["normalize"])
        at = f"row {k + 1} ({scheme}, w={w})"
        if row[0] != scheme or row[4] != s["mode"] or row[5] != flag:
            problems.append(f"{at}: labels {row[0]},{row[4]},{row[5]}")
        _compare(f"{at} w", row[1], w, 1e-12, problems)
        _compare(f"{at} fisher", row[2], info, SWEEP_RTOL, problems)
        _compare(f"{at} qcrb", row[3], 1.0 / info, SWEEP_RTOL, problems)
    return problems


def check_ratio(text: str, config: Mapping[str, str], notes: str) -> list:
    problems: list = []
    s = effective_settings("ratio", config)
    rows = _rows(text, "w,qcrb_lzm/qcrb_jbm", 2, problems)
    if rows and _grid_rows(rows, s["grid"], 1, problems):
        for k, (row, w) in enumerate(zip(rows, s["grid"])):
            want = ref.single_link_info(ref.JBM, w, s["mode"], s["normalize"]) / (
                ref.single_link_info(ref.LZM, w, s["mode"], s["normalize"])
            )
            _compare(f"row {k + 1} w", row[0], w, 1e-12, problems)
            _compare(f"row {k + 1} ratio", row[1], want, SWEEP_RTOL, problems)
    root = ref.crossover_w(s["mode"], s["normalize"])
    found = [line for line in notes.splitlines() if line.startswith("crossover_w = ")]
    if len(found) != 1:
        problems.append(f"expected one crossover note, got {found}")
    elif root is None:
        if found[0] != "crossover_w = none":
            problems.append(f"{found[0]}: reference has no crossover")
    else:
        value = found[0].split("=", 1)[1].strip()
        try:
            if abs(float(value) - root) > CROSSOVER_ATOL:
                problems.append(f"{found[0]}: reference {root!r}")
        except ValueError:
            problems.append(f"{found[0]}: not a number")
    return problems


def check_star(text: str, config: Mapping[str, str]) -> list:
    problems: list = []
    s = effective_settings("star", config)
    rows = _rows(text, "strategy,w,qcrb", 3, problems)
    plans = list(ref.STAR_PLANS)
    if not rows or not _grid_rows(rows, s["grid"], len(plans), problems):
        return problems
    for k, row in enumerate(rows):
        w, plan = s["grid"][k // len(plans)], plans[k % len(plans)]
        if "fixed.w0" in config:
            params = {"e0": float(config["fixed.w0"]), "e1": float(config["fixed.w1"]), "e2": w}
        else:
            params = {"e0": w, "e1": w, "e2": w}
        want = ref.plan_qcrb(ref.STAR_PLANS[plan], params, s["mode"], s["normalize"])
        at = f"row {k + 1} ({plan}, w={w})"
        if row[0] != plan:
            problems.append(f"{at}: strategy {row[0]}")
        _compare(f"{at} w", row[1], w, 1e-12, problems)
        _compare(f"{at} qcrb", row[2], want, SWEEP_RTOL, problems)
    return problems


def check_benchmark(text: str, config: Mapping[str, str]) -> list:
    """Bound column against the reference; ratio within its sampling band."""
    problems: list = []
    s = effective_settings("benchmark", config)
    plan = config["plan"]
    if plan in ref.SCHEMES:
        tasks, params = ((plan, ("e0",)),), {"e0": float(config["fixed.w"])}
    else:
        tasks = ref.STAR_PLANS[plan]
        params = {f"e{i}": float(config[f"fixed.w{i}"]) for i in range(3)}
    samples, rounds = int(config["samples"]), int(config["rounds"])
    crb = ref.crb_diagonal(tasks, params, samples, s["mode"])
    expected_var = ref.sequential_variance(tasks, params, samples)
    lo, hi = ref.variance_ratio_band(rounds)
    rows = _rows(text, "plan,link,true_w,empirical_variance,crb,ratio", 6, problems)
    if rows and [r[1] for r in rows] != sorted(params):
        problems.append(f"links {[r[1] for r in rows]}, expected {sorted(params)}")
        return problems
    for row in rows:
        link = row[1]
        at = f"{plan} {link}"
        if row[0] != plan:
            problems.append(f"{at}: plan column {row[0]}")
        _compare(f"{at} true_w", row[2], params[link], 1e-12, problems)
        _compare(f"{at} crb", row[4], crb[link], SWEEP_RTOL, problems)
        try:
            variance, ratio = float(row[3]), float(row[5])
        except ValueError:
            problems.append(f"{at}: variance {row[3]!r} or ratio {row[5]!r} is not a number")
            continue
        _compare(f"{at} ratio", row[5], variance / crb[link], SWEEP_RTOL, problems)
        centre = expected_var[link] / crb[link]
        if not lo * centre <= ratio <= hi * centre:
            problems.append(
                f"{at}: ratio {ratio} outside [{lo * centre:.4g}, {hi * centre:.4g}]"
                f" around the delta-method value {centre:.4g} for {rounds} rounds"
            )
    return problems


def check_validate(text: str) -> list:
    problems: list = []
    rows = _rows(text, "check,status,max_error,tolerance", 4, problems)
    names = [r[0] for r in rows]
    if rows and names != list(VALIDATE_ROWS):
        problems.append(f"rows {names}, expected {list(VALIDATE_ROWS)}")
    for name, status, err, tol in rows:
        if status != "PASS":
            problems.append(f"{name}: status {status}")
        try:
            if not float(err) <= float(tol):
                problems.append(f"{name}: max_error {err} above tolerance {tol}")
            if name in VALIDATE_ROWS and float(tol) != VALIDATE_ROWS[name]:
                problems.append(f"{name}: tolerance {tol}, expected {VALIDATE_ROWS[name]}")
        except ValueError:
            problems.append(f"{name}: max_error {err!r} or tolerance {tol!r} is not a number")
    return problems


def check_oracle_paths(oracles: Mapping[str, Callable], param_sets: Sequence[Sequence[float]]) -> list:
    """Oracle statistics on multi-link paths against the README table.

    ``oracles`` maps a scheme name to the program's oracle function, which
    takes the per-link parameters and returns outcome label to probability.
    """
    problems = []
    for ws in param_sets:
        product = math.prod(ws)
        for scheme, oracle in oracles.items():
            got = oracle(list(ws))
            want = ref.outcome_probabilities(scheme, product)
            if set(got) != set(want):
                problems.append(f"{scheme} {ws}: labels {sorted(got)}")
                continue
            gap = max(abs(got[l] - want[l]) for l in want)
            if gap > ORACLE_ATOL:
                problems.append(f"{scheme} {ws}: off the README table by {gap:.3g}")
    return problems
