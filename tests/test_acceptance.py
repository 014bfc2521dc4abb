"""Acceptance checklist: the package's headline guarantees, one test per criterion.

Each test prints a single machine-greppable verdict line of the form

    [criterion NN] name: PASS|FAIL (detail)

before asserting, so the full checklist status is readable from the captured
output of a failing run as well.  Tolerances are part of the contract and
must not be loosened here.
"""

import math
import time

import numpy as np
import pytest

from qnetomo import (
    FisherMode,
    MeasurementTask,
    MonitoringPlan,
    Path,
    Scheme,
    benchmark_variance,
    build_star,
    builtin_plan,
    channel_uses,
    crossover,
    jbm_oracle_probabilities,
    linear_generation,
    lzm_oracle_probabilities,
    pem_oracle_probabilities,
    plan_qfim,
    qcrb,
    scheme_distribution,
    single_link_fisher,
    single_link_qcrb,
    solve_plan,
    task_distribution,
    task_qfim,
    werner_density,
)
from qnetomo.cli import main

from helpers import _chain_task, expected_counts

CLOSED = FisherMode.CLOSED_FORM
FIRST = FisherMode.FIRST_PRINCIPLES

ACCEPT_SEED = 17


def verdict(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {number:02d}] {name}: {status} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_distributions_match_exact_oracle():
    start = time.perf_counter()
    pairs = (
        (Scheme.LZM, lzm_oracle_probabilities),
        (Scheme.JBM, jbm_oracle_probabilities),
        (Scheme.PEM, pem_oracle_probabilities),
    )
    worst = 0.0
    for scheme, oracle in pairs:
        for i in range(21):
            w = i / 20.0
            table = scheme_distribution(scheme, w).as_dict()
            exact = oracle([w])
            worst = max(worst, max(abs(table[k] - exact[k]) for k in table))
    elapsed = time.perf_counter() - start
    verdict(
        1,
        "oracle-equivalence",
        worst <= 1e-12 and elapsed < 5.0,
        f"max |analytic - oracle| = {worst:.3e} over 3x21 grid, {elapsed:.2f}s",
    )


def test_criterion_02_swap_composition_is_multiplicative():
    worst = 0.0
    for i in range(10):
        for j in range(10):
            w1, w2 = i / 9.0, j / 9.0
            chained = linear_generation([w1, w2]).matrix
            direct = werner_density(w1 * w2).matrix
            worst = max(worst, float(np.max(np.abs(chained - direct))))
    verdict(
        2,
        "multiplicative-composition",
        worst <= 1e-12,
        f"max elementwise gap = {worst:.3e} over 10x10 grid",
    )


def _relative_gap(a, b):
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def test_criterion_03_mode_consistency_and_factor_two():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(30):
        scheme = (Scheme.LZM, Scheme.JBM, Scheme.PEM)[rng.integers(0, 3)]
        low = 2 if scheme is Scheme.LZM else 1
        length = int(rng.integers(low, 4))
        ws = rng.uniform(0.1, 0.9, size=length)
        task, params = _chain_task(scheme, ws)
        closed = task_qfim(task, params, CLOSED).entries
        first = task_qfim(task, params, FIRST).entries
        for c, f in zip(closed.ravel(), first.ravel()):
            worst = max(worst, _relative_gap(c, f))
    ratio_dev = 0.0
    for k in range(1, 20):
        w = 0.05 * k
        ratio = single_link_fisher(Scheme.LZM, w, CLOSED) / single_link_fisher(
            Scheme.LZM, w, FIRST
        )
        ratio_dev = max(ratio_dev, abs(ratio - 2.0))
    verdict(
        3,
        "mode-consistency",
        worst <= 1e-9 and ratio_dev <= 1e-12,
        f"max relative mode gap = {worst:.3e}; "
        f"direct local-scheme ratio deviation from 2.0 = {ratio_dev:.3e}",
    )


def _finite_difference_matrix(task, params, order, step=1e-6):
    probs = np.array(task_distribution(task, params).probabilities)
    derivs = {}
    for lid in order:
        up = dict(params)
        dn = dict(params)
        up[lid] += step
        dn[lid] -= step
        pu = np.array(task_distribution(task, up).probabilities)
        pd = np.array(task_distribution(task, dn).probabilities)
        derivs[lid] = (pu - pd) / (2.0 * step)
    n = len(order)
    out = np.zeros((n, n))
    for i, a in enumerate(order):
        for j, b in enumerate(order):
            out[i, j] = float(np.sum(derivs[a] * derivs[b] / probs))
    return out


def test_criterion_04_analytic_derivatives_match_finite_differences():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        scheme = (Scheme.LZM, Scheme.JBM, Scheme.PEM)[rng.integers(0, 3)]
        length = int(rng.integers(1, 4))
        ws = rng.uniform(0.1, 0.9, size=length)
        task, params = _chain_task(scheme, ws)
        order = tuple(sorted(params))
        analytic = task_qfim(task, params, FIRST).entries
        numeric = _finite_difference_matrix(task, params, order)
        for a, b in zip(analytic.ravel(), numeric.ravel()):
            worst = max(worst, _relative_gap(a, b))
    verdict(
        4,
        "finite-difference-check",
        worst <= 1e-5,
        f"max relative gap = {worst:.3e} over 50 random instances, step 1e-6",
    )


def test_criterion_05_crossover_points():
    closed_w = crossover(Scheme.LZM, Scheme.JBM, CLOSED)
    first_w = crossover(Scheme.LZM, Scheme.JBM, FIRST)
    ok = (
        closed_w is not None
        and abs(closed_w - 0.57735) <= 1e-4
        and first_w is not None
        and abs(first_w - 1.0 / 3.0) <= 1e-4
    )
    verdict(
        5,
        "crossover-reproduction",
        ok,
        f"closed-form crossover = {closed_w!r} (target 0.57735 +- 1e-4), "
        f"first-principles crossover = {first_w!r} (target 1/3 +- 1e-4)",
    )


@pytest.mark.parametrize("scheme", [Scheme.LZM, Scheme.JBM, Scheme.PEM])
def test_criterion_06_single_link_bound_strictly_decreasing(scheme):
    grid = [round(0.01 * k, 2) for k in range(1, 100)]
    values = [single_link_qcrb(scheme, w, CLOSED) for w in grid]
    violation = None
    for k in range(len(grid) - 1):
        if not values[k + 1] < values[k]:
            violation = (grid[k], values[k], grid[k + 1], values[k + 1])
            break
    detail = "strictly decreasing on [0.01, 0.99]"
    if violation is not None:
        detail = (
            f"bound rises from {violation[1]:.6g} at w={violation[0]} to "
            f"{violation[3]:.6g} at w={violation[2]}; the pair-assisted scheme's "
            f"information peaks inside the interval, so its bound is not monotone"
        )
    verdict(6, f"monotonicity-{scheme.value}", violation is None, detail)


def test_criterion_07_channel_use_ledgers():
    graph = build_star(3, [0.5, 0.5, 0.5])
    expected = {
        "JBM2": ({"e0": 4, "e1": 2, "e2": 2}, 8),
        "JBM3": ({"e0": 2, "e1": 2, "e2": 2}, 6),
        "HYB2": ({"e0": 5, "e1": 1, "e2": 2}, 8),
        "HYB3": ({"e0": 4, "e1": 1, "e2": 1}, 6),
    }
    mismatches = []
    for kind, (uses, total) in expected.items():
        ledger = channel_uses(builtin_plan(kind, graph))
        if dict(ledger.uses) != uses or ledger.total != total:
            mismatches.append(f"{kind}: {dict(ledger.uses)}/{ledger.total}")
    verdict(
        7,
        "channel-use-ledgers",
        not mismatches,
        "all four plans exact" if not mismatches else "; ".join(mismatches),
    )


def test_criterion_08_star_strategy_ordering():
    graph = build_star(3, [0.5, 0.5, 0.5])
    plans = {k: builtin_plan(k, graph) for k in ("JBM2", "JBM3", "HYB2", "HYB3")}

    def bound(kind, params):
        return qcrb(plan_qfim(plans[kind], params, CLOSED, normalize=True))

    grid = [round(0.01 * k, 2) for k in range(1, 100)]
    homogeneous_ok = True
    worst_gap = -math.inf
    for w in grid:
        params = {"e0": w, "e1": w, "e2": w}
        for fused, hybrid in (("JBM2", "HYB2"), ("JBM3", "HYB3")):
            gap = bound(fused, params) - bound(hybrid, params)
            worst_gap = max(worst_gap, gap)
            if gap > 1e-12:
                homogeneous_ok = False

    flipped = [
        w
        for w in grid
        if bound("HYB3", {"e0": 0.99, "e1": 0.99, "e2": w})
        < bound("JBM3", {"e0": 0.99, "e1": 0.99, "e2": w})
    ]
    heterogeneous_ok = bool(flipped)
    sample = flipped[0] if flipped else None
    verdict(
        8,
        "star-strategy-ordering",
        homogeneous_ok and heterogeneous_ok,
        f"homogeneous fused-plan advantage holds (worst gap {worst_gap:.3e}); "
        f"heterogeneous hybrid wins on {len(flipped)} of 99 grid points"
        + (f", e.g. w2={sample}" if sample is not None else ""),
    )


def test_criterion_09_sequential_estimates_recover_truth():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(20):
        ws = rng.uniform(0.05, 0.95, size=3)
        graph = build_star(3, list(ws))
        params = graph.params()
        for kind in ("JBM2", "JBM3", "HYB2", "HYB3"):
            plan = builtin_plan(kind, graph)
            counts = [
                expected_counts(task_distribution(t, params), 10000)
                for t in plan.tasks
            ]
            solved = solve_plan(plan, counts)
            assert not solved.unidentifiable
            for lid, w in params.items():
                worst = max(worst, abs(solved.values[lid] - w))
    verdict(
        9,
        "estimator-consistency",
        worst <= 1e-12,
        f"max recovery error = {worst:.3e} over 20 triples x 4 plans",
    )


def test_criterion_10_estimators_reach_their_bound():
    start = time.perf_counter()
    ratios = {}
    for scheme in (Scheme.PEM, Scheme.LZM):
        plan = MonitoringPlan(
            scheme.value,
            (MeasurementTask(scheme, Path(("e0",), ("a", "b"))),),
        )
        (row,) = benchmark_variance(
            plan, {"e0": 0.6}, 100000, 200, seed=ACCEPT_SEED
        )
        ratios[scheme.value] = row.ratio
    elapsed = time.perf_counter() - start
    ok = all(0.85 <= r <= 1.25 for r in ratios.values()) and elapsed < 60.0
    verdict(
        10,
        "asymptotic-efficiency",
        ok,
        f"variance/bound ratios {ratios} at w=0.6, n=1e5, 200 rounds, "
        f"{elapsed:.1f}s (band [0.85, 1.25], budget 60s)",
    )


def test_criterion_11_byte_identical_reruns(tmp_path, capsys):
    star_cfg = tmp_path / "star.cfg"
    star_cfg.write_text(
        "experiment = star\n"
        "grid.start = 0.01\n"
        "grid.stop = 0.99\n"
        "grid.step = 0.07\n"
        "fixed.w0 = 0.99\n"
        "fixed.w1 = 0.99\n",
        encoding="utf-8",
    )
    bench_cfg = tmp_path / "bench.cfg"
    bench_cfg.write_text(
        "experiment = benchmark\n"
        "plan = JBM2\n"
        "fixed.w0 = 0.9\n"
        "fixed.w1 = 0.8\n"
        "fixed.w2 = 0.7\n"
        "samples = 5000\n"
        "rounds = 40\n"
        f"seed = {ACCEPT_SEED}\n",
        encoding="utf-8",
    )
    runs = (
        ("single-link", []),
        ("star", ["--config", str(star_cfg)]),
        ("benchmark", ["--config", str(bench_cfg)]),
    )
    mismatched = []
    for command, extra in runs:
        first = tmp_path / f"{command}-1.csv"
        second = tmp_path / f"{command}-2.csv"
        assert main([command, *extra, "--out", str(first)]) == 0
        assert main([command, *extra, "--out", str(second)]) == 0
        if first.read_bytes() != second.read_bytes():
            mismatched.append(command)
    capsys.readouterr()
    verdict(
        11,
        "reproducibility",
        not mismatched,
        "byte-identical reruns for single-link, star, benchmark"
        if not mismatched
        else f"divergent output: {', '.join(mismatched)}",
    )


ORACLES = {
    Scheme.LZM: lzm_oracle_probabilities,
    Scheme.JBM: jbm_oracle_probabilities,
    Scheme.PEM: pem_oracle_probabilities,
}


def _oracle_information(oracle, ws, step=1e-4):
    """Sum over outcomes of dp_k/dw_i dp_k/dw_j / p_k, by central differences."""

    def probs(point):
        return np.array(list(oracle(point).values()))

    derivs = []
    for i in range(len(ws)):
        up, dn = list(ws), list(ws)
        up[i] += step
        dn[i] -= step
        derivs.append((probs(up) - probs(dn)) / (2.0 * step))
    d = np.array(derivs)
    return (d / probs(ws)) @ d.T


def test_criterion_12_information_matches_oracle():
    paths = (
        [0.3], [0.75], [0.6, 0.85], [0.2, 0.9], [0.5, 0.7, 0.9], [0.35, 0.55, 0.8],
    )
    worst = 0.0
    ratio_dev = 0.0
    for scheme, oracle in ORACLES.items():
        for ws in paths:
            exact = _oracle_information(oracle, ws)
            task, params = _chain_task(scheme, ws)
            for mode in (CLOSED, FIRST):
                entries = task_qfim(task, params, mode).entries
                if scheme is Scheme.LZM and mode is CLOSED and len(ws) == 1:
                    # The published direct-link value counts two uses of the link.
                    ratio_dev = max(ratio_dev, abs(entries[0, 0] / exact[0, 0] - 2.0))
                    continue
                for a, b in zip(entries.ravel(), exact.ravel()):
                    worst = max(worst, _relative_gap(a, b))
    verdict(
        12,
        "information-vs-oracle",
        worst <= 1e-8 and ratio_dev <= 1e-9,
        f"max relative gap to oracle central differences (h=1e-4) = {worst:.3e} "
        f"over 3 schemes x 6 paths x 2 modes; direct local-scheme closed/oracle "
        f"ratio deviation from 2.0 = {ratio_dev:.3e}",
    )
