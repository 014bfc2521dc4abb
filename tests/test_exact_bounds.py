"""An exact witness for every bound the star sweeps print, in rationals.

The witness writes the four star plans, the closed forms, the outcome sums
and the channel-use totals itself, and evaluates them in ``fractions.Fraction``
at each float's exact binary value, so it shares no code with
``qnetomo.fisher``: the command line is only the subject it checks.

A square plan's exact bound is sum_t X_it^2 (w_i / W_t)^2 / J_t, with the
integer X = R^-1 of its path-link incidence from an exact forward
substitution; a Gauss-Jordan inverse of sum_t J_t g_t g_t^T is a second
route, which checks X.  At a link of exactly 0 or 1 the witness takes the
range of the information instead: a link is identifiable iff its unit
vector lies in it, and its bound is then x_i for any solution of F x = e_i.
"""

import math
from fractions import Fraction
from pathlib import Path

import pytest

from qnetomo.cli import main

from helpers import exact_solve as _solve

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"
LINKS = ("e0", "e1", "e2")

# Each star plan's (scheme, path) tasks in solve order.
PLANS = {
    "JBM2": (("JBM", ("e0",)), ("JBM", ("e1",)), ("JBM", ("e0", "e2"))),
    "JBM3": (("JBM", ("e0",)), ("JBM", ("e1",)), ("JBM", ("e2",))),
    "HYB2": (("JBM", ("e0",)), ("JBM", ("e0", "e2")), ("LZM", ("e0", "e1"))),
    "HYB3": (("JBM", ("e0",)), ("LZM", ("e0", "e1")), ("LZM", ("e0", "e2"))),
}
# Channel uses of one sample on each path link: JBM sends two copies.
USES = {"LZM": 1, "JBM": 2}

# The published J on a path of two or more links, and each outcome law as
# (probability, derivative in W) pairs.
PUBLISHED = {
    "LZM": lambda w: 1 / ((1 + w) * (1 - w)),
    "JBM": lambda w: 12 * w * w / ((1 + 3 * w * w) * (1 - w * w)),
}
LAWS = {
    "LZM": lambda w: [((1 + w) / 4, Fraction(1, 4))] * 2 + [((1 - w) / 4, Fraction(-1, 4))] * 2,
    "JBM": lambda w: [((1 + 3 * w * w) / 4, 3 * w / 2)] + [((1 - w * w) / 4, -w / 2)] * 3,
}


def _information(scheme, product, _cache={}):
    """Exact J at W < 1: the published form, checked against the outcome sum."""
    key = (scheme, product)
    if key not in _cache:
        published = PUBLISHED[scheme](product)
        outcomes = sum((d * d / p for p, d in LAWS[scheme](product) if d), Fraction(0))
        assert published == outcomes
        _cache[key] = published
    return _cache[key]


def _others(path, link, point):
    """g: the product of the path's other links."""
    return math.prod((point[l] for l in path if l != link), start=Fraction(1))


def _by_x(tasks, point):
    """Each link's bound by the integer X = R^-1, in solve order."""
    solved, x = [], {}
    for r, (_, path) in enumerate(tasks):
        (link,) = [l for l in path if l not in x]
        x[link] = [int(q == r) for q in range(len(tasks))]
        for other in path:
            if other != link:
                x[link] = [a - b for a, b in zip(x[link], x[other])]
        solved.append(link)
    bounds = {}
    for link in solved:
        terms = []
        for c, (scheme, path) in zip(x[link], tasks):
            product = math.prod((point[l] for l in path), start=Fraction(1))
            if c:
                terms.append(c * c * (point[link] / product) ** 2 / _information(scheme, product))
        bounds[link] = sum(terms, Fraction(0))
    return bounds


def _information_matrix(tasks, point, links):
    """sum_t J_t g_t g_t^T over ``links``, from the tasks with W < 1."""
    f = [[Fraction(0)] * len(links) for _ in links]
    for scheme, path in tasks:
        product = math.prod((point[l] for l in path), start=Fraction(1))
        if product == 1:
            continue
        g = [_others(path, l, point) if l in path else Fraction(0) for l in links]
        j = _information(scheme, product)
        for a in range(len(links)):
            for b in range(len(links)):
                f[a][b] += j * g[a] * g[b]
    return f


def _by_range(tasks, point):
    """Each link's bound from the range of the information: 0 if known, None if not identifiable."""
    known = {l for _, path in tasks if all(point[m] == 1 for m in path) for l in path}
    rest = [l for l in LINKS if l not in known]
    f = _information_matrix(tasks, point, rest)
    bounds = dict.fromkeys(known, Fraction(0))
    for i, link in enumerate(rest):
        x = _solve(f, [Fraction(int(k == i)) for k in range(len(rest))])
        bounds[link] = None if x is None else x[i]
    return bounds


def _total(tasks):
    return sum(USES[scheme] * len(path) for scheme, path in tasks)


def _close(text, exact):
    """Whether ``text`` is the 12-digit rounding of a value within 1e-14 of ``exact``."""
    if exact is None:
        return text == "inf"
    if exact == 0 or not 0.0 < float(text) < math.inf:
        return exact == 0 and text == "0"
    printed = Fraction(float(text))
    # Half a unit in the 12th significant digit of the printed value.
    half = Fraction(10) ** (math.floor(math.log10(abs(float(text)))) - 11) / 2
    return abs(printed - exact) <= half + exact * Fraction(1, 10**14)


def _run(tmp_path, argv):
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 0
    return [line.split(",") for line in out.read_text().splitlines()[1:]]


def _manifest(name):
    table = {}
    for line in (MANIFESTS / name).read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep and not key.strip().startswith("#"):
            table[key.strip()] = value.strip()
    return table


@pytest.mark.parametrize("manifest", ["star_homogeneous.cfg", "star_heterogeneous.cfg"])
def test_every_printed_star_cell_is_a_rounding_of_the_exact_bound(tmp_path, capsys, manifest):
    fixed = _manifest(manifest)
    exact = {}
    for mode in ("closed-form", "first-principles"):
        for normalize in ("on", "off"):
            argv = ["star", "--config", str(MANIFESTS / manifest)]
            rows = _run(tmp_path, [*argv, "--mode", mode, "--normalize", normalize])
            assert len(rows) == 4 * 99
            for kind, w, printed in rows:
                if (kind, w) not in exact:
                    value = Fraction(float(w))
                    point = {
                        "e0": Fraction(float(fixed.get("fixed.w0", w))),
                        "e1": Fraction(float(fixed.get("fixed.w1", w))),
                        "e2": value,
                    }
                    by_x = _by_x(PLANS[kind], point)
                    # The second route: the diagonal of the inverse information.
                    f = _information_matrix(PLANS[kind], point, LINKS)
                    for i, link in enumerate(LINKS):
                        x = _solve(f, [Fraction(int(k == i)) for k in range(3)])
                        assert x[i] == by_x[link]
                    exact[kind, w] = sum(by_x.values())
                scale = _total(PLANS[kind]) if normalize == "on" else 1
                assert _close(printed, exact[kind, w] * scale), (kind, w, printed)
    capsys.readouterr()


# Hub link dead, the others at interior values and at 1.
EDGE = [(w1, w2) for w1 in ("0.3", "0.7", "1") for w2 in ("0.5", "1")]


@pytest.mark.parametrize("kind", sorted(PLANS))
def test_a_dead_hub_link_bounds_exactly_the_identifiable_links(tmp_path, capsys, kind):
    for w1, w2 in EDGE:
        cfg = tmp_path / "edge.cfg"
        cfg.write_text(
            f"experiment = benchmark\nplan = {kind}\nfixed.w0 = 0\nfixed.w1 = {w1}\n"
            f"fixed.w2 = {w2}\nsamples = 1\nrounds = 2\nmode = closed-form\n"
        )
        rows = _run(tmp_path, ["benchmark", "--config", str(cfg)])
        point = {"e0": Fraction(0), "e1": Fraction(w1), "e2": Fraction(w2)}
        bounds = _by_range(PLANS[kind], point)
        # One sample per task: the printed bound is the bound itself.
        assert [(row[1], _close(row[4], bounds[row[1]])) for row in rows] == [
            (link, True) for link in LINKS
        ], (kind, w1, w2, rows)
    capsys.readouterr()


def test_the_dead_hub_star_sweep_is_infinite_where_a_link_is_not_identifiable(tmp_path, capsys):
    cfg = tmp_path / "star.cfg"
    cfg.write_text("grid.start = 0.01\ngrid.stop = 0.05\nfixed.w0 = 0\nfixed.w1 = 0.5\n")
    for kind, w, printed in _run(tmp_path, ["star", "--config", str(cfg)]):
        point = {"e0": Fraction(0), "e1": Fraction(1, 2), "e2": Fraction(float(w))}
        bounds = _by_range(PLANS[kind], point)
        if None in bounds.values():
            assert printed == "inf"
        else:
            assert _close(printed, sum(bounds.values()) * _total(PLANS[kind]))
    capsys.readouterr()
