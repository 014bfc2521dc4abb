"""Benchmark of the qnetomo command line, end to end and layer by layer.

    python3 perfbench/run.py --workload {sweeps,montecarlo,validate} \
        [--seed N] [--seconds S] [--trace {0,1}]

Run from the root of a source checkout; nothing needs installing.  The
source tree goes on PYTHONPATH, every command runs as
``python -m qnetomo.cli`` in a fresh process or through ``qnetomo.cli.main``
in this one, and every output lands in a temporary directory under
``.bench_build/``.  Processes start one at a time.  Each output is checked
against ``reference.py``; the last line of standard output is one JSON
object with the operation counts and the metrics (see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
from recorder import LAYERS, Recorder

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MANIFESTS = ROOT / "manifests"
BUILD = ROOT / ".bench_build"

MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
SETUP_PER_ROUND = 2
IMPORTTIME_SAMPLES = 5
CHILD_TIMEOUT_S = 60
ORACLE_SETS_PER_LENGTH = 4
# Time of ``calibration_loop`` on the reference machine; timed samples are
# reported at this speed (see ``Calibration``).
REFERENCE_LOOP_S = 0.011

# The montecarlo workload's own star run: a hybrid plan with LZM path tasks,
# long enough (about 0.3 s warm) to time steadily.
HYB3_RUN = {
    "experiment": "benchmark",
    "plan": "HYB3",
    "fixed.w0": "0.95",
    "fixed.w1": "0.85",
    "fixed.w2": "0.75",
    "samples": "20000",
    "rounds": "1000",
    "mode": "first-principles",
}


# Runs the CLI as ``python -m qnetomo.cli`` does and, at exit, writes the
# process's own peak resident set (VmHWM, kB) to the file named first.  The
# ``ru_maxrss`` that wait4 returns cannot serve: exec carries the parent's
# high-water mark into the child's, so every child would read at least the
# peak of this process, numpy and a warm pass included.
CLI_LAUNCHER = """\
import atexit, runpy, sys
peak_path = sys.argv.pop(1)
def write_peak():
    with open("/proc/self/status", encoding="ascii") as status:
        kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(peak_path, "w", encoding="ascii") as out:
        out.write(kb)
atexit.register(write_peak)
runpy.run_module("qnetomo.cli", run_name="__main__", alter_sys=True)
"""


def calibration_loop(matrix) -> float:
    """Seconds of a fixed mix of bytecode and small NumPy linear algebra."""
    linalg = sys.modules["numpy"].linalg
    start = time.perf_counter()
    total = 0
    for i in range(60000):
        total += i * i % 7
    for _ in range(300):
        linalg.eigvalsh(matrix)
        linalg.inv(matrix)
    return time.perf_counter() - start


class Calibration:
    """Corrects wall times for the machine's speed, which drifts.

    On shared cores the same work takes up to 40% longer from one minute to
    the next.  ``calibration_loop`` runs after every timed sample, on the
    same core, and the sample is scaled by ``REFERENCE_LOOP_S`` over the
    mean of the loop times just before and just after it.  The loop is the
    benchmark's own code, so a change to qnetomo moves the sample and not
    the loop.
    """

    def __init__(self) -> None:
        numpy = sys.modules["numpy"]
        self.matrix = numpy.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.0]])
        self.last = calibration_loop(self.matrix)

    def scale(self, seconds: float) -> float:
        before, self.last = self.last, calibration_loop(self.matrix)
        return seconds * REFERENCE_LOOP_S / ((before + self.last) / 2)


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout()


@dataclass(frozen=True)
class Command:
    """One CLI invocation: its arguments (without --out) and resolved manifest."""

    label: str
    args: tuple
    config: dict

    def check(self, csv_text: str, stdout_text: str) -> list:
        kind = self.args[0]
        if kind == "single-link":
            return checks.check_single_link(csv_text, self.config)
        if kind == "ratio":
            return checks.check_ratio(csv_text, self.config, stdout_text)
        if kind == "star":
            return checks.check_star(csv_text, self.config)
        if kind == "benchmark":
            return checks.check_benchmark(csv_text, self.config)
        return checks.check_validate(csv_text)


def shipped(cli, stem: str, *flags: str, label: str | None = None) -> Command:
    path = MANIFESTS / f"{stem}.cfg"
    config = cli._parse_config_file(str(path))
    for flag, value in zip(flags[::2], flags[1::2]):
        config[flag.lstrip("-")] = value
    return Command(label or stem, (config["experiment"], "--config", str(path), *flags), config)


def workload_commands(cli, name: str, seed: int, tmp: Path) -> list:
    if name == "sweeps":
        return [
            shipped(cli, "single_link"),
            shipped(cli, "ratio"),
            shipped(cli, "star_homogeneous"),
            shipped(cli, "star_heterogeneous"),
            shipped(
                cli,
                "star_heterogeneous",
                "--mode",
                "first-principles",
                label="star_heterogeneous_first_principles",
            ),
        ]
    if name == "montecarlo":
        config = dict(HYB3_RUN, seed=str(seed))
        path = tmp / "benchmark_hyb3.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in config.items()), encoding="utf-8")
        hybrid = Command("benchmark_hyb3", ("benchmark", "--config", str(path)), config)
        return [shipped(cli, "benchmark_jbm2"), shipped(cli, "benchmark_pem_single"), hybrid]
    return [Command("validate", ("validate",), {})]


def oracle_param_sets(seed: int) -> list:
    """Seeded 2- and 3-link parameter sets for the multi-link oracle check."""
    rng = random.Random(seed)
    return [
        [round(rng.uniform(0.0, 1.0), 6) for _ in range(length)]
        for length in (2, 3)
        for _ in range(ORACLE_SETS_PER_LENGTH)
    ]


def parse_importtime(stderr: str) -> tuple:
    """(numpy, qnetomo without numpy) cumulative import seconds."""
    cumulative = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = line.split("|")
            if cum.strip().isdigit():
                cumulative[name.strip()] = int(cum) * 1e-6
    numpy_s = cumulative["numpy"]
    return numpy_s, cumulative["qnetomo.cli"] - numpy_s


class Bench:
    """Runs operations, checks their outputs and keeps the accounting."""

    def __init__(self, tmp: Path, cli) -> None:
        self.tmp = tmp
        self.cli = cli
        self.calibration = None
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.attempted = 0
        self.failed = 0
        self.check_failed = False
        self.problems: list = []
        self.verdicts: dict = {}
        self.hashes: dict = {}

    def scaled(self, seconds: float) -> float:
        return self.calibration.scale(seconds) if self.calibration else seconds

    def record(self, what: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {problems[0]}")

    def spawn(self, argv: list) -> tuple:
        """(exit code, wall seconds, stdout, stderr) of one child."""
        out_path, err_path = self.tmp / "child.out", self.tmp / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.tmp, env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
            )
            signal.alarm(CHILD_TIMEOUT_S)
            try:
                _, status = os.waitpid(proc.pid, 0)
            except ChildTimeout:
                proc.kill()
                _, status = os.waitpid(proc.pid, 0)
            finally:
                signal.alarm(0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (
            proc.returncode,
            seconds,
            out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def judge(self, cmd: Command, code, csv_path: Path, stdout: str, stderr: str) -> list:
        if code != 0:
            tail = stderr.strip().splitlines()[-1:] or [""]
            return [f"exit code {code} {tail[0]}"]
        if "Traceback (most recent call last)" in stderr:
            return ["traceback on stderr"]
        try:
            data = csv_path.read_bytes()
        except OSError:
            return ["no CSV written"]
        digest = hashlib.sha256(data).hexdigest()
        self.hashes.setdefault(cmd.label, {})[digest] = None
        key = (cmd.label, digest, stdout)
        if key not in self.verdicts:
            self.verdicts[key] = cmd.check(data.decode("utf-8", errors="replace"), stdout)
            self.check_failed |= bool(self.verdicts[key])
        return self.verdicts[key]

    def _csv_path(self, cmd: Command) -> Path:
        path = self.tmp / f"{cmd.label}.csv"
        path.unlink(missing_ok=True)
        return path

    def fresh(self, cmd: Command) -> tuple:
        """(seconds, peak RSS MiB) of one command in a fresh process."""
        csv_path = self._csv_path(cmd)
        peak_path = self.tmp / "child.peak"
        peak_path.unlink(missing_ok=True)
        argv = [sys.executable, "-c", CLI_LAUNCHER, str(peak_path), *cmd.args, "--out", str(csv_path)]
        code, seconds, stdout, stderr = self.spawn(argv)
        problems = self.judge(cmd, code, csv_path, stdout, stderr)
        try:
            rss = int(peak_path.read_text(encoding="ascii")) / 1024.0
        except (OSError, ValueError):
            rss = 0.0
            problems = problems or ["no peak resident set written"]
        self.record(f"fresh {cmd.label}", problems)
        return self.scaled(seconds), rss

    def warm(self, cmd: Command) -> float:
        """Seconds of one command through ``qnetomo.cli.main`` in this process."""
        csv_path = self._csv_path(cmd)
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.cli.main([*cmd.args, "--out", str(csv_path)])
        except (Exception, SystemExit):
            code = "raised"
            stderr.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        problems = self.judge(cmd, code, csv_path, stdout.getvalue(), stderr.getvalue())
        self.record(f"warm {cmd.label}", problems)
        return self.scaled(seconds)

    def fresh_pass(self, cmds: list) -> tuple:
        results = [self.fresh(cmd) for cmd in cmds]
        return sum(s for s, _ in results), max(r for _, r in results)

    def warm_pass(self, cmds: list) -> float:
        gc.collect()  # so no pass pays for garbage an earlier one left
        return sum(self.warm(cmd) for cmd in cmds)

    def setup_sample(self) -> float:
        code, seconds, _, stderr = self.spawn([sys.executable, "-c", "import qnetomo.cli"])
        problems = [f"exit code {code}"] if code != 0 else []
        if "Traceback (most recent call last)" in stderr:
            problems.append("traceback on stderr")
        self.record("import qnetomo.cli", problems)
        return self.scaled(seconds)

    def importtime_sample(self) -> tuple:
        argv = [sys.executable, "-X", "importtime", "-c", "import qnetomo.cli"]
        code, _, _, stderr = self.spawn(argv)
        self.record("importtime qnetomo.cli", [] if code == 0 else [f"exit code {code}"])
        return parse_importtime(stderr)

    def oracle_paths(self, seed: int) -> None:
        oracle = sys.modules["qnetomo.oracle"]
        schemes = {
            "LZM": oracle.lzm_oracle_probabilities,
            "JBM": oracle.jbm_oracle_probabilities,
            "PEM": oracle.pem_oracle_probabilities,
        }
        for ws in oracle_param_sets(seed):
            problems = checks.check_oracle_paths(schemes, [ws])
            self.check_failed |= bool(problems)
            self.record(f"oracle path {ws}", problems)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(bench: Bench, cmds: list, seconds: float) -> dict:
    """End-to-end metrics: whole rounds of set-up, fresh and warm passes."""
    bench.setup_sample()  # writes bytecode caches, which users keep too
    bench.warm_pass(cmds)
    bench.calibration = Calibration()
    setup, cli, rss, warm = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(cli) < MIN_ROUNDS or time.perf_counter() < deadline:
        setup.extend(bench.setup_sample() for _ in range(SETUP_PER_ROUND))
        pass_s, pass_rss = bench.fresh_pass(cmds)
        cli.append(pass_s)
        rss.append(pass_rss)
        warm.append(bench.warm_pass(cmds))
    print(f"rounds {len(cli)}, set-up samples {len(setup)}")
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "cli_s": metric(statistics.median(cli), "s"),
        "warm_s": metric(statistics.median(warm), "s"),
        "peak_rss_mib": metric(statistics.median(rss), "MiB"),
    }


def traced_run(bench: Bench, cmds: list, seconds: float, trace_path: Path) -> dict:
    """Per-layer metrics from warm passes with the recorder installed."""
    bench.setup_sample()  # writes bytecode caches before import is timed
    imports = [bench.importtime_sample() for _ in range(IMPORTTIME_SAMPLES)]
    linalg = sys.modules["numpy"].linalg
    bench.warm_pass(cmds)
    plain, traced, self_times, counts = [], [], [], []
    first = None
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_TRACED_ROUNDS or time.perf_counter() < deadline:
        plain.append(bench.warm_pass(cmds))
        with Recorder(linalg) as rec:
            traced.append(bench.warm_pass(cmds))
        self_times.append(rec.self_times())
        counts.append(rec.layer_counts())
        first = first or rec
    bench.record(
        "trace counts repeat",
        [] if all(c == counts[0] for c in counts) else ["counts differ between traced passes"],
    )
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_path, "w", encoding="utf-8") as handle:
        first.dump(handle, 0)
    print(f"traced passes {len(traced)}, spans of the first written to {trace_path.relative_to(ROOT)}")
    out = {
        "import.numpy_s": metric(statistics.median(i[0] for i in imports), "s"),
        "import.qnetomo_s": metric(statistics.median(i[1] for i in imports), "s"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = metric(statistics.median(t[layer] for t in self_times), "s")
    for name, value in counts[0].items():
        out[name] = metric(value, "ratio" if name.endswith("_ratio") else "count")
    out["trace.overhead_s"] = metric(statistics.median(traced) - statistics.median(plain), "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweeps", "montecarlo", "validate"))
    parser.add_argument("--seed", type=int, default=12345, help="workload seed (default 12345)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qnetomo" / "cli.py").is_file() or not MANIFESTS.is_dir():
        print(f"error: no qnetomo source tree under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qnetomo.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "qnetomo":
        print(f"error: imported qnetomo from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    # One core for this process and its children, so the calibration loop
    # runs where the timed work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    signal.signal(signal.SIGALRM, _on_alarm)
    BUILD.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=BUILD) as tmp:
        bench = Bench(Path(tmp), cli)
        cmds = workload_commands(cli, args.workload, args.seed, Path(tmp))
        if args.workload == "validate":
            bench.oracle_paths(args.seed)
        if args.trace:
            trace_path = BUILD / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
            metrics = traced_run(bench, cmds, args.seconds, trace_path)
        else:
            metrics = timed_run(bench, cmds, args.seconds)
    for problem in bench.problems:
        print(f"failed: {problem}", file=sys.stderr)
    for label, digests in bench.hashes.items():
        for digest in digests:
            print(f"csv_sha256 {label} {digest}")
    result = {
        "correct": not bench.check_failed,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
