"""Mutation testing: apply one small source change at a time and run tests.

Three operators, each applied at every site of the named files:

* ``compare``: flip ``<``/``<=``, ``>``/``>=`` and ``==``/``!=``;
* ``arith``: swap ``+``/``-`` and ``*``/``/``, in expressions and in
  augmented assignments;
* ``float``: scale a float constant by 1.5 and add 1e-7.

Each mutant is written into a copy of the repository, never into the
repository itself, and the given pytest selection runs in that copy.  A
mutant is killed when pytest fails or runs past the timeout, and survives
when pytest passes.  The unmutated copy runs first and must pass.  One
line per mutant, ``file:line:column operator old->new`` and then
``survived``, or ``killed`` and the tests pytest reports failing.

Run from anywhere:
    python tools/mutants.py src/qnetomo/fisher.py -- tests/test_fisher.py -x -q
    python tools/mutants.py --list src/qnetomo/fisher.py src/qnetomo/validation.py
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300.0  # a pytest run past this kills its mutant
_COMPARE = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
}
_ARITH = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
_SYMBOL = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
}
_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_build"
)


def _char_col(line: str, byte_col: int) -> int:
    """The character column of an AST byte offset on ``line``."""
    return len(line.encode("utf-8")[:byte_col].decode("utf-8"))


def sites(source: str) -> list:
    """Every mutant of ``source``: ``(line, col, end_line, end_col, operator, old, new)``.

    Positions are 1-based lines and 0-based character columns of the text
    to replace, in source order.
    """
    lines = source.splitlines(keepends=True)

    def start(node):
        return node.lineno, _char_col(lines[node.lineno - 1], node.col_offset)

    def end(node):
        return node.end_lineno, _char_col(lines[node.end_lineno - 1], node.end_col_offset)

    def operator_between(left, right, symbol):
        # Between two operands there are only blanks, brackets, comments and
        # the operator, also inside an f-string's replacement field.
        (first, col), (last, last_col) = end(left), start(right)
        for line in range(first, last + 1):
            text = lines[line - 1][col : last_col if line == last else None]
            at = text.split("#")[0].find(symbol)
            if at >= 0:
                return line, col + at, line, col + at + len(symbol)
            col = 0
        raise ValueError(f"no {symbol!r} between the operands ending at line {last}")

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for left, right, op in zip(operands, operands[1:], node.ops):
                if type(op) in _COMPARE:
                    old, new = _SYMBOL[type(op)], _SYMBOL[_COMPARE[type(op)]]
                    found.append((*operator_between(left, right, old), "compare", old, new))
        elif isinstance(node, ast.BinOp) and type(node.op) in _ARITH:
            old, new = _SYMBOL[type(node.op)], _SYMBOL[_ARITH[type(node.op)]]
            found.append((*operator_between(node.left, node.right, old), "arith", old, new))
        elif isinstance(node, ast.AugAssign) and type(node.op) in _ARITH:
            old, new = _SYMBOL[type(node.op)] + "=", _SYMBOL[_ARITH[type(node.op)]] + "="
            found.append((*operator_between(node.target, node.value, old), "arith", old, new))
        elif isinstance(node, ast.Constant) and type(node.value) is float:
            new = repr(node.value * 1.5 + 1e-7)
            found.append((*start(node), *end(node), "float", repr(node.value), new))
    return sorted(found)


def apply(source: str, site: tuple) -> str:
    """``source`` with the one mutant ``site`` (an item of ``sites``) applied."""
    line, col, end_line, end_col, _, _, new = site
    lines = source.splitlines(keepends=True)
    head = "".join(lines[: line - 1]) + lines[line - 1][:col]
    tail = lines[end_line - 1][end_col:] + "".join(lines[end_line:])
    return head + new + tail


def _failures(output: str) -> str:
    """The tests a pytest summary reports failed or in error, space-separated."""
    return " ".join(
        text.split(" ")[1] for text in output.splitlines() if text.startswith(("FAILED ", "ERROR "))
    )


def _run(copy: Path, pytest_args: list) -> tuple:
    """(passed, failing tests) of one pytest run in ``copy``."""
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(copy / "src")}
    command = [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", *pytest_args]
    try:
        done = subprocess.run(
            command, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return False, "(timeout)"
    return done.returncode == 0, _failures(done.stdout)


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", help="source files, relative to the repository root")
    parser.add_argument("--list", action="store_true", help="print the mutants and run nothing")
    parser.add_argument("--root", type=Path, default=ROOT, help="repository to copy")
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    args, pytest_args = parser.parse_args(argv[:split]), argv[split + 1 :]
    sources = {f: (args.root / f).read_text(encoding="utf-8") for f in args.files}
    mutants = [(f, site) for f, source in sources.items() for site in sites(source)]
    if args.list:
        for f, (line, col, _, _, operator, old, new) in mutants:
            print(f"{f}:{line}:{col} {operator} {old}->{new}")
        print(f"{len(mutants)} mutants")
        return 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as workdir:
        copy = Path(shutil.copytree(args.root, Path(workdir) / "repo", ignore=_IGNORE))
        passed, failure = _run(copy, pytest_args)
        if not passed:
            print(f"unmutated, the copy fails: {failure or 'pytest'}", file=sys.stderr)
            return 2
        survived = 0
        for f, site in mutants:
            (copy / f).write_text(apply(sources[f], site), encoding="utf-8")
            passed, failure = _run(copy, pytest_args)
            (copy / f).write_text(sources[f], encoding="utf-8")
            line, col, _, _, operator, old, new = site
            survived += passed
            verdict = "survived" if passed else f"killed {failure}".rstrip()
            print(f"{f}:{line}:{col} {operator} {old}->{new} {verdict}", flush=True)
    print(f"{len(mutants) - survived} of {len(mutants)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
