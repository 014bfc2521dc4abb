"""Count physical and code lines in each file of ``src/qnetomo``.

A code line holds a token other than a comment, and is not part of a
module, class or function docstring.  Blank lines and comment-only lines
are not code.  A token that spans several lines, such as a multi-line
string, makes each of its lines a code line.

Run from anywhere:  python tools/code_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qnetomo"
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """Number of code lines in ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            docstring = node.body[0]
            lines.difference_update(range(docstring.lineno, docstring.end_lineno + 1))
    return len(lines)


def main() -> None:
    total_physical = total_code = 0
    print(f"{'file':<20} {'lines':>6} {'code':>6}")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        physical, code = len(source.splitlines()), code_lines(source)
        total_physical, total_code = total_physical + physical, total_code + code
        print(f"{path.name:<20} {physical:>6} {code:>6}")
    print(f"{'total':<20} {total_physical:>6} {total_code:>6}")


if __name__ == "__main__":
    main()
