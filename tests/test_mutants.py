"""``tools/mutants.py``: where each operator applies, and what a run reports."""

import ast
import runpy
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
_TOOL = runpy.run_path(str(TOOL))
sites, apply = _TOOL["sites"], _TOOL["apply"]


def mutants(source):
    """(operator, old, new, mutated source) of every site, in source order."""
    return [(s[4], s[5], s[6], apply(source, s)) for s in sites(source)]


@pytest.mark.parametrize(
    "old, new", [("<", "<="), ("<=", "<"), (">", ">="), (">=", ">"), ("==", "!="), ("!=", "==")]
)
def test_compare_flips_each_operator(old, new):
    assert mutants(f"ok = a {old} b\n") == [("compare", old, new, f"ok = a {new} b\n")]


def test_compare_flips_each_link_of_a_chain_alone():
    assert [m[3] for m in mutants("ok = lo < mid <= hi\n")] == [
        "ok = lo <= mid <= hi\n",
        "ok = lo < mid < hi\n",
    ]


def test_compare_leaves_identity_and_membership_alone():
    assert mutants("ok = a is b or a in c or a is not d or a not in e\n") == []


@pytest.mark.parametrize("old, new", [("+", "-"), ("-", "+"), ("*", "/"), ("/", "*")])
def test_arith_swaps_each_operator(old, new):
    assert mutants(f"x = a {old} b\n") == [("arith", old, new, f"x = a {new} b\n")]
    assert mutants(f"x {old}= b\n") == [("arith", f"{old}=", f"{new}=", f"x {new}= b\n")]


def test_arith_leaves_other_operators_and_signs_alone():
    assert mutants("x = -a ** 2 // b % c @ d\n") == []


def test_arith_finds_the_operator_past_brackets_comments_and_line_breaks():
    source = "x = (a - b  # b - a\n     ) - (\n    c * (d / e)\n)\n"
    assert [m[3] for m in mutants(source)] == [
        "x = (a + b  # b - a\n     ) - (\n    c * (d / e)\n)\n",
        "x = (a - b  # b - a\n     ) + (\n    c * (d / e)\n)\n",
        "x = (a - b  # b - a\n     ) - (\n    c / (d / e)\n)\n",
        "x = (a - b  # b - a\n     ) - (\n    c * (d * e)\n)\n",
    ]


def test_an_operator_in_an_f_string_is_its_own_site():
    # Before Python 3.12 a whole f-string is one token: the site must come
    # from the text between the operands, not from the next matching token.
    source = 's = f"{a + 1} {p == q}"\nx = b + c\nok = p == q\n'
    assert [m[3] for m in mutants(source)] == [
        's = f"{a - 1} {p == q}"\nx = b + c\nok = p == q\n',
        's = f"{a + 1} {p != q}"\nx = b + c\nok = p == q\n',
        's = f"{a + 1} {p == q}"\nx = b - c\nok = p == q\n',
        's = f"{a + 1} {p == q}"\nx = b + c\nok = p != q\n',
    ]
    assert mutants('msg = f"{n + 1}"\n') == [("arith", "+", "-", 'msg = f"{n - 1}"\n')]


def test_float_scales_by_one_and_a_half_plus_1e_7():
    assert mutants("x = 0.5 + 2 * 1e-12\n") == [
        ("float", "0.5", "0.7500001", "x = 0.7500001 + 2 * 1e-12\n"),
        ("arith", "+", "-", "x = 0.5 - 2 * 1e-12\n"),
        ("arith", "*", "/", "x = 0.5 + 2 / 1e-12\n"),
        ("float", "1e-12", "1.000015e-07", "x = 0.5 + 2 * 1.000015e-07\n"),
    ]
    assert mutants("x = 0.0\n") == [("float", "0.0", "1e-07", "x = 1e-07\n")]


def test_float_leaves_integers_strings_and_docstrings_alone():
    assert mutants('"""Doc 0.5 < 1.0."""\nn = 3\ns = "2.5 - 1.0"\n') == []


def test_positions_count_characters_past_non_ascii_text():
    source = 'def f(w):\n    """Cramér-Rao."""\n    return "é", w * 0.5  # ≤ 1\n'
    assert [m[3] for m in mutants(source)] == [
        'def f(w):\n    """Cramér-Rao."""\n    return "é", w / 0.5  # ≤ 1\n',
        'def f(w):\n    """Cramér-Rao."""\n    return "é", w * 0.7500001  # ≤ 1\n',
    ]


def test_each_mutant_changes_exactly_its_site():
    source = textwrap.dedent(
        """\
        def gap(lo, hi):
            mid = 0.5 * (lo + hi)
            while lo < mid < hi:
                hi -= (hi - lo) / 2.0
            return mid if mid != hi else None
        """
    )
    original = ast.dump(ast.parse(source))
    found = mutants(source)
    assert len(found) == 10
    for _, _, _, mutated in found:
        assert ast.dump(ast.parse(mutated)) != original
        changed = [a != b for a, b in zip(source.splitlines(), mutated.splitlines())]
        assert sum(changed) == 1


def test_a_run_reports_killed_and_survived(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "area.py").write_text("def area(w, h):\n    return w * h + 0.0\n")
    (tmp_path / "test_area.py").write_text(
        "from area import area\n\ndef test_area():\n    assert area(2, 3) == 6\n"
    )
    done = subprocess.run(
        [sys.executable, str(TOOL), "--root", str(tmp_path), "src/area.py", "--", "-q"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.splitlines() == [
        "src/area.py:2:13 arith *->/ killed test_area.py::test_area",
        "src/area.py:2:17 arith +->- survived",
        "src/area.py:2:19 float 0.0->1e-07 killed test_area.py::test_area",
        "2 of 3 mutants killed",
    ]
    # The repository itself is never written.
    assert (tmp_path / "src" / "area.py").read_text() == "def area(w, h):\n    return w * h + 0.0\n"


def test_a_failing_unmutated_copy_runs_no_mutant(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "area.py").write_text("def area(w, h):\n    return w + h\n")
    (tmp_path / "test_area.py").write_text(
        "from area import area\n\ndef test_area():\n    assert area(2, 3) == 6\n"
    )
    done = subprocess.run(
        [sys.executable, str(TOOL), "--root", str(tmp_path), "src/area.py", "--", "-q"],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 2 and done.stdout == ""
    assert "test_area.py::test_area" in done.stderr
