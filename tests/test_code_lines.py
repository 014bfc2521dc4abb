"""``tools/code_lines.py``: what counts as a code line."""

import runpy
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
code_lines = runpy.run_path(str(TOOL))["code_lines"]

SOURCE = '''"""Module docstring
over two lines."""

import math  # a trailing comment keeps the line

# A comment-only line.


class Box:
    """Class docstring."""

    size = 2

    def area(self):
        """Function
        docstring.
        """
        return math.prod(
            (self.size, self.size),
        )


async def wait():
    """Async docstring."""
    text = """a string
that is not a docstring"""
    return text
'''


def test_docstrings_comments_and_blanks_are_not_code():
    # import, class, size, def, the three lines of the call, async def, the
    # two lines of the string and the return.
    assert code_lines(SOURCE) == 11


def test_a_source_of_only_a_docstring_and_comments_has_no_code():
    assert code_lines('"""Only a docstring."""\n# and a comment\n\n') == 0
