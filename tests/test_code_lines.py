"""The code-line counter of ``tools/code_lines.py`` skips docstrings, comments and blanks."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line


# a comment line
def f(x):
    """Function docstring."""

    text = """a string that is
not a docstring"""
    return math.sqrt(x), text
'''


def test_docstrings_comments_and_blank_lines_are_not_code():
    # Code: the import, the def, the two lines of the string and the return.
    assert code_lines.count(SOURCE) == (13, 5)


def test_a_class_docstring_is_not_code():
    assert code_lines.count('class A:\n    """Doc."""\n\n    x = 1\n') == (4, 2)
