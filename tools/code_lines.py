"""Count the lines and the code lines of each module of a Python package.

A code line is a line that holds at least one token other than a comment
or layout (newlines, indentation), and is not part of a docstring: the
first statement of a module, class or function when it is a string
literal.  A multi-line string that is not a docstring counts every line it
spans.  Only the standard library is used (``ast`` for the docstrings,
``tokenize`` for the rest).

Usage::

    python tools/code_lines.py [PACKAGE_DIR]    # default: src/cvbell

prints ``lines code_lines module`` per module, then the totals.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every module, class and function docstring."""
    rows = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                rows.update(range(first.lineno, first.end_lineno + 1))
    return rows


def count(source: str) -> tuple[int, int]:
    """``(lines, code lines)`` of one module's source."""
    rows = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            rows.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(rows - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    package = Path(argv[1] if len(argv) > 1 else "src/cvbell")
    totals = [0, 0]
    for path in sorted(package.glob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        totals[0] += lines
        totals[1] += code
        print(f"{lines:6d} {code:6d}  {path.name}")
    print(f"{totals[0]:6d} {totals[1]:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
