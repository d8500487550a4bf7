"""Every row of the reference battery is built in one place, ``reproduce._row``.

A row's solve is timed once, and its computed text, verdict and detail are
read from what the solve returns.  So in ``reproduce.py`` one function
constructs ``ReportRow`` and the same function calls ``_timed``.
"""

import ast
from pathlib import Path

import cvbell

REPRODUCE = Path(cvbell.__file__).parent / "reproduce.py"


def callers(tree: ast.AST, name: str) -> dict:
    """Lines that call ``name``, keyed by the innermost enclosing function."""
    found: dict = {}

    def walk(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif isinstance(node, ast.Lambda):
            owner = f"<lambda at line {node.lineno}>"
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == name) or (
                    isinstance(func, ast.Attribute) and func.attr == name):
                found.setdefault(owner, []).append(node.lineno)
        for child in ast.iter_child_nodes(node):
            walk(child, owner)

    walk(tree, "<module>")
    return found


def test_one_function_builds_and_times_every_row():
    tree = ast.parse(REPRODUCE.read_text(encoding="utf-8"))
    built, timed = callers(tree, "ReportRow"), callers(tree, "_timed")
    assert len(built) == 1, built
    assert len(timed) == 1, timed
    assert built.keys() == timed.keys() == {"_row"}


def test_the_walk_finds_the_innermost_caller():
    tree = ast.parse("def outer():\n    ReportRow()\n    def inner():\n"
                     "        reproduce.ReportRow()\n    f(lambda: ReportRow())\n"
                     "ReportRow()\nReportRow\n")
    assert callers(tree, "ReportRow") == {"outer": [2], "inner": [4],
                                          "<lambda at line 5>": [5], "<module>": [6]}
