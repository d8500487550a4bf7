"""Production modules import at module level only.

A function-level import hides a dependency from the module header and is
usually a sign of an import cycle worked around at run time.  The one
exception is ``parallel``'s ``multiprocessing``, which only a worker pool
needs and which is kept off ``import cvbell``.
"""

import ast
from pathlib import Path

import pytest

import cvbell

PACKAGE = Path(cvbell.__file__).parent
ALLOWED = {("parallel.py", "multiprocessing")}


def function_level_imports(tree: ast.AST) -> list:
    """Sorted (line, imported module) of every import inside a function body."""
    found = set()
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.Import):
                    found.update((node.lineno, alias.name) for alias in node.names)
                elif isinstance(node, ast.ImportFrom):
                    found.add((node.lineno, "." * node.level + (node.module or "")))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_function_level_import(path):
    found = function_level_imports(ast.parse(path.read_text(encoding="utf-8")))
    bad = [f"{path.name}:{line} {module}" for line, module in found
           if (path.name, module) not in ALLOWED]
    assert not bad, bad


def test_the_walk_finds_nested_imports():
    tree = ast.parse("import os\ndef f():\n    from .fock import x\n    def g():\n"
                     "        import json\n")
    assert function_level_imports(tree) == [(3, ".fock"), (5, "json")]
