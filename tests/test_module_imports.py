"""Production modules import at module level only, and read what they import.

A function-level import hides a dependency from the module header and is
usually a sign of an import cycle worked around at run time.  The one
exception is ``parallel``'s ``multiprocessing``, which only a worker pool
needs and which is kept off ``import cvbell``.  A module-level import that
nothing reads is a leftover of a deletion; ``__init__.py``, which imports to
re-export, is exempt.
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


def unused_module_imports(tree: ast.Module) -> list:
    """Sorted names a module imports at module level but never reads.

    ``from __future__`` imports bind no name the module reads, so they are
    skipped.
    """
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    unused = unused_module_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert not unused, f"{path.name} never reads {unused}"


def test_the_walk_finds_unused_imports():
    tree = ast.parse("from __future__ import annotations\nimport numpy as np\nimport os.path\n"
                     "import json\nfrom .bell import a, b as c\nnp.x\nc()\n"
                     "def f():\n    return json.dumps(a)\n")
    assert unused_module_imports(tree) == ["os"]
    assert unused_module_imports(ast.parse("from .bell import a, b as c\nb\n")) == ["a", "c"]
