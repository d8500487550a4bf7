"""Production modules import at module level only, and read what they import.

A function-level import hides a dependency from the module header and is
usually a sign of an import cycle worked around at run time.  A
module-level import that nothing reads is a leftover of a deletion;
``__init__.py``, which imports to re-export, is exempt.  So is a
module-level private name (``_name``) that no production module reads
outside its own definition: nothing outside the package may rely on it,
so a helper that a deleted path leaves to the tests alone (or to itself)
is dead code.
"""

import ast
from pathlib import Path

import pytest

import cvbell

PACKAGE = Path(cvbell.__file__).parent


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
    assert not found, [f"{path.name}:{line} {module}" for line, module in found]


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


def private_definitions(node: ast.stmt) -> set:
    """The private names (``_name``, not dunder) a module-level statement defines."""
    names = set()
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names.add(node.name)
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names.update(t.id for target in targets for t in ast.walk(target)
                     if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.endswith("__")}


def reads(node: ast.AST) -> set:
    """The names a node reads: loaded bare names and attributes (``module._name``)."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


def unread_private_helpers(modules: dict) -> list:
    """Sorted ``module:name`` of the private names no module reads outside their definition.

    ``modules`` maps a file name to its parsed tree.  A read is a loaded bare
    name or an attribute (``module._name``); an import alone is not one, and
    neither is a read inside the module-level statement that defines the
    name (a recursive call, a default that names the function itself).
    """
    statements = [(name, node, reads(node)) for name, tree in modules.items()
                  for node in tree.body]
    return sorted(f"{name}:{helper}" for name, node, _ in statements
                  for helper in private_definitions(node)
                  if not any(helper in read for _, other, read in statements if other is not node))


def test_every_private_helper_is_read():
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE.glob("*.py"))}
    assert sum(len(private_definitions(node)) for tree in modules.values()
               for node in tree.body) > 100
    unread = unread_private_helpers(modules)
    assert not unread, f"no production module reads {unread}"


def test_the_walk_finds_unread_private_helpers():
    modules = {"m.py": ast.parse("_CACHE = {}\nclass _Kept: pass\ndef _index(): pass\n"
                                 "def _channel():\n    return _Kept()\n"
                                 "def public():\n    return _channel()\n__all__ = []\n"
                                 "def _loop(n):\n    return _loop(n - 1)\n"
                                 "_TABLE = {}\n_TABLE.setdefault(1, 2)\n"),
               "n.py": ast.parse("from .m import _index\nimport m\nm._CACHE\n")}
    # _loop reads itself only; _TABLE is read by a statement other than its own.
    assert unread_private_helpers(modules) == ["m.py:_index", "m.py:_loop"]


def test_the_walk_finds_unused_imports():
    tree = ast.parse("from __future__ import annotations\nimport numpy as np\nimport os.path\n"
                     "import json\nfrom .bell import a, b as c\nnp.x\nc()\n"
                     "def f():\n    return json.dumps(a)\n")
    assert unused_module_imports(tree) == ["os"]
    assert unused_module_imports(ast.parse("from .bell import a, b as c\nb\n")) == ["a", "c"]
