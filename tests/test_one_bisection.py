"""Every threshold is bisected in one place, ``bell._threshold``.

The solvers hand ``_threshold`` their delta search, and it alone decides
how a step becomes a verdict: the violation bound, and no search at the
local end.  So no production module but ``bell.py`` reads
``bisect_threshold``.
"""

import ast
from pathlib import Path

import cvbell

PACKAGE = Path(cvbell.__file__).parent


def reads_of(tree: ast.AST, name: str) -> list:
    """Sorted lines that read ``name``, as a bare name or as an attribute."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if (isinstance(node, ast.Name) and node.id == name
                      and isinstance(node.ctx, ast.Load))
                  or (isinstance(node, ast.Attribute) and node.attr == name))


def test_only_bell_reads_bisect_threshold():
    found = {path.name: reads_of(ast.parse(path.read_text(encoding="utf-8")), "bisect_threshold")
             for path in sorted(PACKAGE.glob("*.py"))}
    assert found.pop("bell.py")
    assert not any(found.values()), {name: lines for name, lines in found.items() if lines}


def test_the_walk_finds_calls_and_references():
    tree = ast.parse("from .bell import bisect_threshold\nimport cvbell.bell as bell\n"
                     "bisect_threshold(f)\nsolver = bell.bisect_threshold\n"
                     "bisect_threshold = None\n")
    assert reads_of(tree, "bisect_threshold") == [3, 4]
