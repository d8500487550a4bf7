"""The general Fock primitives stay the tests' reference, not a production path.

``fock.embed_single_mode``, ``apply_channel``, ``partial_trace``, ``tensor``
and ``beam_splitter`` work over the whole joint basis, one occupation at a
time.  The solvers act on single modes and mode pairs instead, and the tests
hold them to these primitives: ``source_amp._cached_bs`` fills only a
splitter's input columns from the pair amplitudes, and
``tests/test_source_circuit.py`` holds it to ``beam_splitter`` bitwise.
"""

import ast
from pathlib import Path

import pytest

import cvbell

REFERENCE_ONLY = {"embed_single_mode", "apply_channel", "partial_trace", "tensor",
                  "beam_splitter"}
PACKAGE = Path(cvbell.__file__).parent
PRODUCTION = sorted(
    path for path in PACKAGE.glob("*.py") if path.name not in ("fock.py", "__init__.py")
)


def fock_names_used(tree: ast.AST) -> set:
    """Names taken from ``cvbell.fock``: imported from it, or read as ``fock.<name>``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            (node.level == 1 and node.module == "fock") or node.module == "cvbell.fock"
        ):
            used.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "fock"):
            used.add(node.attr)
    return used


def test_the_package_has_production_modules():
    assert {"source_amp.py", "bell.py", "measurement.py"} <= {p.name for p in PRODUCTION}


@pytest.mark.parametrize("path", PRODUCTION, ids=lambda p: p.name)
def test_no_production_module_uses_a_reference_primitive(path):
    used = fock_names_used(ast.parse(path.read_text(encoding="utf-8")))
    assert not used & REFERENCE_ONLY, f"{path.name} uses {sorted(used & REFERENCE_ONLY)}"


def test_the_walk_finds_a_reference_import():
    tree = ast.parse("from .fock import ModeBasis, embed_single_mode\nfock.tensor(a, b)\n")
    assert fock_names_used(tree) == {"ModeBasis", "embed_single_mode", "tensor"}
