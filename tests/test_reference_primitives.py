"""The general Fock primitives stay the tests' reference, not a production path.

``fock.embed_single_mode``, ``apply_channel``, ``partial_trace``, ``tensor``
and ``beam_splitter`` work over the whole joint basis, one occupation at a
time.  The solvers act on single modes and mode pairs instead, and the tests
hold them to these primitives: ``source_amp._cached_bs`` fills only a
splitter's input columns from the pair amplitudes, and
``tests/test_source_circuit.py`` holds it to ``beam_splitter`` bitwise.

The loss channel matrix ``measurement._loss_channel`` has a layout (the
raveled ``(n, n')`` pairs of ``C = sum_k A_k (x) A_k``) that only
``measurement.py`` knows: the other modules apply loss through
``_through_loss``.

``bell.bell_matrices`` and ``bell.bell_matrix`` build whole Bell matrices
densely (``bell._projected_kron``); the solvers gather only the
photon-parity sector entries (``bell._packed_kron``), so no module reads
the dense builders outside their own definitions.
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


def names_read(tree: ast.AST) -> set:
    """Every name a module reads: bare names, attributes and imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "measurement.py"),
                         ids=lambda p: p.name)
def test_only_measurement_reads_the_loss_channel_matrix(path):
    assert "_loss_channel" not in names_read(ast.parse(path.read_text(encoding="utf-8")))


def test_the_walk_finds_the_loss_channel():
    assert "_loss_channel" in names_read(ast.parse((PACKAGE / "measurement.py").read_text()))
    for source in ("from .measurement import _loss_channel\n",
                   "measurement._loss_channel(0.5, 2)\n"):
        assert "_loss_channel" in names_read(ast.parse(source))


DENSE_REFERENCE = {"bell_matrices", "bell_matrix", "_projected_kron"}


def names_read_outside(tree: ast.Module, definitions: set) -> set:
    """:func:`names_read` of a module without its top-level functions in ``definitions``."""
    tree.body = [node for node in tree.body
                 if not (isinstance(node, ast.FunctionDef) and node.name in definitions)]
    return names_read(tree)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_the_dense_bell_reference(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert not names_read_outside(tree, DENSE_REFERENCE) & DENSE_REFERENCE


def test_the_walk_finds_a_dense_bell_call():
    source = "def bell_matrix(b, s):\n    return bell_matrices(b)\nB = bell.bell_matrix(b, s)\n"
    assert names_read_outside(ast.parse(source), DENSE_REFERENCE) & DENSE_REFERENCE == {
        "bell_matrix"}
    assert not names_read_outside(ast.parse(source.split("B =")[0]), DENSE_REFERENCE)
