"""Every code name that README.md writes as `module.name` exists in ``cvbell.<module>``.

A deletion or a rename that leaves README naming the old object fails here.
Only the first name after the module is checked: in `bell.bisect_threshold.evals`
that is ``bisect_threshold``.
"""

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("bell", "measurement", "fock", "local_amp", "source_amp", "cli", "reproduce", "sweep")
REFERENCE = re.compile(r"`(" + "|".join(MODULES) + r")\.([A-Za-z_]\w*)")


def references(text: str) -> list:
    """The distinct ``(module, name)`` pairs of the backticked references in ``text``."""
    return sorted(set(REFERENCE.findall(text)))


REFERENCES = references(README.read_text(encoding="utf-8"))


def test_the_scan_reads_the_first_name_of_each_reference():
    text = ("`bell._threshold(search, tol)`, `bell.bisect_threshold.evals`, `fock.tensor`,"
            " `dict.get`")
    assert references(text) == [("bell", "_threshold"), ("bell", "bisect_threshold"),
                                ("fock", "tensor")]


def test_readme_names_code():
    assert len(REFERENCES) >= 30


@pytest.mark.parametrize("module, name", REFERENCES, ids=[".".join(r) for r in REFERENCES])
def test_a_readme_reference_resolves(module, name):
    assert hasattr(importlib.import_module(f"cvbell.{module}"), name), f"{module}.{name}"
