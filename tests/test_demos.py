"""Every demo prints exactly its committed output (``demos/expected/<name>.txt``)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_expected_output():
    expected = {path.stem for path in (ROOT / "demos" / "expected").glob("*.txt")}
    assert expected == {demo.stem for demo in DEMOS}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_output(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == (ROOT / "demos" / "expected" / f"{demo.stem}.txt").read_text()
