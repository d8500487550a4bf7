"""Result files of every command: a CSV table and a JSON metadata sidecar.

A sweep itself is a threshold solver run at each swept value, in the
calling process (see :mod:`cvbell.cli`); this module only writes what it
found.
Every run writes one UTF-8 CSV (LF line endings, floats at 17 significant
digits, self-describing named columns) plus a sidecar JSON recording the
schema version, the full effective configuration (its ``tol`` is the
bisection tolerance the solvers got), the delta-refinement width and the
violation margin of :mod:`cvbell.bell`, and the measurement conventions.
Files are written atomically (temp file + rename) so a failed run leaves no
partial output.
"""

from __future__ import annotations

import csv
import errno
import json
import os
import tempfile

from . import __version__
from .bell import DELTA_REFINE_TOL, VIOLATION_MARGIN
from .measurement import QUADRATURE_CONVENTION

SCHEMA_VERSION = 1

CONVENTIONS = {
    "quadrature": QUADRATURE_CONVENTION,
    "basis_order": "lexicographic occupation tuples",
    "beam_splitter": (
        "a_i+ -> sqrt(t) a_i+ + sqrt(1-t) a_j+; "
        "a_j+ -> -sqrt(1-t) a_i+ + sqrt(t) a_j+"
    ),
    "photodetection": "observable +1 on click",
    "binned_homodyne": "observable +1 for |x| <= delta",
}

def format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _atomic_write(path: str, writer) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        blocker = os.path.dirname(path)  # the file in the way, not makedirs' "File exists"
        while blocker and not os.path.lexists(blocker):
            blocker = os.path.dirname(blocker)
        raise NotADirectoryError(errno.ENOTDIR, f"{blocker or '.'} is not a directory") from None
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cvbell-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            writer(handle)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, fieldnames: list[str], rows: list[dict]) -> None:
    def writer(handle):
        out = csv.DictWriter(handle, fieldnames=fieldnames, lineterminator="\n")
        out.writeheader()
        for row in rows:
            out.writerow({k: format_value(row.get(k)) for k in fieldnames})

    _atomic_write(path, writer)


def write_sidecar(path: str, command: str, effective_config: dict,
                  extra: dict | None = None) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "package": "cvbell",
        "package_version": __version__,
        "command": command,
        "effective_config": effective_config,
        "conventions": CONVENTIONS,
        "tolerances": {"delta_refinement": DELTA_REFINE_TOL,
                       "violation_margin": VIOLATION_MARGIN},
    }
    if extra:
        payload.update(extra)

    def writer(handle):
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    _atomic_write(path, writer)


def sidecar_path(csv_path: str) -> str:
    root, _ = os.path.splitext(csv_path)
    return root + ".json"
