"""Command-line front end.

Commands
--------
threshold      critical transmission or detection efficiency for one setup
region         violation-region boundary eta_t*(eta_d) for optimal or fixed states
source-amp     region boundary for the amplified source
local-amp      critical transmission with local filters
multi-filter   threshold versus number of filter applications
reproduce-all  run every reference check and fail on any miss

Every command but reproduce-all runs one threshold solver of the package
(``critical_efficiency``, ``source_critical_transmission`` or
``filtered_critical_transmission``) to ``--tol`` at each value it sweeps and
writes one row per value.  threshold and local-amp solve at a single value;
region, source-amp and multi-filter sweep theirs, one value after another in
this process.

Configuration may be given as ``--config file.ini`` with one section per
command; keys under ``[DEFAULT]`` apply to every command that takes them
and are skipped by the others, and the command's own section wins.  The
file is UTF-8 text (a leading byte-order mark is skipped) of ``[section]``
headers, ``key = value`` (or ``key: value``) lines, blank lines and comment
lines that start with ``#`` or ``;``.  Keys are read in lower case with
``-`` as ``_``; a value is the rest of its line, stripped, so ``%``, ``#``
and ``;`` inside it are ordinary characters.  There is no interpolation,
and an indented line (a continuation line) is refused.  The keys are
turned into flags and parsed by the same parser: ``eta_d = 0.9`` is
``--eta-d=0.9``, ``symmetry = asymmetric`` is ``--asymmetric`` and
``skip_source = yes|no`` (or ``on|off``, ``true|false``, ``1|0``) sets or
omits ``--skip-source``.
Flags on the command line win over the file.  A line outside the grammar
or not valid UTF-8, a key before any header or repeated in its section, an
unknown key in the command's section and a bad value each end the run with
one ``cvbell: error: file:line: ...`` line; a file that cannot be read, with
one ``cvbell: error: file: ...`` line.

Every run writes a CSV result table and a JSON sidecar describing the
effective configuration (whose ``tol`` the solvers got), the conventions
and the delta-refinement and violation tolerances.  Exit codes: 0 success,
1 invalid configuration, 2 reproduction-gate failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import lru_cache

import numpy as np

from .bell import ASYMMETRIC, SYMMETRIC, _scenario_for, critical_efficiency
from .local_amp import filtered_critical_transmission, psi2_state
from .reproduce import reproduce_all
from .source_amp import max_source_chsh, source_critical_transmission
from .sweep import sidecar_path, write_csv, write_sidecar


class ValidationError(Exception):
    """Invalid configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def parse_grid(text: str) -> list[float]:
    """Parse "start:stop:count" or a comma-separated list (may be empty)."""
    text = text.strip()
    if not text:
        return []
    try:
        if ":" not in text:
            return [float(x) for x in text.split(",")]
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"grid {text!r} must be start:stop:count")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValidationError(f"malformed grid {text!r}") from None
    if count < 1:
        raise ValidationError("grid count must be positive")
    try:
        grid = np.linspace(start, stop, count)
    except MemoryError:  # numpy refuses the allocation before making it
        raise ValidationError(f"grid count {count} is too large") from None
    return [float(x) for x in grid]


def _efficiency(text: str) -> float:
    """An efficiency flag's value, in [0, 1]; errors name the flag."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text}")
    return value


def _efficiency_grid(text: str) -> str:
    """A non-empty grid of efficiencies (:func:`parse_grid`), checked and kept as text."""
    try:
        grid = parse_grid(text)
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not grid:  # a sweep of no points would write a header-only table
        raise argparse.ArgumentTypeError("grid is empty")
    for value in grid:
        if not 0.0 <= value <= 1.0:
            raise argparse.ArgumentTypeError(f"values must lie in [0, 1], got {value}")
    return text


#: The on/off words of a flag's key (configparser's).
_BOOLEANS = {**dict.fromkeys(("1", "yes", "true", "on"), True),
             **dict.fromkeys(("0", "no", "false", "off"), False)}


def read_config(path: str, command: str) -> dict:
    """The keys of ``[command]`` and ``[DEFAULT]`` in ``path``, read in one pass.

    Each key maps to ``(value, section, line)``; the command's section wins.
    The grammar is the module docstring's.  A file that breaks it, or that
    cannot be read as UTF-8 text, raises :class:`ValidationError` naming the
    file and, where there is one, the line.
    """
    try:
        with open(path, "rb") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read: {exc.strerror}") from None
    found, name = {}, None  # (section, key) -> (value, section, line)
    for number, raw in enumerate(lines, start=1):
        where = f"{path}:{number}:"
        try:
            line = raw.decode("utf-8-sig" if number == 1 else "utf-8")  # skip a BOM
        except UnicodeDecodeError:
            raise ValidationError(f"{where} not UTF-8 text") from None
        text = line.strip()
        if not text or text[0] in "#;":
            continue
        if line[0].isspace():
            raise ValidationError(f"{where} continuation lines are not supported")
        if text[0] == "[" and text[-1] == "]":
            name = text[1:-1]
            continue
        key = text.split("=", 1)[0].split(":", 1)[0]  # up to the first separator
        entry = (name, key.strip().lower().replace("-", "_"))
        if key in (text, ""):
            raise ValidationError(f"{where} expected [section], key = value or a "
                                  f"comment, got {text!r}")
        if name is None:
            raise ValidationError(f"{where} key before any [section] header")
        if entry in found:
            raise ValidationError(f"{where} {entry[1]!r} repeated in [{name}] "
                                  f"(first at line {found[entry][2]})")
        found[entry] = (text[len(key) + 1:].strip(), name, number)
    return {key: value for want in ("DEFAULT", command)
            for (section, key), value in found.items() if section == want}


@lru_cache(maxsize=1)
def build_parser() -> _Parser:
    """The command-line parser, built once per process.

    Building it costs milliseconds (argparse makes a help formatter for every
    argument), and a parse only reads it: each parse fills a new namespace
    from the declared defaults, so one run leaves nothing for the next.
    """
    parser = _Parser(prog="cvbell", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def common(p, cutoff=2):
        p.add_argument("--config", help="INI file with one section per command")
        p.add_argument("--output", "-o", help="CSV output path")
        p.add_argument("--cutoff", type=int, default=cutoff)

    def solver(p):
        p.add_argument("--tol", type=float, default=1e-4)

    def symmetry(p):
        p.add_argument("--symmetric", dest="symmetry", action="store_const",
                       const=SYMMETRIC, default=SYMMETRIC)
        p.add_argument("--asymmetric", dest="symmetry", action="store_const",
                       const=ASYMMETRIC)

    p = sub.add_parser("threshold", help="single critical-efficiency solve")
    common(p)
    solver(p)
    symmetry(p)
    p.add_argument("--target", choices=["eta-t", "eta-d"], default="eta-t")
    p.add_argument("--eta-d", type=_efficiency, default=1.0)
    p.add_argument("--eta-t", type=_efficiency, default=1.0)
    p.add_argument("--state", choices=["optimal", "psi2"], default="optimal")

    p = sub.add_parser("region", help="violation-region boundary")
    common(p)
    solver(p)
    symmetry(p)
    p.add_argument("--eta-d-grid", type=_efficiency_grid, default="0.6:1.0:9")
    p.add_argument("--state", choices=["optimal", "psi2"], default="optimal")

    p = sub.add_parser("source-amp", help="amplified-source region boundary")
    common(p, cutoff=6)
    solver(p)
    symmetry(p)
    p.add_argument("--eta-d-grid", type=_efficiency_grid, default="0.8:1.0:3")
    p.add_argument("--eta-c", type=_efficiency, default=1.0)

    p = sub.add_parser("local-amp", help="filtered critical transmission")
    common(p)
    solver(p)
    p.add_argument("--g", type=float, default=2.0)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--eta-d", type=_efficiency, default=1.0)
    p.add_argument("--eta-c", type=_efficiency, default=1.0)

    p = sub.add_parser("multi-filter", help="threshold vs filter applications")
    common(p)
    solver(p)
    p.add_argument("--g", type=float, default=2.0)
    p.add_argument("--m-max", type=int, default=4)
    p.add_argument("--eta-d", type=_efficiency, default=1.0)

    p = sub.add_parser("reproduce-all", help="run every reference check")
    common(p, cutoff=6)
    p.add_argument("--skip-source", action="store_true",
                   help="skip the amplified-source checks")
    return parser


def _config_tokens(parser: _Parser, path: str, command: str) -> list[str]:
    """The ``[command]`` and ``[DEFAULT]`` keys of ``path`` as command-line tokens.

    A valued option becomes ``--opt=value``; a shared-destination flag is the
    one whose constant the value names (``symmetry = asymmetric`` gives
    ``--asymmetric``); an on/off flag takes one of :data:`_BOOLEANS`
    (``skip_source = yes`` gives ``--skip-source``, ``no`` gives nothing).
    A ``[DEFAULT]`` key that the command does not take is skipped; one in
    ``[command]`` is an error.  Each key's tokens are parsed on their own,
    so every error names its line.
    """
    command_parser = parser.commands[command]
    tokens = []
    for key, (value, section, line) in read_config(path, command).items():
        location = f"{path}:{line}: "
        actions = [a for a in command_parser._actions
                   if a.dest == key and a.dest != "help"]
        if not actions:
            if section == "DEFAULT":
                continue
            raise ValidationError(f"{location}unknown option {key!r}")
        if actions[0].nargs != 0:
            given = [f"{actions[0].option_strings[0]}={value}"]
        elif actions[0].const is True:
            on = _BOOLEANS.get(value.lower())
            if on is None:
                raise ValidationError(f"{location}{key} must be yes or no, not {value!r}")
            given = [actions[0].option_strings[0]] if on else []
        else:
            given = [a.option_strings[0] for a in actions if a.const == value]
            if not given:
                choices = ", ".join(repr(a.const) for a in actions)
                raise ValidationError(
                    f"{location}invalid value {value!r} for {key} (choose from {choices})"
                )
        try:
            parser.parse_args([command, *given])
        except ValidationError as exc:
            raise ValidationError(f"{location}{exc}") from None
        tokens += given
    return tokens


def _echo(args: argparse.Namespace) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k not in ("config", "command")}


def _emit(args, fieldnames, rows, extra=None) -> str:
    path = target = args.output or f"cvbell-{args.command}.csv"
    try:
        write_csv(path, fieldnames, rows)
        target = sidecar_path(path)
        write_sidecar(target, args.command, _echo(args), extra)
    except OSError as exc:
        if target != path:  # the CSV was written: a failed write leaves neither file
            os.remove(path)
        raise ValidationError(f"cannot write {target}: {exc.strerror}") from None
    return path


def _two_photon_cutoff(args) -> None:
    """Raise ``--cutoff`` to 2: the optimal state, psi2 and the filtered states hold two photons.

    Above 2 the value moves no number.  threshold and region trim the
    optimal state to a total of two photons and psi2 to its own box
    (:func:`cvbell.bell._trimmed_cutoffs`, :func:`cvbell.bell._fixed_state`);
    local-amp and multi-filter read it only to bound the ``--g``/``--m``
    overflow check (:func:`cvbell.local_amp._mode_filter`).  The CSV and the
    sidecar echo the flag's (raised) value, not the size of a basis.
    """
    if args.cutoff < 0:
        raise ValidationError(f"--cutoff must be >= 0, got {args.cutoff}")
    args.cutoff = max(args.cutoff, 2)


def _threshold_rows(args, fields, solver, fixed, key, values, column=None,
                    result="eta_t_star") -> list[dict]:
    """One row per value of ``key``: the threshold of ``solver`` there.

    ``solver`` runs at ``fixed``, ``key = value``, ``args.cutoff`` and
    ``args.tol``, one value after another.
    A row holds each of ``fields`` that names a flag, the value under
    ``column`` (``key`` by default), the threshold under ``result``,
    ``no_violation`` and ``bisection_tol``.
    """
    flags = {name: getattr(args, name) for name in fields if hasattr(args, name)}
    fixed = {**fixed, "cutoff": args.cutoff, "tol": args.tol}
    thresholds = [solver(**fixed, **{key: value}) for value in values]
    return [{**flags, column or key: value, result: threshold,
             "no_violation": threshold is None, "bisection_tol": args.tol}
            for value, threshold in zip(values, thresholds)]


def _run_threshold(args) -> int:
    _two_photon_cutoff(args)
    state = None if args.state == "optimal" else psi2_state()
    fixed = {"target": args.target.replace("-", "_"), "symmetry": args.symmetry,
             "eta_t": args.eta_t, "state": state}
    fields = ["symmetry", "target", "eta_d", "eta_t", "state", "cutoff", "threshold",
              "no_violation", "bisection_tol"]
    [row] = _threshold_rows(args, fields, critical_efficiency, fixed, "eta_d", [args.eta_d],
                            result="threshold")
    path = _emit(args, fields, [row])
    value = row["threshold"]
    label = "no violation" if value is None else f"{value:.6f}"
    print(f"critical {args.target} ({args.symmetry}, state={args.state}): {label}")
    print(f"wrote {path}")
    return 0


def _run_region(args) -> int:
    _two_photon_cutoff(args)
    state = None if args.state == "optimal" else psi2_state()
    fixed = {"target": "eta_t", "symmetry": args.symmetry, "state": state}
    fields = ["symmetry", "state", "cutoff", "eta_d", "eta_t_star",
              "no_violation", "bisection_tol"]
    rows = _threshold_rows(args, fields, critical_efficiency, fixed, "eta_d",
                           parse_grid(args.eta_d_grid))
    path = _emit(args, fields, rows)
    print(f"{len(rows)} grid points -> {path}")
    return 0


def _run_source_amp(args) -> int:
    fields = ["symmetry", "eta_c", "cutoff", "eta_d", "eta_t_star",
              "no_violation", "squeezing", "amp_transmission", "delta"]
    rows = _threshold_rows(args, fields, source_critical_transmission,
                           {"eta_c": args.eta_c, "symmetry": args.symmetry}, "eta_d",
                           parse_grid(args.eta_d_grid))
    for row in rows:
        if row["eta_t_star"] is not None:
            # The optimum just inside the violating region: at the threshold
            # itself it may be the flat delta = 0 corner at CHSH = 2.
            eta_t = min(1.0, row["eta_t_star"] + args.tol)
            scen = _scenario_for(args.symmetry, eta_t=eta_t, eta_d=row["eta_d"], eta_h=1.0)
            optimum = max_source_chsh(scen.alice, scen.bob, eta_c=args.eta_c,
                                      cutoff=args.cutoff)
            row.update(squeezing=optimum.squeezing,
                       amp_transmission=optimum.amp_transmission, delta=optimum.delta)
    path = _emit(args, fields, rows)
    print(f"{len(rows)} grid points -> {path}")
    return 0


def _check_gain(gain: float) -> None:
    if not 1.0 <= gain < math.inf:  # also rejects NaN
        raise ValidationError(f"--g must be >= 1 and finite, got {gain}")


def _run_local_amp(args) -> int:
    _check_gain(args.g)
    _two_photon_cutoff(args)
    fixed = {"gain": args.g, "applications": args.m, "eta_c": args.eta_c}
    fields = ["g", "m", "eta_d", "eta_c", "cutoff", "eta_t_star", "no_violation",
              "bisection_tol"]
    [row] = _threshold_rows(args, fields, filtered_critical_transmission, fixed, "eta_d",
                            [args.eta_d])
    path = _emit(args, fields, [row])
    value = row["eta_t_star"]
    label = "no violation" if value is None else f"{value:.6f}"
    print(f"critical eta_t with g={args.g}, m={args.m}: {label}")
    print(f"wrote {path}")
    return 0


def _run_multi_filter(args) -> int:
    _check_gain(args.g)
    if args.m_max < 1:
        raise ValidationError(f"--m-max must be at least 1, got {args.m_max}")
    _two_photon_cutoff(args)
    fields = ["g", "eta_d", "m", "eta_t_star", "no_violation", "bisection_tol"]
    rows = _threshold_rows(args, fields, filtered_critical_transmission,
                           {"gain": args.g, "eta_d": args.eta_d}, "applications",
                           range(1, args.m_max + 1), column="m")
    path = _emit(args, fields, rows)
    print(f"{len(rows)} filter counts -> {path}")
    return 0


def _run_reproduce_all(args) -> int:
    report = reproduce_all(
        include_source=not args.skip_source, source_cutoff=args.cutoff
    )
    for line in report.lines():
        print(line)
    # No timing column: result files must be bitwise stable across runs.
    fields = ["name", "target", "computed", "passed", "detail"]
    rows = [{name: getattr(row, name) for name in fields} for row in report.rows]
    _emit(args, fields, rows, extra={"all_passed": report.all_passed})
    return 0 if report.all_passed else 2


_RUNNERS = {
    "threshold": _run_threshold,
    "region": _run_region,
    "source-amp": _run_source_amp,
    "local-amp": _run_local_amp,
    "multi-filter": _run_multi_filter,
    "reproduce-all": _run_reproduce_all,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:  # file values first, so command-line flags win
            tokens = _config_tokens(parser, args.config, args.command)
            args = parser.parse_args([args.command, *tokens, *argv[1:]])
        if args.output and sidecar_path(args.output) == args.output:  # before any solve
            raise ValidationError(f"--output {args.output} would be overwritten by its "
                                  "sidecar; name the CSV without a .json extension")
        return _RUNNERS[args.command](args)
    except (ValidationError, ValueError) as exc:
        # Solvers reject bad parameters with ValueError.
        print(f"cvbell: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
