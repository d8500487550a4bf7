import ast
import builtins
import csv
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import cvbell.cli
import cvbell.fock
import cvbell.reproduce
import cvbell.source_amp
from cvbell.bell import (
    DELTA_REFINE_TOL,
    VIOLATION_BOUND,
    VIOLATION_MARGIN,
    BellScenario,
    chsh_value,
)
from cvbell.cli import ValidationError, main, parse_grid
from cvbell.source_amp import SourceConfig, amplified_source, max_source_chsh

#: The commands' CSVs as written at commit 65f91db, before they called the
#: threshold solvers directly; source-amp-eta-c.csv's three optimum columns
#: (squeezing, amp_transmission, delta) were re-pinned after their fix.
PARENT_CSVS = Path(__file__).resolve().parent / "data" / "cli"


def run_cli(args, tmp_path, name="out.csv"):
    out = tmp_path / name
    code = main(args + ["--output", str(out)])
    return code, out


def fake_reproduce_all(monkeypatch) -> dict:
    """Replace the report with an empty one; returns the arguments it gets."""
    received = {}

    def reproduce_all(**kwargs):
        received.update(kwargs)
        return cvbell.reproduce.ReproductionReport()

    monkeypatch.setattr(cvbell.cli, "reproduce_all", reproduce_all)
    return received


def record_solver(monkeypatch, name, threshold=None) -> list:
    """Replace the solver ``cvbell.cli.<name>``; returns the keyword arguments of each call."""
    calls = []

    def solve(**kwargs):
        calls.append(kwargs)
        return threshold

    monkeypatch.setattr(cvbell.cli, name, solve)
    return calls


def read_rows(path) -> list[dict]:
    lines = path.read_text().strip().split("\n")
    return [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]


def assert_one_error_line(err: str, location: str):
    assert err.startswith("cvbell: error: ")
    assert err.count("\n") == 1  # one line, no traceback
    assert location in err


def run_child(args):
    """Run ``python -m cvbell.cli`` in a child process; returns the completed run.

    BLAS runs on one thread, and the child alone gets 2 GiB of address space
    and 20 s, so a run that allocates or scans what it should refuse fails
    the test (``MemoryError`` or ``TimeoutExpired``), not the machine.
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "cvbell.cli", *args], env=env, capture_output=True,
        text=True, timeout=20,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30,) * 2),
    )


class TestParsing:
    def test_grid_range(self):
        grid = parse_grid("0.5:1.0:3")
        assert grid == [0.5, 0.75, 1.0]

    def test_grid_list(self):
        assert parse_grid("0.9,1.0") == [0.9, 1.0]

    def test_grid_empty(self):
        assert parse_grid("") == []

    def test_grid_count_beyond_memory(self):
        with pytest.raises(ValidationError, match="grid count 1000000000000 is too large"):
            parse_grid("0.6:1.0:1000000000000")

    def test_grid_malformed(self):
        with pytest.raises(ValidationError):
            parse_grid("0.5:1.0")

    def test_unknown_command_exits_one(self, capsys):
        assert main(["no-such-command"]) == 1
        assert "error" in capsys.readouterr().err

    def test_one_parser_per_call(self, tmp_path, monkeypatch):
        original, built = cvbell.cli.build_parser, []

        def build():
            built.append(original())
            return built[-1]

        monkeypatch.setattr(cvbell.cli, "build_parser", build)
        monkeypatch.setattr(cvbell.cli, "critical_efficiency", lambda *a, **k: None)
        code, _ = run_cli(["threshold", "--eta-d", "0.9"], tmp_path)
        assert code == 0
        assert len(built) == 1

    def test_one_parse_without_config(self, tmp_path, monkeypatch):
        original, calls = cvbell.cli._Parser.parse_args, []

        def parse_args(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cvbell.cli._Parser, "parse_args", parse_args)
        monkeypatch.setattr(cvbell.cli, "critical_efficiency", lambda *a, **k: None)
        code, _ = run_cli(["threshold", "--eta-d", "0.9"], tmp_path)
        assert code == 0
        assert len(calls) == 1

    def test_shared_parser_keeps_nothing_between_runs(self, tmp_path, monkeypatch):
        assert cvbell.cli.build_parser() is cvbell.cli.build_parser()
        monkeypatch.setattr(cvbell.cli, "critical_efficiency", lambda *a, **k: None)

        def config(out):
            return json.loads(out.with_suffix(".json").read_text())["effective_config"]

        assert run_cli(["threshold", "--asymmetric"], tmp_path, "asym.csv")[0] == 0
        code, plain = run_cli(["threshold"], tmp_path, "plain.csv")
        assert code == 0 and read_rows(plain)[0]["symmetry"] == "symmetric"
        cfg = tmp_path / "run.ini"
        cfg.write_text("[threshold]\ntarget = eta-d\neta_d = 0.9\nstate = psi2\n"
                       "symmetry = asymmetric\ntol = 1e-3\ncutoff = 4\n")
        assert run_cli(["threshold", "--config", str(cfg)], tmp_path, "cfg.csv")[0] == 0
        assert read_rows(tmp_path / "cfg.csv")[0]["target"] == "eta-d"
        code, after = run_cli(["threshold"], tmp_path, "after.csv")
        assert code == 0
        assert after.read_bytes() == plain.read_bytes()
        assert {**config(after), "output": None} == {**config(plain), "output": None}

    def test_seed_flag_removed(self, capsys):
        assert main(["threshold", "--seed", "1"]) == 1
        assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["region", "--eta-d-grid", "1.5"],
    ["threshold", "--eta-d", "nan"],
    ["region", "--eta-d-grid", "0.9:1:0x"],
    ["local-amp", "--m", "0"],
    ["threshold", "--cutoff", "-1"],
    ["local-amp", "--cutoff", str(10**400)],  # past the float range: the filter overflows
    ["region", "--eta-d-grid", "0.9,1.5"],
    ["region", "--eta-d-grid", "0.6:1.0:1000000000000"],  # numpy refuses the allocation
    ["region", "--eta-d-grid", ""],
    ["source-amp", "--eta-d-grid", ""],
])
def test_bad_input_exits_cleanly(args, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(args + ["--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cvbell: error: ")
    assert err.count("\n") == 1  # one line, no traceback
    assert not out.exists()


@pytest.mark.parametrize("command", ["source-amp", "reproduce-all"])
def test_a_source_cutoff_beyond_the_gram_limit_exits_cleanly(command, tmp_path, capsys,
                                                            monkeypatch):
    def circuit(*args, **kwargs):
        raise AssertionError("the circuit ran")

    monkeypatch.setattr(cvbell.source_amp, "_heralded_gram", circuit)
    args = [command, "--cutoff", "40"]
    if command == "source-amp":
        args += ["--eta-d-grid", "1.0"]
    out = tmp_path / "out.csv"
    assert main(args + ["--output", str(out)]) == 1
    assert_one_error_line(capsys.readouterr().err, "source cutoff 40")
    assert not out.exists()


@pytest.mark.parametrize("cutoff", ["3000", "100000", "1000000000", str(10**100)],
                         ids=["3e3", "1e5", "1e9", "1e100"])
@pytest.mark.parametrize("command", [["source-amp", "--eta-d-grid", "1.0"], ["reproduce-all"]],
                         ids=lambda c: c[0])
def test_a_source_cutoff_far_beyond_the_gram_limit_is_refused_at_once(command, cutoff,
                                                                      tmp_path):
    """The refusal enumerates nothing: within 2 GiB of address space and 20 s."""
    out = tmp_path / "out.csv"
    run = run_child([*command, "--cutoff", cutoff, "--output", str(out)])
    assert run.returncode == 1
    assert_one_error_line(run.stderr, "largest source cutoff is 14")
    assert f"source cutoff {cutoff} has " in run.stderr and " need -" not in run.stderr
    assert not out.exists()


@pytest.mark.parametrize("args, flag", [
    (["threshold", "--eta-d", "-0.5"], "--eta-d"),
    (["threshold", "--eta-t", "1.5"], "--eta-t"),
    (["local-amp", "--eta-c", "2"], "--eta-c"),
    (["region", "--eta-d-grid", "0.5:1.2:3"], "--eta-d-grid"),
    (["region", "--eta-d-grid", "0.6:1.0:1000000000000"], "--eta-d-grid"),
    (["source-amp", "--eta-d-grid", "0.6:1.0:1000000000000"], "--eta-d-grid"),
])
def test_out_of_range_flag_is_named(args, flag, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(args + ["--output", str(out)]) == 1
    assert_one_error_line(capsys.readouterr().err, f"argument {flag}: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["threshold", "region", "reproduce-all"])
@pytest.mark.parametrize("target, reason", [
    ("taken", "{out}: "),
    ("file/x.csv", "{out}: {tmp}/file is not a directory"),
    ("file/sub/x.csv", "{out}: {tmp}/file is not a directory"),
    ("out.csv", "{tmp}/out.json: "),  # the CSV is written, then its sidecar fails
], ids=["directory", "under-a-file", "below-a-file", "sidecar-directory"])
def test_unwritable_output_exits_cleanly(command, target, reason, tmp_path, capsys,
                                         monkeypatch):
    record_solver(monkeypatch, "critical_efficiency")
    fake_reproduce_all(monkeypatch)
    (tmp_path / "taken").mkdir()
    (tmp_path / "out.json").mkdir()
    (tmp_path / "file").write_text("")
    out = tmp_path / target
    assert main([command, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert_one_error_line(err, "cannot write " + reason.format(out=out, tmp=tmp_path))
    assert "File exists" not in err
    # Neither an output nor a .cvbell-* temp file is left.
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["file", "out.json", "taken"]


@pytest.mark.parametrize("command", [["threshold", "--eta-d", "0.9"],
                                     ["reproduce-all", "--skip-source"]], ids=lambda c: c[0])
@pytest.mark.parametrize("name", ["x.json", "sub/x.json"])
def test_an_output_that_is_its_own_sidecar_is_refused(name, command, tmp_path, capsys,
                                                       monkeypatch):
    """Refused before the command runs: no solver call, no report on stdout."""
    calls = record_solver(monkeypatch, "critical_efficiency")
    received = fake_reproduce_all(monkeypatch)
    out = tmp_path / name
    assert main([*command, "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err, f"--output {out} would be overwritten by its sidecar")
    assert calls == [] and received == {}
    assert list(tmp_path.rglob("*")) == []  # nothing written, not even a directory


class TestThresholdCommand:
    def test_symmetric_transmission_threshold(self, tmp_path):
        code, out = run_cli(["threshold", "--symmetric", "--eta-d", "1"], tmp_path)
        assert code == 0
        text = out.read_text()
        lines = text.split("\n")
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert abs(float(row["threshold"]) - 0.805) <= 0.005
        assert row["no_violation"] == "false"

    def test_sidecar_written(self, tmp_path):
        code, out = run_cli(
            ["threshold", "--state", "psi2", "--target", "eta-d"], tmp_path
        )
        assert code == 0
        sidecar = json.loads((tmp_path / "out.json").read_text())
        assert sidecar["schema_version"] == 1
        assert "quadrature" in sidecar["conventions"]
        assert sidecar["tolerances"] == {
            "delta_refinement": DELTA_REFINE_TOL, "violation_margin": VIOLATION_MARGIN,
        }
        assert sidecar["effective_config"]["state"] == "psi2"

    def test_psi2_at_a_large_cutoff_writes_the_cutoff_two_threshold(self, tmp_path):
        """psi2 is built on its own box, whatever the cutoff."""
        _, small = run_cli(["threshold", "--state", "psi2", "--cutoff", "2"], tmp_path, "a.csv")
        code, large = run_cli(["threshold", "--state", "psi2", "--cutoff", "300"], tmp_path)
        assert code == 0
        (row,) = read_rows(large)
        assert row["threshold"] == read_rows(small)[0]["threshold"]
        assert f"{float(row['threshold']):.6f}" == "0.837433"

    def test_a_basis_beyond_the_guard_exits_cleanly(self, tmp_path, capsys, monkeypatch):
        """With the guard at 20, source-amp's 5 x 5 basis at cutoff 4 is refused in one line.

        source-amp is the one command whose joint basis grows with --cutoff.
        """
        monkeypatch.setattr(cvbell.fock, "MAX_TENSOR_DIMENSION", 20)
        # So that the basis is built again: a cached stack at (1.0, 4) would
        # skip it and leave the refusal to the 6 x 6 basis of the optimum.
        monkeypatch.setattr(cvbell.source_amp, "_STACK_CACHE", {})
        cvbell.fock.shared_basis.cache_clear()
        code, out = run_cli(["source-amp", "--cutoff", "4", "--eta-d-grid", "1.0"], tmp_path)
        assert code == 1
        assert_one_error_line(capsys.readouterr().err, "enumerates 25 occupations")
        assert not out.exists()

    @pytest.mark.parametrize("target, flags", [("eta_t", ["--eta-t", "0.5"]),
                                               ("eta_d", ["--target", "eta-d", "--eta-d", "0.3"])])
    def test_a_value_for_the_swept_efficiency_is_refused(self, target, flags, tmp_path, capsys):
        code, out = run_cli(["threshold", *flags], tmp_path)
        assert code == 1
        assert_one_error_line(capsys.readouterr().err, f"{target} is the efficiency the "
                              "threshold sweeps; it cannot be held at")
        assert not out.exists() and not (tmp_path / "out.json").exists()

    def test_deterministic_output(self, tmp_path):
        _, first = run_cli(["threshold", "--eta-d", "0.9"], tmp_path, "a.csv")
        _, second = run_cli(["threshold", "--eta-d", "0.9"], tmp_path, "b.csv")
        assert first.read_bytes() == second.read_bytes()


class TestRegionCommand:
    def test_line_endings_lf(self, tmp_path):
        _, out = run_cli(["region", "--eta-d-grid", "1.0:1.0:1"], tmp_path)
        raw = out.read_bytes()
        assert b"\r" not in raw


class TestSourceAmpCommand:
    @pytest.mark.parametrize("flags", [[], ["--tol", "2e-4"], ["--tol", "5e-3"]])
    def test_solver_gets_the_recorded_tolerance(self, flags, tmp_path, monkeypatch):
        calls = record_solver(monkeypatch, "source_critical_transmission")
        code, _ = run_cli(["source-amp", "--eta-d-grid", "1.0"] + flags, tmp_path)
        assert code == 0
        sidecar = json.loads((tmp_path / "out.json").read_text())
        assert [call["tol"] for call in calls] == [sidecar["effective_config"]["tol"]]

    def test_config_file_sets_the_cutoff(self, tmp_path, monkeypatch):
        calls = record_solver(monkeypatch, "source_critical_transmission")
        cfg = tmp_path / "run.ini"
        cfg.write_text("[source-amp]\ncutoff = 3\n")
        code, _ = run_cli(["source-amp", "--eta-d-grid", "1.0", "--config", str(cfg)], tmp_path)
        assert code == 0
        sidecar = json.loads((tmp_path / "out.json").read_text())
        assert calls[0]["cutoff"] == sidecar["effective_config"]["cutoff"] == 3

    def test_reported_optimum_violates(self, tmp_path):
        # The optimum columns come from just inside the violating region, not
        # from the delta = 0 corner at CHSH = 2 on the threshold itself.
        code, out = run_cli(["source-amp"], tmp_path)
        assert code == 0
        rows = read_rows(out)
        # eta_t* as computed before the optimum columns were mended.
        assert [row["eta_t_star"] for row in rows] == [
            "0.897430419921875", "0.846405029296875", "0.805084228515625"]
        for row in rows:
            eta_t = min(1.0, float(row["eta_t_star"]) + 1e-4)
            config = SourceConfig(float(row["squeezing"]), float(row["amp_transmission"]))
            scenario = BellScenario.symmetric(eta_t=eta_t, eta_d=float(row["eta_d"]),
                                              delta=float(row["delta"]))
            assert float(row["delta"]) > 0.0
            assert chsh_value(amplified_source(config).state, scenario) > VIOLATION_BOUND
            assert max_source_chsh(scenario.alice, scenario.bob).chsh_value > VIOLATION_BOUND

    def test_flag_default_is_not_explicit(self, tmp_path, monkeypatch):
        parser = cvbell.cli.build_parser()
        for command in ("source-amp", "reproduce-all"):
            assert parser.parse_args([command]).cutoff == 6
        received = fake_reproduce_all(monkeypatch)
        cfg = tmp_path / "run.ini"
        cfg.write_text("[reproduce-all]\ncutoff = 3\n")
        code, _ = run_cli(["reproduce-all", "--config", str(cfg)], tmp_path)
        assert code == 0
        assert received["source_cutoff"] == 3  # the default does not beat the file


class TestLocalAmpCommand:
    def test_three_applications(self, tmp_path):
        code, out = run_cli(
            ["local-amp", "--g", "2", "--m", "3", "--eta-d", "1"], tmp_path
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert abs(float(row["eta_t_star"]) - 0.20) <= 0.02

    @pytest.mark.parametrize("command, solver, flags", [
        ("local-amp", "filtered_critical_transmission", []),
        ("multi-filter", "filtered_critical_transmission", ["--m-max", "1"]),
        ("threshold", "critical_efficiency", ["--state", "psi2"]),
        ("region", "critical_efficiency", ["--state", "psi2"]),
    ])
    def test_sidecar_records_the_cutoff_used(self, command, solver, flags, tmp_path,
                                             monkeypatch):
        calls = record_solver(monkeypatch, solver)
        code, _ = run_cli([command, "--cutoff", "1"] + flags, tmp_path)
        assert code == 0
        sidecar = json.loads((tmp_path / "out.json").read_text())
        assert calls and {call["cutoff"] for call in calls} == {2}
        assert sidecar["effective_config"]["cutoff"] == 2

    def test_invalid_gain(self, tmp_path, capsys):
        code = main(["local-amp", "--g", "0.5", "--output", str(tmp_path / "x.csv")])
        assert code == 1
        assert not (tmp_path / "x.csv").exists()  # no partial outputs


class TestMultiFilterCommand:
    def test_curve_rows(self, tmp_path):
        code, out = run_cli(["multi-filter", "--g", "2", "--m-max", "2"], tmp_path)
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert float(rows[0]["eta_t_star"]) > float(rows[1]["eta_t_star"])


class TestBadNumbers:
    @pytest.mark.parametrize("tol", ["0", "-1e-3", "nan"])
    def test_bisection_tol_is_rejected(self, tol, tmp_path):
        # In a child with a timeout: a tolerance the bisection can never reach
        # must end the run, not hang the suite.
        out = tmp_path / "x.csv"
        run = run_child(["threshold", f"--tol={tol}", "--output", str(out)])
        assert run.returncode == 1
        assert_one_error_line(run.stderr, "tol must be finite and positive")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["threshold", "region", "source-amp", "local-amp",
                                         "multi-filter"])
    def test_every_solver_rejects_a_zero_tol(self, command, tmp_path, capsys):
        code, out = run_cli([command, "--tol=0", "--cutoff", "2"], tmp_path)
        assert code == 1
        assert_one_error_line(capsys.readouterr().err, "tol must be finite and positive")
        assert not out.exists()

    @pytest.mark.parametrize("command, gain", [
        ("local-amp", "nan"), ("multi-filter", "nan"),
        ("local-amp", "inf"), ("multi-filter", "inf"),
    ], ids=["local-amp", "multi-filter", "local-amp-inf", "multi-filter-inf"])
    def test_nan_gain_is_rejected(self, command, gain, tmp_path, capsys):
        code, out = run_cli([command, "--g", gain], tmp_path)
        assert code == 1
        assert_one_error_line(capsys.readouterr().err, "--g must be >= 1")
        assert not out.exists()

    @pytest.mark.parametrize("args, gain", [
        (["local-amp", "--g", "1e200"], 1e200),
        (["multi-filter", "--g", "1e308", "--m-max", "1"], 1e308),
        (["local-amp", "--m", "100000000"], 2.0),
    ], ids=["local-amp-1e200", "multi-filter-1e308", "local-amp-m-1e8"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # no numpy warning precedes the error
    def test_filter_overflow_is_an_error(self, args, gain, tmp_path, capsys):
        # The filter overflows the float range; it must not read as a threshold,
        # and the one error line names the gain.
        code, out = run_cli(args, tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert "RuntimeWarning" not in err
        assert_one_error_line(err, f"the filter of gain {gain} applied")
        assert not out.exists()

    def test_large_finite_filter_still_gives_the_threshold(self, tmp_path, capsys):
        code, out = run_cli(["local-amp", "--g", "1e100"], tmp_path)
        assert code == 0
        assert "0.356903" in capsys.readouterr().out

    def test_zero_filter_applications_are_rejected(self, tmp_path, capsys):
        code, out = run_cli(["multi-filter", "--m-max", "0"], tmp_path)
        assert code == 1
        assert_one_error_line(capsys.readouterr().err, "--m-max must be at least 1")
        assert not out.exists()


class TestConfigFile:
    def test_config_supplies_values(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[threshold]\ntarget = eta-d\nstate = psi2\n")
        out = tmp_path / "out.csv"
        code = main(["threshold", "--config", str(cfg), "--output", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["target"] == "eta-d"
        assert abs(float(row["threshold"]) - 0.711) <= 0.005

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[threshold]\neta_d = 0.9\n")
        out = tmp_path / "out.csv"
        code = main(
            ["threshold", "--eta-d", "1.0", "--config", str(cfg), "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["eta_d"]) == 1.0

    def test_bad_value_reports_line_number(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[threshold]\n# comment\neta_d = not-a-number\n")
        code = main(["threshold", "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{cfg}:3" in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[threshold]\nbogus = 1\n")
        assert main(["threshold", "--config", str(cfg)]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["threshold", "--config", "/nonexistent.ini"]) == 1

    def test_default_key_applies_without_a_command_section(self, tmp_path, monkeypatch):
        calls = record_solver(monkeypatch, "critical_efficiency")
        cfg = tmp_path / "run.ini"
        cfg.write_text("[DEFAULT]\ncutoff = 3\n")
        code, _ = run_cli(["threshold", "--config", str(cfg)], tmp_path)
        assert code == 0
        sidecar = json.loads((tmp_path / "out.json").read_text())
        assert sidecar["effective_config"]["cutoff"] == 3
        assert [call["cutoff"] for call in calls] == [3]

    def test_default_key_the_command_does_not_take_is_skipped(self, tmp_path, monkeypatch):
        calls = record_solver(monkeypatch, "critical_efficiency")
        cfg = tmp_path / "shared.ini"
        cfg.write_text("[DEFAULT]\neta_c = 0.9\nworkers = 2\n\n[threshold]\neta_d = 0.95\n")
        code, _ = run_cli(["threshold", "--config", str(cfg)], tmp_path)
        assert code == 0
        assert [call["eta_d"] for call in calls] == [0.95]
        effective = json.loads((tmp_path / "out.json").read_text())["effective_config"]
        assert "eta_c" not in effective and "workers" not in effective
        # A command that takes the key gets it.
        calls = record_solver(monkeypatch, "filtered_critical_transmission")
        code, _ = run_cli(["local-amp", "--config", str(cfg)], tmp_path)
        assert code == 0
        assert [call["eta_c"] for call in calls] == [0.9]

    def test_section_key_the_command_does_not_take_names_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[DEFAULT]\nworkers = 2\n\n[threshold]\neta_d = 0.95\neta_c = 0.9\n")
        out = tmp_path / "out.csv"
        assert main(["threshold", "--config", str(cfg), "--output", str(out)]) == 1
        assert_one_error_line(capsys.readouterr().err, f"{cfg}:6: unknown option 'eta_c'")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["region", "source-amp", "multi-filter"])
    def test_workers_key_is_unknown(self, command, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[{command}]\ncutoff = 2\nworkers = 2\n")
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(cfg), "--output", str(out)]) == 1
        assert_one_error_line(capsys.readouterr().err, f"{cfg}:3: unknown option 'workers'")
        assert not out.exists()

    @pytest.mark.parametrize("command, solver", [
        ("region", "critical_efficiency"),
        ("source-amp", "source_critical_transmission"),
        ("multi-filter", "filtered_critical_transmission"),
    ])
    def test_default_workers_key_is_skipped_by_every_sweep(self, command, solver, tmp_path,
                                                           monkeypatch):
        calls = record_solver(monkeypatch, solver)
        cfg = tmp_path / "shared.ini"
        cfg.write_text("[DEFAULT]\nworkers = 2\n")
        code, _ = run_cli([command, "--config", str(cfg)], tmp_path)
        assert code == 0 and calls
        effective = json.loads((tmp_path / "out.json").read_text())["effective_config"]
        assert "workers" not in effective

    @pytest.mark.parametrize("value, include_source", [
        ("no", True), ("false", True), ("yes", False), ("on", False),
    ])
    def test_skip_source_is_a_boolean(self, value, include_source, tmp_path,
                                      monkeypatch):
        received = fake_reproduce_all(monkeypatch)
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[reproduce-all]\nskip_source = {value}\n")
        code, _ = run_cli(["reproduce-all", "--config", str(cfg)], tmp_path)
        assert code == 0
        assert received["include_source"] is include_source

    @pytest.mark.parametrize("section", [
        "[threshold]\neta_d = 0.9\nstate = bogus\n",
        "[threshold]\neta_d = 0.9\nsymmetry = bogus\n",
        "[reproduce-all]\ncutoff = 4\nskip_source = maybe\n",
    ])
    def test_bad_choice_names_its_line(self, section, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(section)
        command = section[1:section.index("]")]
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(cfg), "--output", str(out)]) == 1
        assert_one_error_line(capsys.readouterr().err, f"{cfg}:3:")
        assert not out.exists()

    @pytest.mark.parametrize("section", [
        "[threshold]\n# comment\neta_d = -0.5\n",
        "[threshold]\nstate = psi2\neta_t = 1.5\n",
        "[local-amp]\ng = 2\neta_c = 2\n",
        "[source-amp]\ncutoff = 3\neta_c = nan\n",
        "[region]\nstate = psi2\neta_d_grid = 0.5:1.2:3\n",
        "[source-amp]\ncutoff = 3\neta_d_grid = 0.9:1:0x\n",
    ])
    def test_out_of_range_value_names_its_line(self, section, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(section)
        command = section[1:section.index("]")]
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(cfg), "--output", str(out)]) == 1
        assert_one_error_line(capsys.readouterr().err, f"{cfg}:3:")
        assert not out.exists()

    def test_line_number_is_read_in_the_command_section(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[region]\neta-d = 0.5\n\n[threshold]\neta-d = oops\n")
        assert main(["threshold", "--config", str(cfg)]) == 1
        assert_one_error_line(capsys.readouterr().err, f"{cfg}:5:")

    def test_symmetric_flag_overrides_config(self, tmp_path, monkeypatch):
        received = {}

        def solve(target, **kwargs):
            received.update(kwargs)
            return None

        monkeypatch.setattr(cvbell.cli, "critical_efficiency", solve)
        cfg = tmp_path / "run.ini"
        cfg.write_text("[threshold]\nsymmetry = asymmetric\n")
        code, _ = run_cli(["threshold", "--config", str(cfg)], tmp_path)
        assert code == 0 and received["symmetry"] == "asymmetric"
        code, _ = run_cli(["threshold", "--symmetric", "--config", str(cfg)], tmp_path)
        assert code == 0 and received["symmetry"] == "symmetric"

    def test_value_may_start_with_a_dash(self, tmp_path, monkeypatch):
        calls = record_solver(monkeypatch, "source_critical_transmission")
        cfg = tmp_path / "run.ini"
        cfg.write_text("[source-amp]\neta-d-grid = 1.0\ntol = -1e-3\n")
        code, out = run_cli(["source-amp", "--config", str(cfg)], tmp_path)
        assert code == 0
        assert calls[0]["tol"] == -1e-3

    def test_grammar(self, tmp_path, monkeypatch):
        calls = record_solver(monkeypatch, "critical_efficiency")
        cfg = tmp_path / "run.ini"
        cfg.write_text("; leading comment\n[DEFAULT]\nCutoff: 3\neta_t = 0.5\n\n[threshold]\n"
                       "    # indented comment\nTARGET: eta-d\neta-t=0.9\n")
        code, _ = run_cli(["threshold", "--config", str(cfg)], tmp_path)
        assert code == 0
        assert [(c["target"], c["eta_t"], c["cutoff"]) for c in calls] == [("eta_d", 0.9, 3)]

    def test_percent_hash_and_semicolon_are_ordinary_in_a_value(self, tmp_path, monkeypatch):
        record_solver(monkeypatch, "critical_efficiency")
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.ini"
        cfg.write_text("[threshold]\noutput = 100%(x)s;#.csv\n")
        assert main(["threshold", "--config", str(cfg)]) == 0
        assert (tmp_path / "100%(x)s;#.csv").exists()

    @pytest.mark.parametrize("text, where, says", [
        (b"[threshold]\neta_d = 0.9%\n", ":2: ", "invalid float value: '0.9%'"),
        (b"[threshold]\neta_d = %(x)s\n", ":2: ", "invalid float value: '%(x)s'"),
        (b"# no header\neta_d = 0.9\n", ":2: ", "before any [section] header"),
        (b"[threshold]\nstate\n", ":2: ", "expected [section], key = value"),
        (b"[threshold]\neta_d = 0.9\n\neta_d = 0.8\n", ":4: ", "first at line 2"),
        (b"[threshold]\neta_d = 0.9\neta-d = 0.8\n", ":3: ", "'eta_d' repeated"),
        (b"[threshold]\neta_d = 0.9\n  0.8\n", ":3: ", "continuation lines"),
        (b"[threshold]\neta_d = 0.9\nstate = psi\xb2\n", ":3: ", "not UTF-8"),
        (None, ": ", "cannot read: "),
    ], ids=["percent", "interpolation", "no-header", "bare-key", "duplicate-key",
            "duplicate-spelling", "continuation", "non-utf8", "directory"])
    def test_malformed_config_is_one_error_line(self, text, where, says, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        if text is None:
            cfg.mkdir()
        else:
            cfg.write_bytes(text)
        out = tmp_path / "out.csv"
        assert main(["threshold", "--config", str(cfg), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert_one_error_line(err, f"{cfg}{where}")
        assert says in err
        assert os.listdir(tmp_path) == ["run.ini"]  # no CSV, no sidecar

    def test_a_byte_order_mark_is_skipped(self, tmp_path):
        text = "[threshold]\ntarget = eta-d\nstate = psi2\n"
        outputs = []
        for name, encoding in (("plain", "utf-8"), ("bom", "utf-8-sig")):
            cfg = tmp_path / f"{name}.ini"
            cfg.write_text(text, encoding=encoding)
            code, out = run_cli(["threshold", "--config", str(cfg)], tmp_path, f"{name}.csv")
            assert code == 0
            outputs.append(out.read_bytes())
        assert (tmp_path / "bom.ini").read_bytes().startswith(b"\xef\xbb\xbf[threshold]")
        assert outputs[0] == outputs[1]

    def test_the_config_file_is_opened_once(self, tmp_path, monkeypatch):
        record_solver(monkeypatch, "critical_efficiency")
        cfg = tmp_path / "run.ini"
        cfg.write_text("[DEFAULT]\ncutoff = 3\n\n[threshold]\neta_d = 0.9\ntarget = eta-d\n")
        opened, real_open = [], builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        code, _ = run_cli(["threshold", "--config", str(cfg)], tmp_path)
        assert code == 0
        assert opened.count(str(cfg)) == 1


def test_cli_imports_neither_configparser_nor_re():
    tree = ast.parse(Path(cvbell.cli.__file__).read_text(encoding="utf-8"))
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert not imported & {"configparser", "re"}


@pytest.mark.parametrize("name, args", [
    ("threshold", ["threshold"]),
    ("threshold-psi2-eta-d-asym",
     ["threshold", "--target", "eta-d", "--state", "psi2", "--asymmetric"]),
    ("region-psi2", ["region", "--state", "psi2", "--eta-d-grid", "0.7,0.9"]),
    ("local-amp", ["local-amp", "--g", "3", "--m", "2"]),
    ("multi-filter", ["multi-filter"]),
    ("multi-filter-small", ["multi-filter", "--m-max", "3", "--eta-d", "0.9"]),
    ("source-amp-eta-c", ["source-amp", "--eta-c", "0.9", "--eta-d-grid", "0.9,1.0"]),
    ("reproduce-all", ["reproduce-all"]),
])
def test_csv_is_unchanged(name, args, tmp_path, capsys):
    code, out = run_cli(args, tmp_path, f"{name}.csv")
    assert code in (0, 2)  # reproduce-all exits 2 on its standing misses
    assert out.read_bytes() == (PARENT_CSVS / f"{name}.csv").read_bytes()


def test_readme_lists_the_misses_of_the_pinned_report():
    """README's battery table is the header and the failing rows of reproduce-all.csv."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Reference battery status\n", 1)[1]
    block = section.split("\n```csv\n", 1)[1].split("\n```\n", 1)[0]
    lines = (PARENT_CSVS / "reproduce-all.csv").read_text(encoding="utf-8").splitlines()
    misses = [line for line, row in zip(lines[1:], csv.DictReader(lines))
              if row["passed"] == "false"]
    assert block.splitlines() == [lines[0], *misses]


@pytest.mark.parametrize("args", [
    ["threshold", "--state", "psi2", "--target", "eta-t"],
    ["threshold", "--state", "psi2", "--target", "eta-d"],
    ["region", "--state", "psi2"],
    ["local-amp"],
    ["multi-filter"],
], ids=["threshold-eta-t", "threshold-eta-d", "region", "local-amp", "multi-filter"])
def test_a_two_photon_solve_builds_nothing_at_the_cutoff(args, tmp_path, monkeypatch):
    """With the guard at 10^4, a larger --cutoff writes the rows of --cutoff 2 but the cutoff."""
    monkeypatch.setattr(cvbell.fock, "MAX_TENSOR_DIMENSION", 10_000)
    cvbell.fock.shared_basis.cache_clear()  # so that no basis built earlier is reused
    tables = []
    for cutoff in ("2", "300", "20000", "1000000000"):
        code, out = run_cli([*args, "--cutoff", cutoff], tmp_path, f"c{cutoff}.csv")
        assert code == 0
        tables.append([{k: v for k, v in row.items() if k != "cutoff"}
                       for row in read_rows(out)])
    assert all(table == tables[0] for table in tables)


@pytest.mark.parametrize("args", [
    ["reproduce-all", "--tol", "1e-3"],
    ["reproduce-all", "--workers", "2"],
    ["threshold", "--workers", "2"],
    ["local-amp", "--workers", "2"],
    ["region", "--workers", "2"],
    ["source-amp", "--workers", "2"],
    ["multi-filter", "--workers", "2"],
], ids=["reproduce-all-tol", "reproduce-all-workers", "threshold-workers", "local-amp-workers",
        "region-workers", "source-amp-workers", "multi-filter-workers"])
def test_flag_that_changes_nothing_is_rejected(args, tmp_path, capsys):
    code, out = run_cli(args, tmp_path)
    assert code == 1
    assert_one_error_line(capsys.readouterr().err, f"unrecognized arguments: {args[1]}")
    assert not out.exists()


def test_reproduce_all_sidecar_claims_no_tol(tmp_path, monkeypatch):
    fake_reproduce_all(monkeypatch)
    code, _ = run_cli(["reproduce-all"], tmp_path)
    assert code == 0
    effective = json.loads((tmp_path / "out.json").read_text())["effective_config"]
    assert set(effective) == {"cutoff", "output", "skip_source"}


def test_source_amp_optimum_violates():
    """Each pinned source-amp optimum violates where it is reported: at eta_t* + tol (1e-4)."""
    for row in read_rows(PARENT_CSVS / "source-amp-eta-c.csv"):
        basis, packed, _ = cvbell.source_amp._source_stack(float(row["eta_c"]),
                                                           int(row["cutoff"]))
        state = cvbell.source_amp._image_state(basis, packed, float(row["squeezing"]),
                                               float(row["amp_transmission"]))
        scenario = BellScenario.symmetric(eta_t=min(1.0, float(row["eta_t_star"]) + 1e-4),
                                          eta_d=float(row["eta_d"]), delta=float(row["delta"]))
        assert chsh_value(state, scenario) > VIOLATION_BOUND


@pytest.mark.parametrize("command, solver, flags", [
    ("threshold", "critical_efficiency", []),
    ("region", "critical_efficiency", ["--eta-d-grid", "0.9,1.0"]),
    ("source-amp", "source_critical_transmission", ["--eta-d-grid", "1.0"]),
    ("local-amp", "filtered_critical_transmission", []),
    ("multi-filter", "filtered_critical_transmission", ["--m-max", "2"]),
])
def test_one_tol_reaches_the_solver_the_csv_and_the_sidecar(command, solver, flags,
                                                            tmp_path, monkeypatch):
    calls = record_solver(monkeypatch, solver, threshold=0.5)
    code, out = run_cli([command, "--tol", "5e-3"] + flags, tmp_path)
    assert code == 0
    sidecar = json.loads((tmp_path / "out.json").read_text())
    assert [call["tol"] for call in calls] == [5e-3] * len(read_rows(out))
    assert sidecar["effective_config"]["tol"] == 5e-3
    assert "efficiency_bisection" not in sidecar["tolerances"]
    if command != "source-amp":  # the one command without the column
        assert {float(row["bisection_tol"]) for row in read_rows(out)} == {5e-3}


@pytest.mark.parametrize("args, solver, expected", [
    (["threshold", "--target", "eta-d", "--eta-t", "0.9", "--asymmetric"],
     "critical_efficiency",
     [{"target": "eta_d", "symmetry": "asymmetric", "eta_t": 0.9, "state": None,
       "cutoff": 2, "tol": 1e-4, "eta_d": 1.0}]),
    (["region", "--eta-d-grid", "0.8,0.9"], "critical_efficiency",
     [{"target": "eta_t", "symmetry": "symmetric", "state": None, "cutoff": 2,
       "tol": 1e-4, "eta_d": eta_d} for eta_d in (0.8, 0.9)]),
    (["source-amp", "--eta-c", "0.9", "--eta-d-grid", "0.8,0.9"],
     "source_critical_transmission",
     [{"eta_c": 0.9, "symmetry": "symmetric", "cutoff": 6, "tol": 1e-4, "eta_d": eta_d}
      for eta_d in (0.8, 0.9)]),
    (["local-amp", "--g", "3", "--m", "2", "--eta-d", "0.9", "--eta-c", "0.95"],
     "filtered_critical_transmission",
     [{"gain": 3.0, "applications": 2, "eta_c": 0.95, "cutoff": 2, "tol": 1e-4,
       "eta_d": 0.9}]),
    (["multi-filter", "--g", "3", "--m-max", "2", "--eta-d", "0.9"],
     "filtered_critical_transmission",
     [{"gain": 3.0, "eta_d": 0.9, "cutoff": 2, "tol": 1e-4, "applications": m}
      for m in (1, 2)]),
], ids=["threshold", "region", "source-amp", "local-amp", "multi-filter"])
def test_solver_gets_every_value_by_keyword(args, solver, expected, tmp_path, monkeypatch):
    calls = record_solver(monkeypatch, solver)
    code, out = run_cli(args, tmp_path)
    assert code == 0
    assert calls == expected
    assert all(row["no_violation"] == "true" for row in read_rows(out))
