import json

import pytest

import cvbell.cli
from cvbell.cli import ValidationError, main, parse_grid


def run_cli(args, tmp_path, name="out.csv"):
    out = tmp_path / name
    code = main(args + ["--output", str(out)])
    return code, out


class TestParsing:
    def test_grid_range(self):
        grid = parse_grid("0.5:1.0:3")
        assert grid == [0.5, 0.75, 1.0]

    def test_grid_list(self):
        assert parse_grid("0.9,1.0") == [0.9, 1.0]

    def test_grid_empty(self):
        assert parse_grid("") == []

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

    def test_explicit_keys_restore_the_defaults(self):
        parser = cvbell.cli.build_parser()
        argv = ["source-amp", "--eta-c", "0.9"]
        before = parser.parse_args(argv)
        assert cvbell.cli._explicit_keys(parser, argv) >= {"command", "eta_c"}
        assert parser.parse_args(argv) == before

    def test_seed_flag_removed(self, capsys):
        assert main(["threshold", "--seed", "1"]) == 1
        assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["region", "--eta-d-grid", "1.5"],
    ["threshold", "--eta-d", "nan"],
    ["region", "--eta-d-grid", "0.9:1:0x"],
    ["local-amp", "--m", "0"],
    ["threshold", "--cutoff", "-1"],
    ["region", "--eta-d-grid", "0.9,1.5", "--workers", "2"],
])
def test_bad_input_exits_cleanly(args, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(args + ["--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cvbell: error: ")
    assert err.count("\n") == 1  # one line, no traceback
    assert not out.exists()


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
        assert set(sidecar["tolerances"]) == {
            "efficiency_bisection", "delta_refinement", "violation_margin",
        }
        assert sidecar["effective_config"]["state"] == "psi2"

    def test_deterministic_output(self, tmp_path):
        _, first = run_cli(["threshold", "--eta-d", "0.9"], tmp_path, "a.csv")
        _, second = run_cli(["threshold", "--eta-d", "0.9"], tmp_path, "b.csv")
        assert first.read_bytes() == second.read_bytes()


class TestRegionCommand:
    def test_empty_grid_header_only(self, tmp_path):
        code, out = run_cli(["region", "--eta-d-grid", ""], tmp_path)
        assert code == 0
        assert out.read_text().count("\n") == 1  # header line only

    def test_worker_count_independent(self, tmp_path):
        _, one = run_cli(
            ["region", "--eta-d-grid", "0.9,1.0", "--workers", "1"], tmp_path, "w1.csv"
        )
        _, two = run_cli(
            ["region", "--eta-d-grid", "0.9,1.0", "--workers", "2"], tmp_path, "w2.csv"
        )
        assert one.read_bytes() == two.read_bytes()

    def test_line_endings_lf(self, tmp_path):
        _, out = run_cli(["region", "--eta-d-grid", "1.0:1.0:1"], tmp_path)
        raw = out.read_bytes()
        assert b"\r" not in raw


class TestSourceAmpCommand:
    @pytest.mark.parametrize("flags", [[], ["--tol", "2e-4"], ["--tol", "5e-3"]])
    def test_solver_gets_the_recorded_tolerance(self, flags, tmp_path, monkeypatch):
        received = {}

        def boundary(grid, **kwargs):
            received.update(kwargs)
            return []

        monkeypatch.setattr(cvbell.cli, "source_region_boundary", boundary)
        code, _ = run_cli(["source-amp", "--eta-d-grid", "1.0"] + flags, tmp_path)
        assert code == 0
        sidecar = json.loads((tmp_path / "out.json").read_text())
        assert received["tol"] == sidecar["effective_config"]["tol"]

    def test_config_file_sets_the_cutoff(self, tmp_path, monkeypatch):
        received = {}

        def boundary(grid, **kwargs):
            received.update(kwargs)
            return []

        monkeypatch.setattr(cvbell.cli, "source_region_boundary", boundary)
        cfg = tmp_path / "run.ini"
        cfg.write_text("[source-amp]\ncutoff = 3\n")
        code, _ = run_cli(["source-amp", "--eta-d-grid", "1.0", "--config", str(cfg)], tmp_path)
        assert code == 0
        sidecar = json.loads((tmp_path / "out.json").read_text())
        assert received["cutoff"] == sidecar["effective_config"]["cutoff"] == 3

    def test_flag_default_is_not_explicit(self):
        parser = cvbell.cli.build_parser()
        for command in ("source-amp", "reproduce-all"):
            assert cvbell.cli._explicit_keys(parser, [command]) == {"command"}
            assert parser.parse_args([command]).cutoff == 6


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
        ("multi-filter", "multi_filter_curve", ["--m-max", "1"]),
    ])
    def test_sidecar_records_the_cutoff_used(self, command, solver, flags, tmp_path,
                                             monkeypatch):
        received = {}

        def solve(*args, **kwargs):
            received.update(kwargs)
            return None if solver == "filtered_critical_transmission" else []

        monkeypatch.setattr(cvbell.cli, solver, solve)
        code, _ = run_cli([command, "--cutoff", "1"] + flags, tmp_path)
        assert code == 0
        sidecar = json.loads((tmp_path / "out.json").read_text())
        assert received["cutoff"] == sidecar["effective_config"]["cutoff"] == 2

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
