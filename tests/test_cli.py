import dataclasses
import json
import math

import click
import numpy as np
import pytest
from click.testing import CliRunner
from scipy.special import gammaln

from tactsim import cli, scan
from tactsim.cli import main
from tactsim.dynamics import PropagationError
from tactsim.fitting import FitError, FitModel
from tactsim.observables import QpdGrid
from tactsim.scan import ScanResult, ScanSpec
from tactsim.states import SpinState


@pytest.fixture
def runner():
    return CliRunner()


def read_state(path):
    """The SpinState of a state JSON file, rebuilt (and re-validated) by its constructor."""
    record = json.loads(path.read_text())
    return SpinState(record["j"], np.array(record["amplitudes"]) @ (1, 1j))


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestStateCommand:
    def test_ewss_prob_rows(self, runner, tmp_path):
        result = runner.invoke(main, ["state", "--kind", "ewss", "--j", "1",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0
        header, rows = read_csv(tmp_path / "state_ewss_j1_prob.csv")
        assert header == ["M", "P"]
        ms = [float(r[0]) for r in rows]
        ps = [float(r[1]) for r in rows]
        assert ms == [1.0, 0.0, -1.0]
        assert np.allclose(ps, [1 / 3] * 3, atol=1e-15)

    def test_state_json_round_trips(self, runner, tmp_path):
        result = runner.invoke(main, ["state", "--kind", "cat", "--j", "3",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0
        state = read_state(tmp_path / "state_cat_j3.json")
        assert state.j == 3

    def test_squeezed_state_oscillates_near_edge(self, runner, tmp_path):
        result = runner.invoke(main, ["state", "--kind", "sss", "--j", "50",
                                      "--tau", "0.0199", "--out", str(tmp_path)])
        assert result.exit_code == 0
        _, rows = read_csv(tmp_path / "state_sss_j50_tau0.0199_prob.csv")
        p = [float(r[1]) for r in rows]
        # alternating structure around |M| ~ J, unlike the flat target
        assert p[0] > p[1] < p[2] > p[3]

    def test_invalid_state_exits_nonzero(self, runner, tmp_path):
        result = runner.invoke(main, ["state", "--kind", "tfs", "--j", "0.5",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert "twin-Fock requires integer J" in result.output

    @pytest.mark.parametrize("j", ["inf", "nan"])
    def test_non_finite_spin_fails_by_name(self, runner, tmp_path, j):
        result = runner.invoke(main, ["state", "--kind", "css", "--j", j,
                                      "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert "total spin must be finite" in result.output


# (kind, a state flag that kind does not read, the one kind that reads it)
_UNREAD_FLAGS = [(kind, flag, user)
                 for user, flags in (("css", ("alpha", "beta")), ("sss", ("tau", "chi", "gamma")))
                 for flag in flags for kind in ("css", "ewss", "tfs", "cat", "sss")
                 if kind != user]


@pytest.mark.parametrize("command", [["state"], ["qpd", "--grid", "4x3"]], ids=["state", "qpd"])
@pytest.mark.parametrize("kind, flag, user", _UNREAD_FLAGS)
def test_flag_the_kind_does_not_read_fails_by_name(runner, tmp_path, command, kind, flag, user):
    result = runner.invoke(main, command + ["--kind", kind, "--j", "2", f"--{flag}", "0.3",
                                            "--out", str(tmp_path)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert f"--{flag} is used only by --kind {user}" in result.output
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("fmt, suffixes", [("json", [".json"]), ("csv", ["_prob.csv"]),
                                          ("both", [".json", "_prob.csv"])])
@pytest.mark.parametrize("args, prefix", [
    (["state", "--kind", "ewss", "--j", "1"], "state_ewss_j1"),
    (["evolve", "--j", "2", "--tau", "0.3"], "evolved_j2_tau0.3"),
], ids=["state", "evolve"])
def test_format_selects_the_files_written(runner, tmp_path, args, prefix, fmt, suffixes):
    result = runner.invoke(main, args + ["--format", fmt, "--out", str(tmp_path)])
    assert result.exit_code == 0
    expect = [tmp_path / (prefix + suffix) for suffix in suffixes]
    assert sorted(tmp_path.iterdir()) == sorted(expect)
    assert result.output.split() == [str(path) for path in expect]


class TestQpdCommand:
    def test_pole_state_peaks_at_north_pole(self, runner, tmp_path):
        result = runner.invoke(main, ["qpd", "--j", "5", "--kind", "css",
                                      "--grid", "16x9", "--out", str(tmp_path)])
        assert result.exit_code == 0
        record = json.loads((tmp_path / "qpd_css_j5.json").read_text())
        values = np.array(record["values"])
        assert values[:, 0].max() == pytest.approx(1.0, abs=1e-12)
        assert values.max() == values[:, 0].max()

    def test_metadata_echoes_resolution(self, runner, tmp_path):
        result = runner.invoke(main, ["qpd", "--j", "2", "--kind", "ewss",
                                      "--grid", "24x12", "--out", str(tmp_path)])
        assert result.exit_code == 0
        record = json.loads((tmp_path / "qpd_ewss_j2.json").read_text())
        assert record["n_phi"] == 24
        assert record["n_theta"] == 12
        assert len(record["values"]) == 24

    def test_twin_fock_ring_through_poles(self, runner, tmp_path):
        # the x-rotated |J,0> ring lies in the xz-plane: the pole value is
        # the central d-matrix element squared, C(2J,J)/4^J, while the
        # off-ring equator direction +-y is empty
        result = runner.invoke(main, ["qpd", "--j", "50", "--kind", "tfs",
                                      "--grid", "72x37", "--out", str(tmp_path)])
        assert result.exit_code == 0
        record = json.loads((tmp_path / "qpd_tfs_j50.json").read_text())
        values = np.array(record["values"])
        phis = np.array(record["phi"])
        thetas = np.array(record["theta"])
        oracle = math.exp(gammaln(101) - 2 * gammaln(51) - 100 * math.log(2))
        assert values[0, 0] == pytest.approx(oracle, rel=1e-10)
        ip = int(np.argmin(np.abs(phis - math.pi / 2)))
        it = int(np.argmin(np.abs(thetas - math.pi / 2)))
        assert values[ip, it] < 1e-6

    def test_csv_matches_json(self, runner, tmp_path):
        result = runner.invoke(main, ["qpd", "--j", "1", "--kind", "ewss",
                                      "--grid", "8x5", "--out", str(tmp_path)])
        assert result.exit_code == 0
        record = json.loads((tmp_path / "qpd_ewss_j1.json").read_text())
        _, rows = read_csv(tmp_path / "qpd_ewss_j1.csv")
        assert len(rows) == 8 * 5
        assert float(rows[0][2]) == record["values"][0][0]

    def test_defaults_to_squeezed_state_when_only_tau_given(self, runner, tmp_path):
        result = runner.invoke(main, ["qpd", "--j", "2", "--tau", "0.05",
                                      "--grid", "8x5", "--out", str(tmp_path)])
        assert result.exit_code == 0
        assert (tmp_path / "qpd_sss_j2_tau0.05.json").exists()

    def test_sss_kind_without_tau_uses_zero(self, runner, tmp_path):
        result = runner.invoke(main, ["qpd", "--j", "2", "--kind", "sss",
                                      "--grid", "8x5", "--out", str(tmp_path)])
        assert result.exit_code == 0
        assert (tmp_path / "qpd_sss_j2_tau0.json").exists()

    def test_bad_grid_spec_fails(self, runner, tmp_path):
        result = runner.invoke(main, ["qpd", "--j", "1", "--kind", "ewss",
                                      "--grid", "huge", "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert "NPHIxNTHETA" in result.output


class TestEvolveCommand:
    def test_writes_valid_state(self, runner, tmp_path):
        result = runner.invoke(main, ["evolve", "--j", "2", "--tau", "0.3",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0
        state = read_state(tmp_path / "evolved_j2_tau0.3.json")  # re-validates the norm
        assert state.dim == 5


class TestScanCommand:
    def test_j1_quarter_pi(self, runner, tmp_path):
        result = runner.invoke(main, [
            "scan", "--j", "1", "--metric", "var_z_max",
            "--tau-min", "0", "--tau-max", str(math.pi / 2),
            "--grid", "64", "--out", str(tmp_path)])
        assert result.exit_code == 0
        header, rows = read_csv(tmp_path / "scan_var_z_max_j1.csv")
        assert header == ["j", "metric", "tau_star", "value_star",
                          "grid_size", "tol"]
        assert float(rows[0][2]) == pytest.approx(math.pi / 4, abs=1e-4)
        record = json.loads((tmp_path / "scan_var_z_max_j1.json").read_text())
        assert len(record["grid_taus"]) == 64

    @pytest.mark.parametrize("flags,given", [
        ([], {}),
        (["--tau-max", "0.5"], {"tau_max": 0.5}),
        (["--tau-min", "0.1", "--refine-tol", "1e-5"], {"tau_min": 0.1, "refine_tol": 1e-5}),
    ])
    def test_given_flags_replace_the_auto_spec(self, runner, tmp_path, flags, given):
        result = runner.invoke(main, ["scan", "--j", "3", "--metric", "var_z_max",
                                      "--grid", "32", "--out", str(tmp_path)] + flags)
        assert result.exit_code == 0
        record = json.loads((tmp_path / "scan_var_z_max_j3.json").read_text())
        auto = dataclasses.asdict(ScanSpec.auto(3, "var_z_max", n_grid=32))
        assert record["spec"] == {**auto, **given}

    def test_invalid_metric_spin_combination(self, runner, tmp_path):
        result = runner.invoke(main, ["scan", "--j", "2.5", "--metric",
                                      "fid_tfs", "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert "integer" in result.output

    @pytest.mark.parametrize("flag,name", [("--tau-max", "tau_max"),
                                           ("--refine-tol", "refine_tol")])
    def test_non_finite_setting_fails_by_name(self, runner, tmp_path, flag, name):
        result = runner.invoke(main, ["scan", "--j", "2", "--metric", "fid_ewss",
                                      flag, "inf", "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert f"{name} must be finite" in result.output
        assert not (tmp_path / "scan_fid_ewss_j2.csv").exists()


class TestFitCommand:
    def test_recovers_known_model(self, runner, tmp_path):
        data = tmp_path / "data.csv"
        lines = ["J,value"]
        for j in range(10, 110, 10):
            lines.append(f"{j},{0.5 * (j + 2.0)}")
        data.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["fit", "--family", "shifted_power",
                                      "--data", str(data), "--out", str(tmp_path)])
        assert result.exit_code == 0
        record = json.loads((tmp_path / "fit_shifted_power.json").read_text())
        assert record["params"]["a"] == pytest.approx(0.5, abs=1e-6)
        assert record["params"]["b"] == pytest.approx(2.0, abs=1e-5)
        assert record["params"]["c"] == pytest.approx(1.0, abs=1e-6)
        assert record["converged"] is True

    def test_bad_data_exits_nonzero(self, runner, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("J,value\n1,1\n2,2\n")
        result = runner.invoke(main, ["fit", "--family", "shifted_power",
                                      "--data", str(data), "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert "3 data points" in result.output


    @pytest.mark.parametrize("bad_line", ["J,value", "30"])
    def test_bad_line_after_header_fails_with_location(self, runner, tmp_path, bad_line):
        data = tmp_path / "data.csv"
        lines = ["# J, value", "J,value", "10,6.0", "20,11.0", bad_line, "40,21.0"]
        data.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["fit", "--family", "shifted_power",
                                      "--data", str(data), "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert f"{data}:5:" in result.output
        assert not (tmp_path / "fit_shifted_power.json").exists()

    def test_bad_init_names_option(self, runner, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("J,value\n10,6.0\n20,11.0\n30,16.0\n")
        result = runner.invoke(main, ["fit", "--family", "shifted_power", "--data", str(data),
                                      "--init", "1,a", "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert "--init: bad init value '1,a'" in result.output
        assert not (tmp_path / "fit_shifted_power.json").exists()

    @pytest.mark.parametrize("init", ["1,nan", "inf,1"])
    def test_non_finite_init_names_option(self, runner, tmp_path, init):
        data = tmp_path / "data.csv"
        data.write_text("J,value\n10,6.0\n20,11.0\n30,16.0\n")
        result = runner.invoke(main, ["fit", "--family", "shifted_power", "--data", str(data),
                                      "--init", init, "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert f"error: --init: bad init value {init!r}: numbers must be finite" in result.output
        assert not (tmp_path / "fit_shifted_power.json").exists()

    @pytest.mark.parametrize("bad_line", ["inf,3.0", "30,nan"])
    def test_non_finite_row_fails_with_location(self, runner, tmp_path, bad_line):
        data = tmp_path / "data.csv"
        data.write_text("\n".join(["J,value", "10,6.0", "20,11.0", bad_line, "40,21.0"]) + "\n")
        result = runner.invoke(main, ["fit", "--family", "shifted_power",
                                      "--data", str(data), "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert f"{data}:4: non-finite" in result.output
        assert not (tmp_path / "fit_shifted_power.json").exists()


class TestConfigPrecedence:
    def test_config_supplies_defaults(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# defaults\nqpd-grid = 12x6\nout = {}\n".format(tmp_path))
        result = runner.invoke(main, ["--config", str(cfg), "qpd", "--j", "1",
                                      "--kind", "ewss"])
        assert result.exit_code == 0
        record = json.loads((tmp_path / "qpd_ewss_j1.json").read_text())
        assert record["n_phi"] == 12
        assert record["n_theta"] == 6

    def test_cli_flag_overrides_config(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("qpd-grid = 12x6\n")
        result = runner.invoke(main, ["--config", str(cfg), "qpd", "--j", "1",
                                      "--kind", "ewss", "--grid", "10x4",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0
        record = json.loads((tmp_path / "qpd_ewss_j1.json").read_text())
        assert record["n_phi"] == 10

    def test_malformed_config_rejected(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid 12x6\n")
        result = runner.invoke(main, ["--config", str(cfg), "state",
                                      "--kind", "ewss", "--j", "1"])
        assert result.exit_code != 0
        assert "key = value" in result.output

    def test_unknown_key_rejected_with_location(self, runner, tmp_path):
        # a typo, and the propagator keys that no longer exist
        for line in ("metod = krylov", "method = krylov", "tol = 1e-10"):
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"# unknown key below\n{line}\n")
            result = runner.invoke(main, ["--config", str(cfg), "state",
                                          "--kind", "ewss", "--j", "1", "--out", str(tmp_path)])
            assert result.exit_code != 0
            key = line.split(" = ")[0]
            assert f"{cfg}:2: unknown key {key!r}" in result.output
            assert not (tmp_path / "state_ewss_j1.json").exists()

    @pytest.mark.parametrize("args", [
        ["state", "--kind", "sss", "--j", "2"],
        ["qpd", "--j", "2", "--kind", "ewss"],
        ["evolve", "--j", "2", "--tau", "0.1"],
        ["scan", "--j", "2", "--metric", "fid_ewss"],
        ["reproduce-paper", "--j-list", "2,3,4"],
    ], ids=lambda args: args[0])
    def test_method_option_is_gone(self, runner, tmp_path, args):
        result = runner.invoke(main, args + ["--method", "auto", "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "No such option" in result.output and "--method" in result.output
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("line,args", [
        pytest.param("scan-grid = abc", ["scan", "--j", "2", "--metric", "fid_ewss"],
                     id="scan-grid"),
        pytest.param("qpd-grid = abc", ["qpd", "--j", "1", "--kind", "ewss"], id="qpd-grid"),
        ("format = jsn", ["state", "--kind", "ewss", "--j", "1"]),
    ])
    def test_value_that_fails_to_convert_names_key_and_file(self, runner, tmp_path,
                                                            line, args):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out = {tmp_path / 'out'}\n{line}\n")
        result = runner.invoke(main, ["--config", str(cfg)] + args)
        key = line.split(" = ")[0]
        assert result.exit_code == 1
        assert f"{cfg}:2: bad {key} value" in result.output
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("args", [
        ["state", "--kind", "ewss", "--j", "1"],
        ["qpd", "--j", "1", "--kind", "ewss", "--grid", "4x3"],
        ["evolve", "--j", "2", "--tau", "0.1"],
        ["scan", "--j", "2", "--metric", "fid_ewss", "--grid", "16"],
        ["reproduce-paper", "--j-list", "2,3,4", "--grid", "16"],
    ], ids=lambda args: args[0])
    def test_out_that_cannot_be_a_directory_fails_by_source(self, runner, tmp_path, args):
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# out below\nout = {blocker}\n")
        for options, where in ((["--config", str(cfg)] + args, f"{cfg}:2"),
                               (args + ["--out", str(blocker / "sub")], "--out")):
            result = runner.invoke(main, options)
            assert result.exit_code == 1
            assert isinstance(result.exception, SystemExit)  # no traceback
            assert f"{where}: bad out value " in result.output
        assert sorted(tmp_path.iterdir()) == [blocker, cfg]

    def test_one_file_sets_the_qpd_and_the_scan_grid(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"qpd-grid = 12x6\nscan-grid = 16\nout = {tmp_path}\n")
        result = runner.invoke(main, ["--config", str(cfg), "qpd", "--j", "1", "--kind", "ewss"])
        assert result.exit_code == 0, result.output
        record = json.loads((tmp_path / "qpd_ewss_j1.json").read_text())
        assert (record["n_phi"], record["n_theta"]) == (12, 6)
        result = runner.invoke(main, ["--config", str(cfg), "scan", "--j", "2",
                                      "--metric", "fid_ewss"])
        assert result.exit_code == 0, result.output
        record = json.loads((tmp_path / "scan_fid_ewss_j2.json").read_text())
        assert (record["spec"]["n_grid"], len(record["grid_taus"])) == (16, 16)
        runner.invoke(main, ["--config", str(cfg), "reproduce-paper", "--j-list", "2,3,4"])
        header, rows = read_csv(tmp_path / "sweep.csv")
        assert len(rows) == 12
        assert {row[header.index("grid_size")] for row in rows} == {"16"}

    @pytest.mark.parametrize("args", [
        ["qpd", "--j", "1", "--kind", "ewss"],
        ["scan", "--j", "2", "--metric", "fid_ewss"],
        ["reproduce-paper", "--j-list", "2,3,4"],
    ], ids=lambda args: args[0])
    def test_old_grid_key_names_both_new_keys(self, runner, tmp_path, args):
        # one key used to mean NPHIxNTHETA for qpd and an integer for the scans
        for value in ("12x6", "64"):
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"out = {tmp_path / 'out'}\ngrid = {value}\n")
            result = runner.invoke(main, ["--config", str(cfg)] + args)
            assert result.exit_code == 1
            assert f"{cfg}:2: key 'grid' is split in two" in result.output
            assert "qpd-grid = NPHIxNTHETA" in result.output
            assert "scan-grid = N" in result.output
            assert not (tmp_path / "out").exists()


class TestRoundTrips:
    def test_every_output_kind_regenerates_validated_objects(self, runner, tmp_path):
        assert runner.invoke(main, ["state", "--kind", "sss", "--j", "4",
                                    "--tau", "0.1", "--out", str(tmp_path)]
                             ).exit_code == 0
        read_state(tmp_path / "state_sss_j4_tau0.1.json")

        assert runner.invoke(main, ["qpd", "--j", "2", "--kind", "cat",
                                    "--grid", "8x5", "--out", str(tmp_path)]
                             ).exit_code == 0
        record = json.loads((tmp_path / "qpd_cat_j2.json").read_text())
        grid = QpdGrid(record["j"], record["phi"], record["theta"], record["values"])
        assert (grid.n_phi, grid.n_theta) == (record["n_phi"], record["n_theta"]) == (8, 5)

        assert runner.invoke(main, ["scan", "--j", "2", "--metric", "var_z_max",
                                    "--grid", "32", "--out", str(tmp_path)]
                             ).exit_code == 0
        record = json.loads((tmp_path / "scan_var_z_max_j2.json").read_text())
        ScanResult(spec=ScanSpec(**record.pop("spec")), **record)

        data = tmp_path / "fitdata.csv"
        data.write_text("\n".join(f"{j},{0.4 * (j + 1.0)}"
                                  for j in range(5, 50, 5)) + "\n")
        assert runner.invoke(main, ["fit", "--family", "shifted_power",
                                    "--data", str(data), "--out", str(tmp_path)]
                             ).exit_code == 0
        record = json.loads((tmp_path / "fit_shifted_power.json").read_text())
        model = FitModel(record["family"], record["params"].values())
        assert list(record["params"]) == list(model.param_names) == list(record["param_se"])
        assert all(se >= 0 for se in record["param_se"].values())


class TestReproduceCommand:
    def test_desk_scale_run_is_deterministic(self, runner, tmp_path):
        args = ["reproduce-paper", "--j-list", "2,3,4,6", "--grid", "128"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        first = runner.invoke(main, args + ["--out", str(out_a)])
        assert first.exit_code == 0, first.output
        second = runner.invoke(main, args + ["--out", str(out_b)])
        assert second.exit_code == 0
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
        assert (out_a / "report.txt").read_bytes() == (out_b / "report.txt").read_bytes()

    def test_report_contains_all_eight_laws(self, runner, tmp_path):
        result = runner.invoke(main, ["reproduce-paper", "--j-list", "2,3,4,6",
                                      "--grid", "128", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "report.json").read_text())
        keys = {row["key"] for row in report["fits"]}
        assert keys == {"fid_ewss_max", "fid_tfs_max", "dz_at_tau_ewss",
                        "dz_at_tau_tfs", "dz_max", "tau_ewss", "tau_tfs",
                        "tau_dz_max"}
        for row in report["fits"]:
            assert row["status"] == "ok"
            assert "relative_deviation" in row
        assert (tmp_path / "sweep.csv").exists()
        assert (tmp_path / "series.csv").exists()
        assert (tmp_path / "fit_comparison.csv").exists()

    def test_rejects_non_integer_j(self, runner, tmp_path):
        result = runner.invoke(main, ["reproduce-paper", "--j-list", "2,3.5",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert "integer" in result.output

    def test_rejects_unsorted_j(self, runner, tmp_path):
        result = runner.invoke(main, ["reproduce-paper", "--j-list", "5,3",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert "ascending" in result.output

    @pytest.mark.parametrize("j_list", ["5,a", "5,,10"])
    def test_bad_j_list_names_option(self, runner, tmp_path, j_list):
        result = runner.invoke(main, ["reproduce-paper", "--j-list", j_list,
                                      "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert f"--j-list: bad j-list value {j_list!r}" in result.output
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("j_list", ["5,inf", "5,nan"])
    def test_rejects_non_finite_j(self, runner, tmp_path, j_list):
        result = runner.invoke(main, ["reproduce-paper", "--j-list", j_list,
                                      "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert f"--j-list: bad j-list value {j_list!r}: numbers must be finite" in result.output

    def test_failed_scan_is_written_as_strict_json_with_its_error(self, runner, tmp_path,
                                                                 monkeypatch):
        real_scan = scan.scan_tau

        def scan_failing_at_j10_fid_tfs(spec):
            if (spec.j, spec.metric) == (10, "fid_tfs"):
                raise PropagationError("injected")
            return real_scan(spec)

        monkeypatch.setattr(scan, "scan_tau", scan_failing_at_j10_fid_tfs)
        result = runner.invoke(main, ["reproduce-paper", "--j-list", "5,10,20,50",
                                      "--grid", "128", "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)

        def no_constants(name):
            raise AssertionError(f"report.json holds {name}")

        report = json.loads((tmp_path / "report.json").read_text(),
                            parse_constant=no_constants)
        failed = [row for row in report["sweep"] if row["status"] == "failed"]
        assert failed == [{"j": 10.0, "metric": "fid_tfs", "tau_star": None,
                           "value_star": None, "grid_size": 128, "tol": None,
                           "status": "failed", "error": "PropagationError: injected"}]
        assert all("error" not in row for row in report["sweep"] if row["status"] == "ok")
        assert "  J=10 fid_tfs: PropagationError: injected" in (
            tmp_path / "report.txt").read_text().splitlines()
        header, rows = read_csv(tmp_path / "sweep.csv")
        assert header == ["j", "metric", "tau_star", "value_star", "grid_size", "tol",
                          "status"]
        assert [row for row in rows if row[1] == "fid_tfs" and row[0] == "10"] == [
            ["10", "fid_tfs", "nan", "nan", "128", "nan", "failed"]]


class TestOutIsResolvedFirst:
    @pytest.mark.parametrize("args,work", [
        (["state", "--kind", "ewss", "--j", "1"], "_build_state"),
        (["evolve", "--j", "2", "--tau", "0.1"], "evolve"),
        (["qpd", "--j", "1", "--kind", "ewss"], "qpd"),
        (["scan", "--j", "2", "--metric", "fid_ewss"], "scan_tau"),
        (["fit", "--family", "shifted_power"], "fit"),
        (["reproduce-paper", "--j-list", "5,10,20,50"], "run_reproduction"),
    ], ids=lambda value: value[0] if isinstance(value, list) else None)
    def test_bad_out_fails_before_the_work(self, runner, tmp_path, monkeypatch, args, work):
        def never(*args, **kwargs):
            raise AssertionError(f"{work} ran before --out was checked")

        monkeypatch.setattr(cli, work, never)
        data = tmp_path / "data.csv"
        data.write_text("10,6.0\n20,11.0\n30,16.0\n")
        if args[0] == "fit":
            args = args + ["--data", str(data)]
        result = runner.invoke(main, args + ["--out", str(data / "sub")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # never ran, no traceback
        assert "--out: bad out value " in result.output


class TestOneErrorBoundary:
    @pytest.mark.parametrize("args,work,exc", [
        (["state", "--kind", "ewss", "--j", "1"], "_build_state", ValueError),
        (["evolve", "--j", "2", "--tau", "0.1"], "evolve", PropagationError),
        (["qpd", "--j", "1", "--kind", "ewss"], "qpd", ValueError),
        (["scan", "--j", "2", "--metric", "fid_ewss"], "scan_tau", PropagationError),
        (["fit", "--family", "shifted_power"], "fit", FitError),
        (["reproduce-paper", "--j-list", "5,10,20,50"], "run_reproduction", ValueError),
    ], ids=lambda value: value[0] if isinstance(value, list) else None)
    def test_every_command_fails_as_error_exit_1(self, tmp_path, monkeypatch, capsys,
                                                 args, work, exc):
        def failing(*args, **kwargs):
            raise exc("injected")

        monkeypatch.setattr(cli, work, failing)
        data = tmp_path / "data.csv"
        data.write_text("10,6.0\n20,11.0\n30,16.0\n")
        if args[0] == "fit":
            args = args + ["--data", str(data)]
        # the exit code a caller of main(..., standalone_mode=False) reads
        with pytest.raises(SystemExit) as info:
            main.main(args + ["--out", str(tmp_path)], standalone_mode=False)
        assert info.value.code == 1
        assert capsys.readouterr().err == "error: injected\n"


class TestSubcommandOnItsOwn:
    @pytest.mark.parametrize("command,args", [
        (cli.state, ["--kind", "ewss", "--j", "1"]),
        (cli.qpd_cmd, ["--j", "1", "--kind", "ewss", "--grid", "4x3"]),
        (cli.evolve_cmd, ["--j", "2", "--tau", "0.1"]),
        (cli.scan_cmd, ["--j", "2", "--metric", "fid_ewss", "--grid", "16"]),
        (cli.fit_cmd, ["--family", "shifted_power"]),
        (cli.reproduce_cmd, ["--j-list", "2,3,4", "--grid", "16"]),
    ], ids=lambda value: value.name if isinstance(value, click.Command) else None)
    def test_writes_the_files_main_writes(self, runner, tmp_path, command, args):
        # invoked without main there is no config: the flags and built-in defaults resolve
        data = tmp_path / "data.csv"
        data.write_text("10,6.0\n20,11.0\n30,16.0\n")
        if command is cli.fit_cmd:
            args = args + ["--data", str(data)]
        alone, through_main = tmp_path / "alone", tmp_path / "main"
        result = runner.invoke(command, args + ["--out", str(alone)])
        expected = runner.invoke(main, [command.name] + args + ["--out", str(through_main)])
        assert result.exception is None or isinstance(result.exception, SystemExit), result.output
        assert result.exit_code == expected.exit_code
        written = sorted(path.name for path in alone.iterdir())
        assert written and written == sorted(path.name for path in through_main.iterdir())
        for name in written:
            assert (alone / name).read_bytes() == (through_main / name).read_bytes(), name
