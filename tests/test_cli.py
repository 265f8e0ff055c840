import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.special import gammaln

from tactsim.cli import main
from tactsim.states import SpinState


@pytest.fixture
def runner():
    return CliRunner()


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
        record = json.loads((tmp_path / "state_cat_j3.json").read_text())
        state = SpinState.from_json_dict(record)
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
        record = json.loads((tmp_path / "evolved_j2_tau0.3.json").read_text())
        state = SpinState.from_json_dict(record)  # re-validates the norm
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
        cfg.write_text("# defaults\ngrid = 12x6\nout = {}\n".format(tmp_path))
        result = runner.invoke(main, ["--config", str(cfg), "qpd", "--j", "1",
                                      "--kind", "ewss"])
        assert result.exit_code == 0
        record = json.loads((tmp_path / "qpd_ewss_j1.json").read_text())
        assert record["n_phi"] == 12
        assert record["n_theta"] == 6

    def test_cli_flag_overrides_config(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid = 12x6\n")
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
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# typo below\nmetod = krylov\n")
        result = runner.invoke(main, ["--config", str(cfg), "state",
                                      "--kind", "ewss", "--j", "1", "--out", str(tmp_path)])
        assert result.exit_code != 0
        assert f"{cfg}:2: unknown key 'metod'" in result.output
        assert not (tmp_path / "state_ewss_j1.json").exists()

    @pytest.mark.parametrize("line,args", [
        ("grid = abc", ["scan", "--j", "2", "--metric", "fid_ewss"]),
        ("grid = abc", ["qpd", "--j", "1", "--kind", "ewss"]),
        ("tol = tiny", ["evolve", "--j", "2", "--tau", "0.1"]),
        ("format = jsn", ["state", "--kind", "ewss", "--j", "1"]),
        ("method = krylv", ["state", "--kind", "ewss", "--j", "1"]),
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


class TestRoundTrips:
    def test_every_output_kind_regenerates_validated_objects(self, runner, tmp_path):
        from tactsim.fitting import FitResult
        from tactsim.observables import QpdGrid
        from tactsim.scan import ScanResult

        assert runner.invoke(main, ["state", "--kind", "sss", "--j", "4",
                                    "--tau", "0.1", "--out", str(tmp_path)]
                             ).exit_code == 0
        record = json.loads((tmp_path / "state_sss_j4_tau0.1.json").read_text())
        SpinState.from_json_dict(record)

        assert runner.invoke(main, ["qpd", "--j", "2", "--kind", "cat",
                                    "--grid", "8x5", "--out", str(tmp_path)]
                             ).exit_code == 0
        QpdGrid.from_json_dict(
            json.loads((tmp_path / "qpd_cat_j2.json").read_text()))

        assert runner.invoke(main, ["scan", "--j", "2", "--metric", "var_z_max",
                                    "--grid", "32", "--out", str(tmp_path)]
                             ).exit_code == 0
        ScanResult.from_json_dict(
            json.loads((tmp_path / "scan_var_z_max_j2.json").read_text()))

        data = tmp_path / "fitdata.csv"
        data.write_text("\n".join(f"{j},{0.4 * (j + 1.0)}"
                                  for j in range(5, 50, 5)) + "\n")
        assert runner.invoke(main, ["fit", "--family", "shifted_power",
                                    "--data", str(data), "--out", str(tmp_path)]
                             ).exit_code == 0
        FitResult.from_json_dict(
            json.loads((tmp_path / "fit_shifted_power.json").read_text()))


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

    @pytest.mark.parametrize("j_list", ["5,inf", "5,nan"])
    def test_rejects_non_finite_j(self, runner, tmp_path, j_list):
        result = runner.invoke(main, ["reproduce-paper", "--j-list", j_list,
                                      "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert "finite" in result.output
