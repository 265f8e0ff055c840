import math

import numpy as np
import pytest

from tactsim import scan
from tactsim.reference import default_tau_max, reference_value
from tactsim.scan import ScanSpec, scan_tau, scaling_sweep


def test_j1_max_fluctuation_at_quarter_pi():
    spec = ScanSpec(j=1, metric="var_z_max", tau_min=0.0, tau_max=math.pi / 2,
                    n_grid=64, refine_tol=1e-8)
    res = scan_tau(spec)
    assert res.tau_star == pytest.approx(math.pi / 4, abs=1e-6)
    assert res.value_star == pytest.approx(1.0, abs=1e-8)


def test_deterministic_repeat():
    spec = ScanSpec.auto(4, "fid_ewss", n_grid=64)
    a = scan_tau(spec)
    b = scan_tau(spec)
    assert a.tau_star == b.tau_star
    assert a.value_star == b.value_star
    assert np.array_equal(a.grid_values, b.grid_values)


def test_refinement_beats_grid():
    res = scan_tau(ScanSpec.auto(5, "fid_ewss", n_grid=64))
    assert res.value_star >= res.grid_values.max() - 1e-12


def test_first_peak_preferred_on_ties():
    # post-rotation dJz of the J=1 protocol peaks equally at pi/4 and 5pi/4;
    # both land exactly on this grid, and the scan must take the earlier one
    spec = ScanSpec(j=1, metric="var_z_max", tau_min=0.0, tau_max=1.5 * math.pi,
                    n_grid=13, refine_tol=1e-9)
    res = scan_tau(spec)
    assert res.tau_star == pytest.approx(math.pi / 4, abs=1e-4)


def test_minimizing_metric():
    res = scan_tau(ScanSpec.auto(10, "var_y_min", n_grid=128))
    assert res.value_star <= res.grid_values.min() + 1e-12
    assert res.value_star < math.sqrt(10 / 2)  # squeezed below the CSS level


def test_spec_validation():
    with pytest.raises(ValueError, match="integer"):
        ScanSpec(j=2.5, metric="fid_tfs", tau_min=0.0, tau_max=1.0)
    with pytest.raises(ValueError, match="tau_min"):
        ScanSpec(j=2, metric="fid_ewss", tau_min=1.0, tau_max=0.5)
    with pytest.raises(ValueError, match="n_grid"):
        ScanSpec(j=2, metric="fid_ewss", tau_min=0.0, tau_max=1.0, n_grid=4)
    with pytest.raises(ValueError, match="metric"):
        ScanSpec(j=2, metric="squeeze", tau_min=0.0, tau_max=1.0)


def test_auto_window_contains_reference_times():
    for j in (5, 50, 400):
        tau_max = default_tau_max(j)
        assert reference_value("tau_ewss", j) < tau_max
        assert reference_value("tau_tfs", j) < tau_max
        assert reference_value("tau_dz_max", j) < tau_max


def test_sweep_rows_complete_and_ordered():
    rows = scaling_sweep([3, 5], ["var_z_max", "fid_ewss"], n_grid=64)
    assert [(r.j, r.metric) for r in rows] == [
        (3, "var_z_max"), (3, "fid_ewss"), (5, "var_z_max"), (5, "fid_ewss")]
    assert all(r.status == "ok" for r in rows)


def test_sweep_value_increases_with_j():
    rows = scaling_sweep([10, 20, 50], ["var_z_max"], n_grid=256)
    values = [r.value_star for r in rows]
    assert values[0] < values[1] < values[2]


def test_sweep_records_failures_without_stopping():
    rows = scaling_sweep([2.5], ["fid_tfs", "var_z_max"], n_grid=64)
    assert rows[0].status == "failed"
    assert "integer" in rows[0].error
    assert rows[1].status == "ok"


def test_sweep_failed_row_names_exception_type():
    rows = scaling_sweep([2.5], ["fid_tfs"], n_grid=64)
    assert rows[0].error.startswith("ValueError: ")


def test_sweep_reraises_programming_errors(monkeypatch):
    def broken(spec, cfg):
        raise TypeError("bug in a metric")

    monkeypatch.setattr(scan, "scan_tau", broken)
    with pytest.raises(TypeError, match="bug in a metric"):
        scaling_sweep([3], ["fid_ewss"], n_grid=64)


def test_sweep_parallel_matches_serial():
    serial = scaling_sweep([3, 4], ["fid_ewss"], n_grid=64, workers=1)
    parallel = scaling_sweep([3, 4], ["fid_ewss"], n_grid=64, workers=2)
    for a, b in zip(serial, parallel):
        assert a.tau_star == b.tau_star
        assert a.value_star == b.value_star


def test_maximal_fidelity_decreases_with_j(scan_cache):
    values = [scan_cache(j, "fid_tfs").value_star for j in (10, 20, 50)]
    assert 1.0 > values[0] > values[1] > values[2]


def test_sweep_j1_reproduces_closed_form():
    rows = scaling_sweep([1], ["var_z_max"], n_grid=256)
    assert rows[0].tau_star == pytest.approx(math.pi / 4, abs=1e-4)
    assert rows[0].value_star == pytest.approx(1.0, abs=1e-8)


def test_j50_max_fluctuation_matches_reference(scan_cache):
    got = scan_cache(50, "var_z_max").value_star
    assert got == pytest.approx(0.799 * (50 + 0.453), rel=0.02)
