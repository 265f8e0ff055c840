import dataclasses
import math

import numpy as np
import pytest

from tactsim import dynamics, scan
from tactsim.dynamics import PropagationError, PropagatorConfig, make_sss
from tactsim.observables import fidelity, spin_moments
from tactsim.reference import default_tau_max, reference_value
from tactsim.scan import ScanSpec, scan_tau, scaling_sweep
from tactsim.states import make_ewss, make_twin_fock


def test_j1_max_fluctuation_at_quarter_pi():
    spec = ScanSpec(j=1, metric="var_z_max", tau_min=0.0, tau_max=math.pi / 2,
                    n_grid=64, refine_tol=1e-8)
    res = scan_tau(spec)
    assert res.tau_star == pytest.approx(math.pi / 4, abs=1e-6)
    assert res.value_star == pytest.approx(1.0, abs=1e-8)


def test_j1_min_fluctuation_reaches_zero_at_quarter_pi():
    # dJy of the J=1 protocol vanishes exactly at pi/4, so the optimum is
    # round-off on both the grid and the single-state path
    res = scan_tau(ScanSpec.auto(1, "var_y_min"))
    assert res.tau_star == pytest.approx(math.pi / 4, abs=1e-6)
    assert 0.0 <= res.value_star <= 1e-6


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


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("name", ["tau_max", "refine_tol"])
def test_non_finite_spec_named(name, value):
    record = ScanSpec(j=2, metric="fid_ewss", tau_min=0.0, tau_max=1.0).to_json_dict()
    record[name] = value
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ScanSpec(**record)
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ScanSpec.from_json_dict(record)


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


# Each metric evaluated one state at a time, independently of scan.METRICS.
PER_STATE = {
    "fid_ewss": lambda j, s: fidelity(make_ewss(j), s),
    "fid_tfs": lambda j, s: fidelity(make_twin_fock(j), s),
    "var_z_max": lambda j, s: math.sqrt(spin_moments(s).variance_z),
    "var_y_min": lambda j, s: math.sqrt(spin_moments(s).variance_y),
}


@pytest.mark.parametrize("j,metric", [
    (j, metric) for j in (0.5, 1, 3, 10, 50) for metric in sorted(PER_STATE)
    if not (metric == "fid_tfs" and j == 0.5)])  # twin-Fock needs integer J
def test_grid_values_match_per_state_path(j, metric):
    res = scan_tau(ScanSpec.auto(j, metric, n_grid=64))
    expect = [PER_STATE[metric](j, make_sss(j, tau)) for tau in res.grid_taus]
    np.testing.assert_allclose(res.grid_values, expect, rtol=1e-12, atol=0)


@pytest.mark.parametrize("method", ["dense_expm", "krylov"])
@pytest.mark.parametrize("metric", sorted(PER_STATE))
def test_oracle_methods_find_the_same_optimum(metric, method):
    spec = ScanSpec.auto(10, metric, n_grid=128)
    auto = scan_tau(spec)
    oracle = scan_tau(spec, PropagatorConfig(method))
    assert abs(oracle.tau_star - auto.tau_star) <= spec.refine_tol
    np.testing.assert_allclose(oracle.grid_values, auto.grid_values, rtol=1e-9)


def test_scan_takes_one_eigensolve_and_no_per_tau_propagation(monkeypatch):
    dynamics._cached_eigensystem.cache_clear()
    dynamics._rotation_matrix(50, "y", math.pi / 2)  # the protocol rotation, warm
    before = dynamics._cached_eigensystem.cache_info().misses
    taus = []
    evolve = dynamics.evolve

    def counted(state, generator, tau, *args):
        taus.append(tau)
        return evolve(state, generator, tau, *args)

    monkeypatch.setattr(dynamics, "evolve", counted)
    res = scan_tau(ScanSpec.auto(50, "var_z_max"))
    assert dynamics._cached_eigensystem.cache_info().misses - before <= 1
    assert taus == [res.tau_star]  # the single-state cross-check only


def test_optimum_disagreeing_with_single_state_path_raises(monkeypatch):
    monkeypatch.setattr(scan, "squeezed_state",
                        lambda j, tau, cfg: make_sss(j, 1.01 * tau, cfg=cfg))
    with pytest.raises(PropagationError, match="single-state"):
        scan_tau(ScanSpec.auto(10, "fid_tfs", n_grid=64))


@pytest.mark.parametrize("metric", sorted(PER_STATE))
def test_small_disagreement_beyond_round_off_raises(monkeypatch, metric):
    # 1e-9 relative is ten times the cross-check bound and far above its
    # round-off allowance at J=50
    drift = 1.0 + 1e-9
    monkeypatch.setattr(scan, "fidelity", lambda target, state: drift * fidelity(target, state))
    monkeypatch.setattr(scan, "spin_moments", lambda state: dataclasses.replace(
        spin_moments(state), variance_z=drift**2 * spin_moments(state).variance_z,
        variance_y=drift**2 * spin_moments(state).variance_y))
    with pytest.raises(PropagationError, match="single-state"):
        scan_tau(ScanSpec.auto(50, metric, n_grid=128))
