import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import dense_expm_evolve, krylov_evolve
from tactsim import cli, dynamics, scan
from tactsim.dynamics import PropagationError, make_sss, rotate, tact_generator
from tactsim.observables import fidelity, spin_moments
from tactsim.operators import build_operator
from tactsim.reference import default_tau_max, reference_value
from tactsim.reproduce import run_reproduction
from tactsim.scan import ScanResult, ScanSpec, scan_tau, scaling_sweep
from tactsim.states import basis_state, make_ewss, make_twin_fock


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
    for n_grid in (8.5, 1e3):
        with pytest.raises(ValueError, match="n_grid must be an integer"):
            ScanSpec(j=2, metric="fid_ewss", tau_min=0.0, tau_max=1.0, n_grid=n_grid)
    with pytest.raises(ValueError, match="metric"):
        ScanSpec(j=2, metric="squeeze", tau_min=0.0, tau_max=1.0)


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("name", ["tau_max", "refine_tol"])
def test_non_finite_spec_named(name, value):
    record = dataclasses.asdict(ScanSpec(j=2, metric="fid_ewss", tau_min=0.0, tau_max=1.0))
    record[name] = value
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ScanSpec(**record)


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
    def broken(spec):
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
    (j, metric) for j in (0.5, 1, 3, 7.5, 10, 50, 100, 400) for metric in sorted(PER_STATE)
    if not (metric == "fid_tfs" and j != int(j))])  # twin-Fock needs integer J
def test_grid_values_match_per_state_path(j, metric):
    res = scan_tau(ScanSpec.auto(j, metric, n_grid=64))
    expect = [PER_STATE[metric](j, make_sss(j, tau)) for tau in res.grid_taus]
    np.testing.assert_allclose(res.grid_values, expect, rtol=1e-12, atol=0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(two_j=st.integers(1, 400), metric=st.sampled_from(sorted(PER_STATE)),
       fraction=st.floats(0.0, 1.0, exclude_max=True))
def test_scan_values_match_per_state_path_anywhere(two_j, metric, fraction):
    # the scan's values at the grid that starts at tau = fraction * tau_max
    j = two_j / 2
    assume(not (metric == "fid_tfs" and two_j % 2))
    tau_max = default_tau_max(j)
    res = scan_tau(ScanSpec(j=j, metric=metric, tau_min=fraction * tau_max,
                            tau_max=tau_max, n_grid=8))
    expect = np.array([PER_STATE[metric](j, make_sss(j, tau)) for tau in res.grid_taus])
    bound = 1e-12 * np.abs(expect) + 8 * np.finfo(float).eps * max(1.0, j)
    assert np.all(np.abs(res.grid_values - expect) <= bound)


@pytest.mark.parametrize("method", ["dense_expm", "krylov"])
@pytest.mark.parametrize("metric", sorted(PER_STATE))
def test_oracle_methods_find_the_same_optimum(metric, method):
    # the protocol state propagated by an oracle, rotated, scored one state
    # at a time: no part of it shares the scan's eigen-coefficients
    spec = ScanSpec.auto(10, metric, n_grid=128)
    res = scan_tau(spec)
    oracle_evolve = {"dense_expm": dense_expm_evolve, "krylov": krylov_evolve}[method]
    start, gen = basis_state(10, 10), tact_generator(10)

    def on_oracle(tau):
        return PER_STATE[metric](10, rotate(oracle_evolve(start, gen, tau), "y", math.pi / 2))

    np.testing.assert_allclose(res.grid_values, [on_oracle(t) for t in res.grid_taus],
                               rtol=1e-9)
    sign = scan.METRICS[metric][0]
    signed = sign * res.grid_values
    idx = int(np.nonzero(signed >= signed.max() - 1e-12)[0][0])
    lo, hi = res.grid_taus[max(idx - 1, 0)], res.grid_taus[min(idx + 1, spec.n_grid - 1)]
    tau = scan._golden_section(on_oracle, lo, hi, spec.refine_tol, sign)
    assert abs(tau - res.tau_star) <= spec.refine_tol


def _padded(j, modes):
    """The sector block modes (the even rows M = J, J - 2, ...) at full dimension."""
    full = np.zeros((round(2 * j) + 1, modes.shape[1]), dtype=complex)
    full[0::2] = modes
    return full


@pytest.mark.parametrize("make_target, j", [(make_ewss, 4), (make_ewss, 20.5), (make_ewss, 33.5),
                                             (make_ewss, 200), (make_twin_fock, 4),
                                             (make_twin_fock, 200)])
def test_bra_row_is_the_target_turned_back(make_target, j):
    # the sector row against the dense bra target^dag Delta on the zero-padded modes
    modes = scan._scan_basis(j, 0.0, default_tau_max(j), 8)[1]
    delta = dynamics._quarter_turn(round(2 * j), np.eye(round(2 * j) + 1))
    bra = np.conj(make_target(j).amplitudes) @ delta
    assert np.max(np.abs(scan._bra_row(make_target, j, modes) - bra @ _padded(j, modes))) <= 1e-14


@pytest.mark.parametrize("j", [4, 20.5, 33.5, 200])
def test_odd_rows_match_dense_operators(j):
    # the odd rows of Jx psi and Jy psi formed on the sector, against the dense
    # operators on the zero-padded modes, whose even rows they leave exactly zero
    modes = dynamics._twist_spectrum(j, 1.0, 0.0)[1]
    for axis, kind in enumerate(("Jx", "Jy")):
        full = build_operator(j, kind).to_dense() @ _padded(j, modes)
        assert not np.any(full[0::2])
        got = scan._odd_rows(axis, j, modes)
        assert got.shape == full[1::2].shape
        assert np.max(np.abs(got - full[1::2])) <= 1e-14 * j


@pytest.mark.parametrize("j", [2, 50, 400])
def test_twin_fock_bra_needs_no_turn(j):
    # R = exp(-i pi/2 Jy) fixes the twin-Fock state, the Jy = 0 eigenstate, so the
    # fid_tfs projection takes conj(TFS) as it is; Delta^T moves it by round-off only
    bra = np.conj(make_twin_fock(j).amplitudes)
    assert np.max(np.abs(dynamics._quarter_turn_t(2 * j, bra) - bra)) <= 1e-12
    modes = scan._scan_basis(j, 0.0, default_tau_max(j), 8)[1]
    assert np.array_equal(scan.METRICS["fid_tfs"][2](j, modes), bra[None, 0::2] @ modes)


@pytest.mark.parametrize("j", [20, 20.5])
def test_scans_and_requests_build_no_odd_block(j):
    # the twisted |J,J> fills the even columns of Delta, and the targets are
    # M-symmetric, so their odd fold is zero: Delta's odd block is never built
    dynamics._wigner_block.cache_clear()
    metrics = [m for m in scan.METRICS if m != "fid_tfs" or j == round(j)]
    rows = scaling_sweep([j], metrics, n_grid=32)
    assert [row.status for row in rows] == ["ok"] * len(metrics)
    make_sss(j, 0.3 * default_tau_max(j))
    info = dynamics._wigner_block.cache_info()
    assert info.currsize == 1
    dynamics._wigner_block(round(2 * j), 0)
    assert dynamics._wigner_block.cache_info().misses == info.misses


def test_scan_takes_one_eigensolve_and_no_per_tau_propagation(monkeypatch):
    dynamics._twist_spectrum.cache_clear()
    scan._scan_basis.cache_clear()
    dynamics._wigner_block(100, 0)  # the protocol rotation, warm
    solves, states, checked = [], [], []
    eigh, sss, unit_columns = dynamics._bipartite_eigh, scan.make_sss, dynamics._unit_columns

    def counted_eigh(mag):
        solves.append(len(mag) + 1)
        return eigh(mag)

    def counted_sss(j, tau):
        states.append(tau)
        return sss(j, tau)

    def counted_columns(out, what):
        checked.append(what)  # every propagation and rotation checks its norm here
        return unit_columns(out, what)

    monkeypatch.setattr(dynamics, "_bipartite_eigh", counted_eigh)
    monkeypatch.setattr(scan, "make_sss", counted_sss)
    monkeypatch.setattr(dynamics, "_unit_columns", counted_columns)
    res = scan_tau(ScanSpec.auto(50, "var_z_max"))
    assert solves == [51]  # the even sector of |J,J>, once
    assert states == [res.tau_star]  # the single-state cross-check only
    assert checked == ["propagated", "rotated"]


@pytest.mark.parametrize("metric", sorted(PER_STATE))
def test_eigenbasis_off_unit_norm_raises_once_per_scan(monkeypatch, metric):
    exact = dynamics._bipartite_eigh

    def scaled(mag):
        values, vectors = exact(mag)
        return values, vectors * (1 + 1e-8)

    monkeypatch.setattr(dynamics, "_bipartite_eigh", scaled)
    dynamics._twist_spectrum.cache_clear()
    scan._scan_basis.cache_clear()
    with pytest.raises(PropagationError, match="eigenbasis"):
        scan_tau(ScanSpec.auto(10, metric, n_grid=64))


@pytest.mark.parametrize("j", [50, 100])
def test_trimmed_window_fails_the_residual_check(monkeypatch, j):
    # a window that drops modes worth up to 1e-6 of |J,J> keeps |w| = 1 within
    # 1e-12 but misses e_0 by far more than 1e-10
    monkeypatch.setattr(dynamics, "_WINDOW_TAIL", 1e-6)
    dynamics._twist_spectrum.cache_clear()
    scan._scan_basis.cache_clear()
    with pytest.raises(PropagationError, match="eigenbasis"):
        make_sss(j, 0.1)
    with pytest.raises(PropagationError, match="eigenbasis"):
        scan_tau(ScanSpec.auto(j, "fid_tfs", n_grid=64))
    monkeypatch.undo()
    dynamics._twist_spectrum.cache_clear()
    make_sss(j, 0.1)


def test_optimum_disagreeing_with_single_state_path_raises(monkeypatch):
    monkeypatch.setattr(scan, "squeezed_state",
                        lambda j, tau: make_sss(j, 1.01 * tau))
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


def test_sweep_builds_one_scan_basis_per_j(monkeypatch):
    calls = []
    spectrum = scan._twist_spectrum

    def counted(j, chi, gamma):
        calls.append(j)
        return spectrum(j, chi, gamma)

    monkeypatch.setattr(scan, "_twist_spectrum", counted)
    scan._scan_basis.cache_clear()
    rows = scaling_sweep([5, 10], sorted(PER_STATE), n_grid=64)
    assert [row.status for row in rows] == ["ok"] * 8
    assert calls == [5, 10]


@pytest.mark.parametrize("j", [5, 50, 100])
def test_shared_basis_scans_equal_cold_scans_bitwise(j):
    scan._scan_basis.cache_clear()
    for row in scaling_sweep([j], sorted(PER_STATE)):
        scan._scan_basis.cache_clear()
        cold = scan_tau(row.result.spec)
        for name in ("grid_taus", "grid_values"):
            assert getattr(row.result, name).tobytes() == getattr(cold, name).tobytes()
        assert (row.result.tau_star, row.result.value_star) == (cold.tau_star, cold.value_star)


@pytest.mark.parametrize("j", [20, 20.5])
def test_scan_basis_holds_the_cached_modes(j):
    # no padded copy: the scan reads the twisted |J,J>'s cached sector block itself
    scan._scan_basis.cache_clear()
    assert scan._scan_basis(j, 0.0, 1.0, 16)[1] is dynamics._twist_spectrum(j, 1.0, 0.0)[1]


def test_scan_basis_is_read_only():
    spec = ScanSpec.auto(10, "fid_ewss", n_grid=64)
    arrays = scan._scan_basis(spec.j, spec.tau_min, spec.tau_max, spec.n_grid)
    assert len(arrays) == 4
    for arr in arrays:
        assert not arr.flags.writeable
    assert not scan_tau(spec).grid_taus.flags.writeable


@pytest.mark.parametrize("metric", sorted(PER_STATE))
def test_result_keeps_the_cross_checked_state(metric):
    res = scan_tau(ScanSpec.auto(20, metric, n_grid=64))
    expect = make_sss(20, res.tau_star)
    assert res.state.j == expect.j
    assert res.state.amplitudes.tobytes() == expect.amplitudes.tobytes()


def test_series_reads_dz_from_the_scan_state():
    report = run_reproduction([2, 3, 4], n_grid=64)
    rows = {(row.j, row.metric): row for row in report.sweep_rows}
    for entry in report.series:
        for metric, label in (("fid_ewss", "dz_at_tau_ewss"), ("fid_tfs", "dz_at_tau_tfs")):
            row = rows[(entry["j"], metric)]
            assert entry[label] == math.sqrt(spin_moments(row.result.state).variance_z)
            assert entry[label] == math.sqrt(
                spin_moments(make_sss(entry["j"], row.tau_star)).variance_z)


def test_state_is_not_serialized(tmp_path):
    res = scan_tau(ScanSpec.auto(3, "var_z_max", n_grid=16))
    assert res.state is not None
    cli._write_json(tmp_path / "scan.json", res)
    record = json.loads((tmp_path / "scan.json").read_text())
    assert list(record) == ["spec", "grid_taus", "grid_values", "tau_star", "value_star"]
    back = ScanResult(spec=ScanSpec(**record.pop("spec")), **record)
    assert back.state is None
    assert back.spec == res.spec
    assert (back.tau_star, back.value_star) == (res.tau_star, res.value_star)
    assert np.array_equal(back.grid_taus, res.grid_taus)
    assert np.array_equal(back.grid_values, res.grid_values)
