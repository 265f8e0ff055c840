"""The reproduction's pass/fail checks and ordering notes, driven by hand-made
series and fit rows so that every check is seen to pass, fail and skip."""

import pytest

from tactsim.fitting import FitModel, FitResult
from tactsim.reference import REFERENCE_LAWS, reference_value
from tactsim.reproduce import FitRow, _ordering_notes, _run_checks

WIDE_JS = [20.0, 30.0, 50.0, 100.0, 200.0]
BAND_KEYS = ("dz_max", "dz_at_tau_tfs", "dz_at_tau_ewss")
TAU_LAWS = {"tau_fid_ewss": "tau_ewss", "tau_fid_tfs": "tau_tfs",
            "tau_var_z_max": "tau_dz_max"}


def _good_entry(j):
    """A series entry on which every check passes: the optimal times on the
    reference laws and fidelities inside their windows."""
    entry = {"j": j}
    for column, law in TAU_LAWS.items():
        entry[column] = reference_value(law, j)
    entry["value_fid_tfs"] = reference_value("fid_tfs_max", j)
    entry["value_fid_ewss"] = 0.99
    return entry


def _fit_row(key, params=None):
    """A fit row for one law, fitted to params (default: the published ones)."""
    law = REFERENCE_LAWS[key]
    params = law.model.params if params is None else params
    fitted = FitResult(model=FitModel(law.model.family, params), rss=0.0,
                       param_se=(0.0,) * len(params), n_points=5, iterations=3,
                       converged=True)
    return FitRow(key=key, family=law.model.family, fitted=fitted,
                  published=law.model.params, stated_range=law.stated_range)


def _checks(series, fit_rows=(), j_list=None):
    j_list = [e["j"] for e in series] if j_list is None else j_list
    return {c.name: c for c in _run_checks(j_list, series, list(fit_rows))}


def _statuses(series, fit_rows=(), j_list=None):
    return {name: c.status for name, c in _checks(series, fit_rows, j_list).items()}


ALL_CHECKS = ("twin_fock_fidelity_value_j50", "ewss_fidelity_value_j50",
              "tau_within_5pct_j20", "tau_within_5pct_j50", "tau_within_5pct_j100",
              "ordering_tau_ewss_before_tau_tfs") + tuple(
                  f"coefficient_band_{key}" for key in BAND_KEYS)


class TestAllChecks:
    def test_every_check_passes_on_the_reference_values(self):
        series = [_good_entry(j) for j in WIDE_JS]
        got = _statuses(series, [_fit_row(key) for key in BAND_KEYS])
        assert list(got) == list(ALL_CHECKS)
        assert set(got.values()) == {"pass"}

    def test_an_empty_sweep_skips_every_check(self):
        got = _statuses([], j_list=[])
        assert list(got) == list(ALL_CHECKS)
        assert set(got.values()) == {"skipped"}


class TestFidelityValuesAtJ50:
    @pytest.mark.parametrize("name, column, good, bad", [
        ("twin_fock_fidelity_value_j50", "value_fid_tfs",
         reference_value("fid_tfs_max", 50) + 0.009, reference_value("fid_tfs_max", 50) - 0.011),
        ("ewss_fidelity_value_j50", "value_fid_ewss", 0.981, 0.98),
    ])
    def test_pass_fail_skip(self, name, column, good, bad):
        entry = _good_entry(50.0)
        entry[column] = good
        assert _statuses([entry])[name] == "pass"
        entry[column] = bad
        check = _checks([entry])[name]
        assert check.status == "fail"
        assert f"F = {bad:.6f}" in check.detail
        del entry[column]
        assert _statuses([entry])[name] == "skipped"
        assert _statuses([_good_entry(20.0)])[name] == "skipped"

    def test_ewss_window_is_open_at_one(self):
        entry = _good_entry(50.0)
        entry["value_fid_ewss"] = 1.0
        assert _statuses([entry])["ewss_fidelity_value_j50"] == "fail"

    def test_details(self):
        checks = _checks([_good_entry(50.0)])
        target = reference_value("fid_tfs_max", 50)
        assert checks["twin_fock_fidelity_value_j50"].detail == (
            f"F = {target:.6f}, reference {target:.6f}, tol 0.01")
        assert checks["ewss_fidelity_value_j50"].detail == (
            "F = 0.990000, required within (0.98, 1.0)")


class TestOptimalTimes:
    @pytest.mark.parametrize("j", [20.0, 50.0, 100.0])
    @pytest.mark.parametrize("column", list(TAU_LAWS))
    def test_worst_law_decides(self, j, column):
        name = f"tau_within_5pct_j{j:g}"
        entry = _good_entry(j)
        entry[column] *= 1.04
        check = _checks([entry])[name]
        assert check.status == "pass"
        assert check.detail == f"largest deviation 4.00% ({TAU_LAWS[column]})"
        entry[column] *= 1.06 / 1.04
        check = _checks([entry])[name]
        assert check.status == "fail"
        assert check.detail == f"largest deviation 6.00% ({TAU_LAWS[column]})"

    def test_skipped_without_the_j_or_without_times(self):
        assert _statuses([_good_entry(30.0)])["tau_within_5pct_j20"] == "skipped"
        bare = {"j": 20.0, "value_fid_tfs": 0.9}
        check = _checks([bare])["tau_within_5pct_j20"]
        assert (check.status, check.detail) == ("skipped", "no completed time scans at this J")

    def test_a_missing_time_is_left_out(self):
        entry = _good_entry(50.0)
        del entry["tau_fid_ewss"], entry["tau_var_z_max"]
        entry["tau_fid_tfs"] *= 0.97
        check = _checks([entry])["tau_within_5pct_j50"]
        assert (check.status, check.detail) == ("pass", "largest deviation 3.00% (tau_tfs)")


class TestOrdering:
    NAME = "ordering_tau_ewss_before_tau_tfs"

    def test_pass(self):
        check = _checks([_good_entry(j) for j in WIDE_JS])[self.NAME]
        assert (check.status, check.detail) == ("pass", "tau_EWSS < tau_TFS at every J")

    @pytest.mark.parametrize("ratio", [1.0, 1.5])
    def test_equal_or_later_ewss_time_fails(self, ratio):
        series = [_good_entry(j) for j in (20.0, 50.0)]
        series[1]["tau_fid_ewss"] = ratio * series[1]["tau_fid_tfs"]
        check = _checks(series)[self.NAME]
        assert (check.status, check.detail) == ("fail", "violated at J=[50.0]")

    def test_an_entry_missing_a_time_is_not_judged(self):
        entry = _good_entry(20.0)
        entry["tau_fid_ewss"] = 2 * entry["tau_fid_tfs"]
        del entry["tau_fid_tfs"]
        assert _statuses([entry, _good_entry(50.0)])[self.NAME] == "pass"

    def test_skipped_when_no_j_has_both_times(self):
        entry = _good_entry(20.0)
        del entry["tau_fid_tfs"]
        check = _checks([entry, {"j": 50.0, "tau_fid_tfs": 0.1}])[self.NAME]
        assert (check.status, check.detail) == ("skipped", "no J has both fidelity times")


class TestCoefficientBands:
    @pytest.mark.parametrize("key", BAND_KEYS)
    def test_prefactor_band(self, key):
        a, b, c = REFERENCE_LAWS[key].model.params
        band = {"dz_max": 0.03, "dz_at_tau_tfs": 0.03, "dz_at_tau_ewss": 0.10}[key]
        series = [_good_entry(j) for j in WIDE_JS]
        inside = _checks(series, [_fit_row(key, (a * (1 + 0.9 * band), b, c))])
        assert inside[f"coefficient_band_{key}"].status == "pass"
        outside = _checks(series, [_fit_row(key, (a * (1 + 1.1 * band), b, c))])
        check = outside[f"coefficient_band_{key}"]
        assert check.status == "fail"
        assert check.detail.startswith(f"prefactor {a * (1 + 1.1 * band):.4f} vs {a} ")

    @pytest.mark.parametrize("key", BAND_KEYS)
    def test_exponent_band(self, key):
        a, b, _ = REFERENCE_LAWS[key].model.params
        series = [_good_entry(j) for j in WIDE_JS]
        assert _statuses(series, [_fit_row(key, (a, b, 0.96))])[
            f"coefficient_band_{key}"] == "pass"
        check = _checks(series, [_fit_row(key, (a, b, 1.06))])[f"coefficient_band_{key}"]
        assert check.status == "fail"
        assert check.detail.endswith("exponent 1.0600 (band 1.00 +- 0.05)")

    @pytest.mark.parametrize("key", BAND_KEYS)
    def test_missing_or_failed_fit_fails(self, key):
        series = [_good_entry(j) for j in WIDE_JS]
        check = _checks(series)[f"coefficient_band_{key}"]
        assert (check.status, check.detail) == ("fail", "fit unavailable")
        failed = FitRow(key=key, family="shifted_power", status="failed", error="x")
        assert _statuses(series, [failed])[f"coefficient_band_{key}"] == "fail"

    @pytest.mark.parametrize("j_list", [
        [20.0, 30.0, 50.0],  # too few points
        [40.0, 50.0, 100.0, 200.0],  # starts above 30
        [20.0, 30.0, 50.0, 90.0, 300.0],  # nothing in [100, 200]
    ])
    def test_skipped_unless_the_sweep_spans_20_to_200(self, j_list):
        series = [_good_entry(j) for j in j_list]
        got = _checks(series, [_fit_row(key) for key in BAND_KEYS])
        for key in BAND_KEYS:
            check = got[f"coefficient_band_{key}"]
            assert (check.status, check.detail) == (
                "skipped", "needs >= 4 sweep points spanning J = 20..200")


class TestOrderingNotes:
    def test_both_orders_of_both_pairs(self):
        series = [
            {"j": 5.0, "tau_var_z_max": 0.1, "tau_fid_tfs": 0.2,
             "tau_var_y_min": 0.3, "tau_fid_ewss": 0.3},
            {"j": 10.0, "tau_var_z_max": 0.25, "tau_fid_tfs": 0.2,
             "tau_var_y_min": 0.01, "tau_fid_ewss": 0.02},
        ]
        assert _ordering_notes(series) == [
            "J=5: tau(max dJz) < tau(TFS) (0.1 vs 0.2); recorded, not asserted",
            "J=5: tau(min dJy) >= tau(EWSS) (0.3 vs 0.3); recorded, not asserted",
            "J=10: tau(max dJz) >= tau(TFS) (0.25 vs 0.2); recorded, not asserted",
            "J=10: tau(min dJy) < tau(EWSS) (0.01 vs 0.02); recorded, not asserted",
        ]

    def test_missing_columns_give_no_note(self):
        series = [
            {"j": 5.0, "tau_var_z_max": 0.1, "tau_fid_ewss": 0.2},
            {"j": 10.0, "tau_fid_tfs": 0.1, "tau_var_y_min": 0.2},
            {"j": 20.0, "tau_var_y_min": 0.3, "tau_fid_ewss": 0.2},
        ]
        assert _ordering_notes(series) == [
            "J=20: tau(min dJy) >= tau(EWSS) (0.3 vs 0.2); recorded, not asserted"]
        assert _ordering_notes([]) == []
