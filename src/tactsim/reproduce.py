"""End-to-end reproduction: sweep every metric over J, fit all eight
scaling laws, and compare the fitted coefficients against the published
reference values.

The hard pass/fail checks are the ones that are well conditioned at desk
scale: the fidelity values at J=50, the pointwise 5% agreement of the
optimal times with the reference laws at J in {20, 50, 100}, the ordering
tau_EWSS < tau_TFS, and the coefficient bands of the Jz-fluctuation laws.
Coefficients of the time laws themselves are reported with their
deviations but not gated: log(aJ)/(bJ) has a strong a-b ridge, so the
fitted a is not meaningful on a desk-scale J range even when the
pointwise agreement is well under a percent.
"""

import math
from dataclasses import dataclass, field

from .dynamics import DEFAULT_CONFIG, PropagatorConfig
from .fitting import FitError, FitResult, fit
from .observables import spin_moments
from .reference import REFERENCE_LAWS, reference_value
from .scan import scaling_sweep, squeezed_state

SWEEP_METRICS = ("fid_ewss", "fid_tfs", "var_z_max", "var_y_min")

# the series column that feeds each fitted law
LAW_SOURCES = {
    "fid_ewss_max": "value_fid_ewss",
    "fid_tfs_max": "value_fid_tfs",
    "dz_at_tau_ewss": "dz_at_tau_ewss",
    "dz_at_tau_tfs": "dz_at_tau_tfs",
    "dz_max": "value_var_z_max",
    "tau_ewss": "tau_fid_ewss",
    "tau_tfs": "tau_fid_tfs",
    "tau_dz_max": "tau_var_z_max",
}

TAU_CHECK_JS = (20, 50, 100)
TAU_CHECK_REL_TOL = 0.05
FID_TFS_VALUE_TOL = 0.01
DZ_BAND = {"dz_max": 0.03, "dz_at_tau_tfs": 0.03, "dz_at_tau_ewss": 0.10}
DZ_EXPONENT_BAND = 0.05


@dataclass
class FitRow:
    key: str
    family: str
    fitted: FitResult = None
    published: tuple = ()
    deviation: dict = field(default_factory=dict)
    j_range: str = ""
    stated_range: str = ""
    status: str = "ok"
    error: str = None

    def to_json_dict(self) -> dict:
        out = {
            "key": self.key,
            "family": self.family,
            "published_params": list(self.published),
            "stated_range": self.stated_range,
            "fitted_range": self.j_range,
            "status": self.status,
        }
        if self.fitted is not None:
            out["fit"] = self.fitted.to_json_dict()
            out["relative_deviation"] = self.deviation
        if self.error:
            out["error"] = self.error
        return out


@dataclass
class Check:
    name: str
    status: str  # "pass", "fail", or "skipped"
    detail: str

    def to_json_dict(self) -> dict:
        return {"name": self.name, "status": self.status, "detail": self.detail}


@dataclass
class ReproductionReport:
    j_list: list
    sweep_rows: list
    series: list  # per-j dict of derived quantities
    fit_rows: list
    checks: list
    notes: list

    @property
    def all_passed(self) -> bool:
        if any(row.status != "ok" for row in self.sweep_rows):
            return False
        return not any(c.status == "fail" for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "j_list": list(self.j_list),
            "sweep": [row.to_csv_dict() for row in self.sweep_rows],
            "series": self.series,
            "fits": [row.to_json_dict() for row in self.fit_rows],
            "checks": [c.to_json_dict() for c in self.checks],
            "notes": self.notes,
            "all_passed": self.all_passed,
        }

    def to_text(self) -> str:
        lines = ["reproduction report", "===================", ""]
        lines.append("fitted scaling laws (fitted vs published, relative deviation):")
        for row in self.fit_rows:
            if row.fitted is None:
                lines.append(f"  {row.key:<16} FAILED: {row.error}")
                continue
            fitted = ", ".join(f"{v:.4g}" for v in row.fitted.model.params)
            pub = ", ".join(f"{v:.4g}" for v in row.published)
            dev = ", ".join(f"{k}={v:+.2%}" for k, v in row.deviation.items())
            lines.append(f"  {row.key:<16} [{row.family}] fitted ({fitted}) "
                         f"vs published ({pub}) dev {dev} "
                         f"(fitted over {row.j_range}; stated {row.stated_range})")
        lines.append("")
        lines.append("checks:")
        for c in self.checks:
            lines.append(f"  [{c.status.upper():^7}] {c.name}: {c.detail}")
        lines.append("")
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append("")
        lines.append(f"overall: {'PASS' if self.all_passed else 'FAIL'}")
        return "\n".join(lines)


def _validate_j_list(j_list):
    j_list = [float(j) for j in j_list]
    if not j_list:
        raise ValueError("j_list must be nonempty")
    for j in j_list:
        if not math.isfinite(j) or abs(j - round(j)) > 1e-9 or j < 1:
            raise ValueError("j_list must contain finite positive integers "
                             f"(the twin-Fock metric needs integer J), got {j!r}")
    if any(b <= a for a, b in zip(j_list, j_list[1:])):
        raise ValueError("j_list must be strictly ascending")
    return j_list


def run_reproduction(j_list, cfg: PropagatorConfig = DEFAULT_CONFIG,
                     n_grid: int = 512) -> ReproductionReport:
    """Sweep, fit, compare, and check; every stage failure is recorded."""
    j_list = _validate_j_list(j_list)
    sweep_rows = scaling_sweep(j_list, SWEEP_METRICS, cfg=cfg, n_grid=n_grid)
    by_key = {(row.j, row.metric): row for row in sweep_rows}

    series = []
    for j in j_list:
        entry = {"j": j}
        for metric in SWEEP_METRICS:
            row = by_key[(j, metric)]
            if row.status != "ok":
                continue
            entry[f"tau_{metric}"] = row.tau_star
            entry[f"value_{metric}"] = row.value_star
        for metric, label in (("fid_ewss", "dz_at_tau_ewss"),
                              ("fid_tfs", "dz_at_tau_tfs")):
            row = by_key[(j, metric)]
            if row.status == "ok":
                state = squeezed_state(j, row.tau_star, cfg)
                entry[label] = math.sqrt(spin_moments(state).variance_z)
        series.append(entry)

    fit_rows = _fit_all_laws(series, j_list)
    checks = _run_checks(j_list, by_key, series, fit_rows, cfg)
    notes = _ordering_notes(series)
    return ReproductionReport(j_list=j_list, sweep_rows=sweep_rows,
                              series=series, fit_rows=fit_rows,
                              checks=checks, notes=notes)


def _fit_all_laws(series, j_list):
    rows = []
    for key, column in LAW_SOURCES.items():
        law = REFERENCE_LAWS[key]
        row = FitRow(key=key, family=law.model.family,
                     published=law.model.params, stated_range=law.stated_range)
        entries = [entry for entry in series if column in entry]
        jj, yy = [entry["j"] for entry in entries], [entry[column] for entry in entries]
        row.j_range = f"J in [{min(jj):g}, {max(jj):g}] ({len(jj)} points)" if jj else "no data"
        try:
            if len(jj) < 3:
                raise FitError("needs at least 3 sweep points")
            result = fit(law.model.family, list(zip(jj, yy)))
            row.fitted = result
            names = ("a", "b", "c")[: len(result.model.params)]
            row.deviation = {
                name: (fitted - pub) / pub if pub != 0 else math.inf
                for name, fitted, pub in zip(names, result.model.params, law.model.params)
            }
        except (FitError, ValueError) as exc:
            row.status = "failed"
            row.error = str(exc)
        rows.append(row)
    return rows


def _run_checks(j_list, by_key, series, fit_rows, cfg):
    checks = []
    entry_by_j = {e["j"]: e for e in series}

    # fidelity values at J=50
    if 50 in entry_by_j and "value_fid_tfs" in entry_by_j[50]:
        target = reference_value("fid_tfs_max", 50)
        got = entry_by_j[50]["value_fid_tfs"]
        ok = abs(got - target) <= FID_TFS_VALUE_TOL
        checks.append(Check(
            "twin_fock_fidelity_value_j50", "pass" if ok else "fail",
            f"F = {got:.6f}, reference {target:.6f}, tol {FID_TFS_VALUE_TOL}"))
    else:
        checks.append(Check("twin_fock_fidelity_value_j50", "skipped",
                            "needs J=50 in the sweep"))
    if 50 in entry_by_j and "value_fid_ewss" in entry_by_j[50]:
        got = entry_by_j[50]["value_fid_ewss"]
        ok = 0.98 < got < 1.0
        checks.append(Check(
            "ewss_fidelity_value_j50", "pass" if ok else "fail",
            f"F = {got:.6f}, required within (0.98, 1.0)"))
    else:
        checks.append(Check("ewss_fidelity_value_j50", "skipped",
                            "needs J=50 in the sweep"))

    # pointwise optimal times against the reference laws
    law_for_tau = {"fid_ewss": "tau_ewss", "fid_tfs": "tau_tfs",
                   "var_z_max": "tau_dz_max"}
    for j in TAU_CHECK_JS:
        if j not in entry_by_j:
            checks.append(Check(f"tau_within_5pct_j{j}", "skipped",
                                "J not in the sweep"))
            continue
        entry = entry_by_j[j]
        worst = None
        for metric, law_key in law_for_tau.items():
            tau_key = f"tau_{metric}"
            if tau_key not in entry:
                continue
            ref = reference_value(law_key, j)
            rel = abs(entry[tau_key] - ref) / ref
            if worst is None or rel > worst[1]:
                worst = (law_key, rel)
        if worst is None:
            checks.append(Check(f"tau_within_5pct_j{j}", "skipped",
                                "no completed time scans at this J"))
        else:
            ok = worst[1] <= TAU_CHECK_REL_TOL
            checks.append(Check(
                f"tau_within_5pct_j{j}", "pass" if ok else "fail",
                f"largest deviation {worst[1]:.2%} ({worst[0]})"))

    # ordering that holds empirically at every J
    bad = [e["j"] for e in series
           if "tau_fid_ewss" in e and "tau_fid_tfs" in e
           and not e["tau_fid_ewss"] < e["tau_fid_tfs"]]
    checks.append(Check(
        "ordering_tau_ewss_before_tau_tfs", "fail" if bad else "pass",
        f"violated at J={bad}" if bad else "tau_EWSS < tau_TFS at every J"))

    # fluctuation-law coefficient bands (meaningful once the sweep spans
    # the J range the bands were stated for)
    spanned = [j for j in j_list if 20 <= j <= 200]
    wide_enough = len(spanned) >= 4 and min(spanned) <= 30 and max(spanned) >= 100
    fits = {row.key: row for row in fit_rows}
    for key, band in DZ_BAND.items():
        row = fits.get(key)
        name = f"coefficient_band_{key}"
        if not wide_enough:
            checks.append(Check(name, "skipped",
                                "needs >= 4 sweep points spanning J = 20..200"))
            continue
        if row is None or row.fitted is None:
            checks.append(Check(name, "fail", "fit unavailable"))
            continue
        a_fit, _, c_fit = row.fitted.model.params
        a_pub = row.published[0]
        rel = abs(a_fit - a_pub) / a_pub
        exp_ok = abs(c_fit - 1.0) <= DZ_EXPONENT_BAND
        ok = rel <= band and exp_ok
        checks.append(Check(
            name, "pass" if ok else "fail",
            f"prefactor {a_fit:.4f} vs {a_pub} ({rel:.2%}, band {band:.0%}); "
            f"exponent {c_fit:.4f} (band 1.00 +- {DZ_EXPONENT_BAND})"))
    return checks


def _ordering_notes(series):
    notes = []
    for entry in series:
        j = entry["j"]
        if "tau_var_z_max" in entry and "tau_fid_tfs" in entry:
            order = "<" if entry["tau_var_z_max"] < entry["tau_fid_tfs"] else ">="
            notes.append(
                f"J={j:g}: tau(max dJz) {order} tau(TFS) "
                f"({entry['tau_var_z_max']:.6g} vs {entry['tau_fid_tfs']:.6g}); "
                "recorded, not asserted")
        if "tau_var_y_min" in entry and "tau_fid_ewss" in entry:
            order = "<" if entry["tau_var_y_min"] < entry["tau_fid_ewss"] else ">="
            notes.append(
                f"J={j:g}: tau(min dJy) {order} tau(EWSS) "
                f"({entry['tau_var_y_min']:.6g} vs {entry['tau_fid_ewss']:.6g}); "
                "recorded, not asserted")
    return notes
