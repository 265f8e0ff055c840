"""Workload inputs and output verification for the tactsim benchmark.

Inputs are made here from the seed and the scale, never by the package:
the worker only hands them to tactsim.  Verification compares one pass's
outputs with the outputs recorded at the seed commit (see
``make_reference.py``); inputs without a recording (the tiny scale) get
invariant checks only and are labelled unverified.
"""

import json
import math
import random
from pathlib import Path

WORKLOADS = ("desk_reproduce", "krylov_sweep", "state_analysis")

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

SWEEP_METRICS = ("fid_ewss", "fid_tfs", "var_z_max", "var_y_min")

# Per-scale settings.  "full" is what the benchmark measures; "tiny" only
# exists so the harness self-test finishes in seconds.
SCALES = {
    "full": {
        "desk_argv": ["reproduce-paper", "--j-list", "5,10,20,50"],
        "krylov": {"j_list": [100], "metrics": list(SWEEP_METRICS), "n_grid": 128},
        "state_js": (10, 50, 100, 200, 400),
        "state_requests_per_j": 12,
        "qpd_grid": (360, 180),
    },
    "tiny": {
        "desk_argv": ["reproduce-paper", "--j-list", "2,3,4", "--grid", "16"],
        "krylov": {"j_list": [4], "metrics": list(SWEEP_METRICS), "n_grid": 16},
        "state_js": (2, 4),
        "state_requests_per_j": 2,
        "qpd_grid": (72, 36),
    },
}

# Published twin-Fock time law tau_TFS(J) = log(a J) / (b J).  Kept here so
# that the benchmark's inputs do not move when the package's tables do.
TAU_TFS_LAW = (25.2, 3.93)

# The QPD is checked through a digest: its total, its peak, and its phi and
# theta profiles summed into this many bins each.
QPD_PROFILE_BINS = 36

FIT_REL_TOL = 1e-6
VALUE_REL_TOL = 1e-9
QPD_ABS_TOL = 1e-9
NORM_TOL = 1e-10


def tau_tfs(j):
    a, b = TAU_TFS_LAW
    return math.log(a * j) / (b * j)


def make_inputs(workload, seed, scale="full"):
    """The inputs one pass of ``workload`` hands to the package."""
    cfg = SCALES[scale]
    if workload == "desk_reproduce":
        return {"argv": list(cfg["desk_argv"])}
    if workload == "krylov_sweep":
        return dict(cfg["krylov"])
    if workload == "state_analysis":
        # A fixed balanced set: the same number of requests per J, with taus
        # at the midpoints of equal slices of [0, 3 tau_TFS(J)].  The seed
        # sets their order.  Seeds then change neither how much work each J
        # gets nor the recorded outputs, so every seed is verified and the
        # run-to-run spread stays small.
        per_j = cfg["state_requests_per_j"]
        requests = [[j, (k + 0.5) * 3.0 * tau_tfs(j) / per_j]
                    for j in cfg["state_js"] for k in range(per_j)]
        random.Random(seed).shuffle(requests)
        n_phi, n_theta = cfg["qpd_grid"]
        return {"requests": requests, "n_phi": n_phi, "n_theta": n_theta,
                "gamma_s": 1.0, "t": 1.0}
    raise ValueError(f"unknown workload {workload!r}")


def reference_path(workload):
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload, scale, inputs):
    """The recorded outputs for these inputs, in their order, or None."""
    path = reference_path(workload)
    if scale != "full" or not path.is_file():
        return None
    record = json.loads(path.read_text())
    recorded = record["inputs"]
    if workload == "state_analysis":
        # seeds only reorder the requests; match outputs by request
        by_request = {(out["j"], out["tau"]): out for out in record["outputs"]}
        same = ({**recorded, "requests": None} == {**inputs, "requests": None}
                and sorted(map(tuple, inputs["requests"])) == sorted(by_request))
        outputs = [by_request.get((j, tau)) for j, tau in inputs["requests"]]
    else:
        same = recorded == inputs
        outputs = record["outputs"]
    if not same:
        raise ValueError(f"{path} was recorded for other inputs; "
                         "the input generator has changed")
    return {"inputs": inputs, "outputs": outputs}


def _rel_close(a, b, tol):
    return abs(a - b) <= tol * max(abs(a), abs(b))


def _max_abs_diff(a, b):
    if len(a) != len(b):
        return math.inf
    return max((abs(x - y) for x, y in zip(a, b)), default=0.0)


def _check_desk(out, ref):
    if out["exit_code"] is None:
        return "command did not finish"
    if ref is None:
        if out["exit_code"] != 0:
            return f"exit code {out['exit_code']}"
        bad = [s for s in out["sweep_status"] if s != "ok"]
        return f"sweep rows not ok: {bad}" if bad else None
    for key in ("exit_code", "checks", "sweep_status"):
        if out[key] != ref[key]:
            return f"{key} {out[key]!r} != reference {ref[key]!r}"
    if out["fits"].keys() != ref["fits"].keys():
        return "fitted law keys differ from the reference"
    for key, params in ref["fits"].items():
        got = out["fits"][key]
        if (got is None) != (params is None):
            return f"fit {key}: {got!r} vs reference {params!r}"
        if params is not None and (len(got) != len(params) or not all(
                _rel_close(g, p, FIT_REL_TOL) for g, p in zip(got, params))):
            return f"fit {key}: {got} vs reference {params}"
    return None


def _check_row(out, ref):
    if ref is None:
        if out["status"] != "ok":
            return f"row {out['metric']} failed: {out['row_error']}"
        return None
    if (out["j"], out["metric"], out["status"]) != (ref["j"], ref["metric"], ref["status"]):
        return f"row {out['metric']} status {out['status']} vs reference {ref['status']}"
    if ref["status"] != "ok":
        return None
    if not abs(out["tau_star"] - ref["tau_star"]) <= ref["refine_tol"]:
        return f"row {out['metric']}: tau_star {out['tau_star']!r} vs {ref['tau_star']!r}"
    if not _rel_close(out["value_star"], ref["value_star"], VALUE_REL_TOL):
        return f"row {out['metric']}: value_star {out['value_star']!r} vs {ref['value_star']!r}"
    return None


def _check_state(out, ref):
    """Invariants always; the recorded values when there is a recording."""
    if abs(out["norm"] - 1.0) > NORM_TOL:
        return f"norm {out['norm']!r}"
    if abs(out["prob_sum"] - 1.0) > NORM_TOL:
        return f"sum of P(M) {out['prob_sum']!r}"
    for key in ("fid_ewss", "fid_tfs"):
        if not 0.0 <= out[key] <= 1.0:
            return f"{key} {out[key]!r} outside [0, 1]"
    if not (0.0 <= out["qpd_min"] and out["qpd_max"] <= 1.0):
        return f"QPD outside [0, 1]: [{out['qpd_min']!r}, {out['qpd_max']!r}]"
    if ref is None:
        return None
    if [out["j"], out["tau"]] != [ref["j"], ref["tau"]]:
        return "request differs from the recorded one"
    for key in ("variance_z", "fid_ewss", "fid_tfs", "fisher_upper"):
        if not _rel_close(out[key], ref[key], VALUE_REL_TOL):
            return f"{key} {out[key]!r} vs reference {ref[key]!r}"
    for key in ("qpd_total", "qpd_max", "qpd_phi_profile", "qpd_theta_profile"):
        got, want = out[key], ref[key]
        diff = _max_abs_diff(got, want) if isinstance(want, list) else abs(got - want)
        if not diff <= QPD_ABS_TOL:
            return f"{key} differs from the reference by {diff:.3g}"
    return None


def check_pass(workload, outputs, reference):
    """One failure reason (or None) per attempted operation of a pass.

    ``outputs`` is the worker's list of per-operation records; an
    operation that raised carries an ``error`` entry and always fails.
    """
    refs = reference["outputs"] if reference is not None else [None] * len(outputs)
    if len(refs) != len(outputs):
        return [f"{len(outputs)} operations, reference has {len(refs)}"] * max(1, len(outputs))
    check = {"desk_reproduce": _check_desk, "krylov_sweep": _check_row,
             "state_analysis": _check_state}[workload]
    reasons = []
    for out, ref in zip(outputs, refs):
        if "error" in out:
            reasons.append(out["error"])
        else:
            reasons.append(check(out, ref))
    return reasons
