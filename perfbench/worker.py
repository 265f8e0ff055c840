"""One pass of a benchmark workload, in a fresh interpreter.

Run by ``run.py``; not meant to be called by hand.  tactsim is imported
before anything else, so the monotonic clock reading taken right after the
import ends the set-up interval that ``run.py`` started before spawning
this process.

    python3 perfbench/worker.py --setup-only   # print the import time only
    python3 perfbench/worker.py < job.json     # run one pass

The job (JSON on stdin) names the workload, its inputs, whether to trace,
and a scratch directory inside the checkout.  The last line of stdout is
the pass result as JSON.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
import tactsim  # noqa: E402,F401

IMPORTED_AT = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from tactsim import cli, dynamics, observables, scan, states  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import QPD_PROFILE_BINS  # noqa: E402


def desk_reproduce(inputs, workdir):
    """The CLI command through its click entry point; one operation."""
    out_dir = tempfile.mkdtemp(dir=workdir)
    t0 = perf_counter()
    try:
        cli.main(inputs["argv"] + ["--out", out_dir], prog_name="tactsim",
                 standalone_mode=False)
        exit_code = 0
    except SystemExit as exc:
        exit_code = exc.code or 0
    except Exception as exc:  # the operation failed; the pass goes on
        wall = perf_counter() - t0
        return wall, [wall], [{"error": f"{type(exc).__name__}: {exc}"}]
    wall = perf_counter() - t0
    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)
    output = {
        "exit_code": exit_code,
        "checks": {c["name"]: c["status"] for c in report["checks"]},
        "sweep_status": [row["status"] for row in report["sweep"]],
        "fits": {row["key"]: list(row["fit"]["params"].values()) if "fit" in row else None
                 for row in report["fits"]},
    }
    return wall, [wall], [output]


def krylov_sweep(inputs, workdir):
    """One scaling_sweep call; each sweep row is one operation."""
    pairs = [(j, m) for j in inputs["j_list"] for m in inputs["metrics"]]
    t0 = perf_counter()
    try:
        rows = scan.scaling_sweep(inputs["j_list"], inputs["metrics"],
                                  n_grid=inputs["n_grid"])
    except Exception as exc:  # the operation failed; the pass goes on
        wall = perf_counter() - t0
        error = f"{type(exc).__name__}: {exc}"
        return wall, [wall], [{"j": j, "metric": m, "error": error} for j, m in pairs]
    wall = perf_counter() - t0
    outputs = [{"j": row.j, "metric": row.metric, "status": row.status,
                "tau_star": row.tau_star, "value_star": row.value_star,
                "refine_tol": row.refine_tol, "row_error": row.error}
               for row in rows]
    return wall, [wall], outputs


def _profile(values, bins):
    return [float(v) for v in values.reshape(bins, -1).sum(axis=1)]


def state_analysis(inputs, workdir):
    """Independent single-state requests; each request is one operation."""
    params = observables.FieldEstimationParams(gamma_s=inputs["gamma_s"], t=inputs["t"])
    n_phi, n_theta = inputs["n_phi"], inputs["n_theta"]
    latencies, outputs = [], []
    t_pass = perf_counter()
    for j, tau in inputs["requests"]:
        t0 = perf_counter()
        try:
            state = dynamics.make_sss(j, tau)
            prob = observables.prob_distribution(state)
            moments = observables.spin_moments(state)
            fid_ewss = observables.fidelity(states.make_ewss(j), state)
            fid_tfs = observables.fidelity(states.make_twin_fock(j), state)
            bound = observables.fisher_bound(moments.variance_z, params)
            grid = observables.qpd(state, n_phi, n_theta)
        except Exception as exc:  # the operation failed; the pass goes on
            latencies.append(perf_counter() - t0)
            outputs.append({"j": j, "tau": tau, "error": f"{type(exc).__name__}: {exc}"})
            continue
        latencies.append(perf_counter() - t0)
        values = grid.values
        outputs.append({
            "j": j, "tau": tau,
            "norm": float(np.linalg.norm(state.amplitudes)),
            "prob_sum": float(prob.sum()),
            "variance_z": moments.variance_z,
            "fid_ewss": fid_ewss, "fid_tfs": fid_tfs,
            "fisher_upper": bound.fisher_upper,
            "qpd_total": float(values.sum()),
            "qpd_min": float(values.min()), "qpd_max": float(values.max()),
            "qpd_phi_profile": _profile(values.sum(axis=1), QPD_PROFILE_BINS),
            "qpd_theta_profile": _profile(values.sum(axis=0), QPD_PROFILE_BINS),
        })
    wall = perf_counter() - t_pass
    return wall, latencies, outputs


PASSES = {"desk_reproduce": desk_reproduce, "krylov_sweep": krylov_sweep,
          "state_analysis": state_analysis}


def _versions():
    import scipy

    def blas(config):
        dep = config.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
    }


def main():
    if "--setup-only" in sys.argv[1:]:
        print(json.dumps({"imported_at": IMPORTED_AT}))
        return
    job = json.load(sys.stdin)
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install()
    with contextlib.redirect_stdout(io.StringIO()):
        wall, latencies_s, outputs = PASSES[job["workload"]](job["inputs"], job["workdir"])
    result = {
        "imported_at": IMPORTED_AT,
        "wall_s": wall,
        "latencies_ms": [s * 1e3 for s in latencies_s],
        "outputs": outputs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": _versions(),
    }
    if tracer is not None:
        command_s = wall if job["workload"] == "desk_reproduce" else 0.0
        result["layers"] = layer_metrics(tracer.spans, wall, command_s)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
