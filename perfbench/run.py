"""tactsim benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload state_analysis --seed 1 --seconds 42 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 42 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Every pass runs in a fresh interpreter (``worker.py``), so the package's
process-wide caches start empty, as they do for each CLI run.  Passes
repeat until ``--seconds`` is used up; the run reports medians over them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced passes and prints the per-layer metrics, including
the tracing overhead.  Outputs are checked against the recordings in
``reference/``; inputs without a recording get invariant checks only.

The last line of stdout is the result as JSON; the line before it holds
the environment, the verification label and the raw samples.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, check_pass, load_reference, make_inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
WORK_DIR = ROOT / ".perfbench_work"

SETUP_PROBES = 3
SETUP_TIMEOUT_S = 60
PASS_TIMEOUT_S = 150

UNITS = {"setup_s": "s", "wall_s": "s", "request_p90_ms": "ms",
         "peak_rss_mb": "MB", "ok_ratio": "ratio"}


class BenchError(Exception):
    """The benchmark itself cannot run here (not a failed operation)."""


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment():
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(),
        "loadavg_start": list(os.getloadavg()),
    }


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory under WORK_DIR, removed with WORK_DIR once empty."""
    WORK_DIR.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it


def setup_probe():
    """Seconds from spawning an interpreter until ``import tactsim`` ends."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(WORKER), "--setup-only"],
                          capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"cannot import tactsim from {ROOT / 'src'}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["imported_at"] - t0


def run_pass(workload, inputs, traced, workdir):
    """One pass in a fresh interpreter; returns the worker's result dict."""
    job = json.dumps({"workload": workload, "inputs": inputs, "trace": traced,
                      "workdir": str(workdir)})
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(WORKER)], input=job,
                          capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result.pop("imported_at") - t0
    result["process_s"] = time.monotonic() - t0
    result["traced"] = traced
    return result


def _quantile(samples, q):
    """Inclusive-method quantile; q in tenths, 0.1 to 0.9."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[round(q * 10) - 1]


def run_workload(workload, seed, seconds, trace, scale="full", reference="recorded"):
    """Measure one workload; returns (result line, detail line) as dicts.

    ``reference`` is "recorded" to use the files in ``reference/``, None
    for invariant checks only, or a reference record to compare with.
    """
    if not (ROOT / "src" / "tactsim").is_dir():
        raise BenchError(f"no tactsim sources under {ROOT / 'src'}")
    inputs = make_inputs(workload, seed, scale)
    if reference == "recorded":
        reference = load_reference(workload, scale, inputs)
    env = environment()
    started = time.monotonic()
    with scratch_dir() as workdir:
        setup = [] if trace else [setup_probe() for _ in range(SETUP_PROBES)]
        passes = []
        while True:
            # A traced run alternates traced and untraced passes, and makes
            # at least one of each so that the overhead can be stated.
            passes.append(run_pass(workload, inputs, trace and len(passes) % 2 == 0, workdir))
            elapsed = time.monotonic() - started
            typical = statistics.median(p["process_s"] for p in passes)
            if elapsed + typical > seconds and not (trace and len(passes) < 2):
                break
    env["loadavg_end"] = list(os.getloadavg())
    env.update(passes[0]["versions"])

    reasons = [r for p in passes for r in check_pass(workload, p["outputs"], reference)]
    failures = [r for r in reasons if r is not None]
    attempted, failed = len(reasons), len(failures)

    walls = [p["wall_s"] for p in passes if not p["traced"]]
    request_p50_ms = None
    if trace:
        traced = [p for p in passes if p["traced"]]
        metrics = {name: statistics.median(p["layers"][name] for p in traced)
                   for name in traced[0]["layers"]}
        metrics["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced)
        metrics["trace.untraced_wall_s"] = statistics.median(walls)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        units = {name: _layer_unit(name) for name in metrics}
    else:
        setup += [p["setup_s"] for p in passes]
        # Every pass repeats the same requests.  A request's latency is its
        # median over the passes, which damps the per-call jitter of BLAS
        # threads waking up; the percentiles are taken over the requests.
        per_request = [statistics.median(ms) for ms in zip(*(p["latencies_ms"] for p in passes))]
        request_p50_ms = _quantile(per_request, 0.5)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "request_p90_ms": _quantile(per_request, 0.9),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
            "ok_ratio": 1.0 - failed / attempted,
        }
        units = UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    detail = {
        "workload": workload, "seed": seed, "scale": scale, "trace": bool(trace),
        "verification": "verified" if reference is not None else "unverified",
        "fail_ratio": f"{failed}/{attempted}",
        "first_failures": failures[:5],
        "passes": len(passes),
        # too unsteady on a shared 2-CPU host to gate on; see README
        "request_p50_ms": request_p50_ms,
        "samples": {"setup_s": setup,
                    "wall_s": [p["wall_s"] for p in passes],
                    "traced": [p["traced"] for p in passes]},
        "environment": env,
    }
    return result, detail


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long run for the self-test")
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        runs = {name: run_workload(name, args.seed, args.seconds, bool(args.trace),
                                   args.scale) for name in names}
    except (BenchError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload != "all":
        result, detail = runs[args.workload]
        print(json.dumps(detail))
        print(json.dumps(result))
        return 0
    for name, (result, detail) in runs.items():
        print(json.dumps(detail))
        for metric, m in result["metrics"].items():
            print(f"{name:<15} {metric:<34} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r, _ in runs.values()),
        "attempted": sum(r["attempted"] for r, _ in runs.values()),
        "failed": sum(r["failed"] for r, _ in runs.values()),
        "metrics": {f"{name}.{metric}": m for name, (r, _) in runs.items()
                    for metric, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
