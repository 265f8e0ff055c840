"""Self-test of the benchmark harness at tiny size.

    python3 -m pytest perfbench/tests -q

Checks that every workload runs and prints every metric declared in
BENCHMARK.json with its unit, that a wrong reference value is caught as a
failed operation, and that the benchmark refuses to run without the
package sources.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def _run_cli(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric_with_its_unit(workload, trace):
    proc = _run_cli(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                    "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    detail = json.loads(proc.stdout.splitlines()[-2])
    assert detail["verification"] == "unverified"
    assert {"numpy", "scipy", "numpy_blas", "nproc", "OMP_NUM_THREADS",
            "loadavg_start", "loadavg_end", "git_commit"} <= set(detail["environment"])


def _tiny_reference(workload):
    """The outputs of one tiny pass, shaped like a recorded reference."""
    inputs = make_inputs(workload, 1, "tiny")
    with run.scratch_dir() as workdir:
        result = run.run_pass(workload, inputs, False, workdir)
    return {"inputs": inputs, "outputs": result["outputs"]}


def _corrupt(workload, reference):
    first = reference["outputs"][0]
    if workload == "desk_reproduce":
        key = next(k for k, v in first["fits"].items() if v is not None)
        first["fits"][key][0] *= 1.0 + 1e-4
    elif workload == "krylov_sweep":
        first["value_star"] *= 1.0 + 1e-6
    else:
        first["qpd_theta_profile"][3] += 1e-6


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_reference_value_counts_as_failed_operation(workload):
    reference = _tiny_reference(workload)
    result, _ = run.run_workload(workload, 1, 1, False, "tiny", reference=reference)
    assert result["failed"] == 0 and result["metrics"]["ok_ratio"]["value"] == 1.0

    wrong = copy.deepcopy(reference)
    _corrupt(workload, wrong)
    result, detail = run.run_workload(workload, 1, 1, False, "tiny", reference=wrong)
    assert result["failed"] > 0 and not result["correct"]
    assert result["metrics"]["ok_ratio"]["value"] < 1.0
    assert detail["verification"] == "verified" and detail["first_failures"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = _run_cli(tmp_path, "--workload", "krylov_sweep", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_interaction_map_names_every_layer_metric():
    interactions = json.loads((BENCH_DIR / "interactions.json").read_text())
    assert list(interactions) == [m["name"] for m in BENCHMARK["per_layer"]]
    end_to_end = _declared("end_to_end")
    for entry in interactions.values():
        assert entry["why"]
        for target in entry["moves"]:
            assert target["workload"] in WORKLOADS and target["metric"] in end_to_end
