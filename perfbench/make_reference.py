"""Record the reference outputs that ``run.py`` verifies against.

    python3 perfbench/make_reference.py

Runs one untraced pass of each workload at full scale and writes
``reference/<workload>.json``.  Run it only on a commit whose outputs are
known to be right: every later run is judged against these files.  Seeds
only reorder the ``state_analysis`` requests, so one recording serves
every seed.
"""

import json
import sys

import run
from workloads import REFERENCE_DIR, WORKLOADS, check_pass, make_inputs, reference_path


def record(workload):
    inputs = make_inputs(workload, seed=1)
    with run.scratch_dir() as workdir:
        result = run.run_pass(workload, inputs, False, workdir)
    bad = [r for r in check_pass(workload, result["outputs"], None) if r is not None]
    if bad:
        raise SystemExit(f"{workload}: invariant checks failed: {bad[:3]}")
    # one output record per line keeps the files readable and diffable
    lines = ",\n".join(json.dumps(out) for out in result["outputs"])
    path = reference_path(workload)
    path.write_text(
        f'{{"recorded_at": {json.dumps(run.git_commit())},\n'
        f'"inputs": {json.dumps(inputs)},\n"outputs": [\n{lines}\n]}}\n')
    print(f"wrote {path}")


def main():
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        record(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
