"""Record the expected outputs of every workload variant into reference.json.

    python3 perfbench/record.py

Runs each workload once per input variant and stores, per step, the exit
status and the digests that ``check.step_outcome`` computes.  Run it only
when a change of the benchmark's inputs or a deliberate change of the
program's output makes the recorded references stale.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import check
import run
import workloads


def main() -> int:
    cli = run.import_cli()
    reference: dict = {}
    workroot = run.ROOT / ".perfbench_work"
    workroot.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        reference[workload] = {}
        for variant in range(workloads.VARIANTS):
            workdir = Path(tempfile.mkdtemp(dir=workroot))
            try:
                steps = workloads.build(workload, variant, workdir)
                reference[workload][str(variant)] = {
                    step.label: check.step_outcome(
                        step, run.run_step(cli, step, run.STEP_TIMEOUT_S)
                    )
                    for step in steps
                }
            finally:
                shutil.rmtree(workdir)
            print(f"record.py: {workload} variant {variant} done", file=sys.stderr)
    workroot.rmdir()
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
