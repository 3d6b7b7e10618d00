"""Record each workload's outputs on every input set into reference.json.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Run this on a commit whose outputs are known to be right (the references in
the repository were recorded on the seed code).  Each input set is run once,
untraced; a process that fails aborts the recording.
"""

import json
import shutil
import sys

from run import ROOT, SRC, run_child
from workloads import REFERENCE_PATH, VARIANTS, WORKLOADS, load_reference, prepare


def main(names):
    reference = load_reference()
    work = ROOT / ".perfbench_work" / "record"
    try:
        for name in names or sorted(WORKLOADS):
            workload = WORKLOADS[name]
            recorded = {}
            for variant in range(VARIANTS):
                inputs = prepare(workload, variant, work / name, SRC)
                child = run_child(inputs, work, 0, "off", timeout=600)
                if not child.ok:
                    raise SystemExit(f"{name} input set {variant} failed: {child.error}")
                recorded[str(variant)] = child.output
                print(f"{name} input set {variant}: recorded", flush=True)
            reference[name] = recorded
            REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])
