"""Run every workload, untraced and traced, one process at a time, and print
each metric with its unit, plus the harness's notes (sample counts,
environment, correctness, op shares next to the ROADMAP profile).

    python3 perfbench/report.py [--seed 0] [--seconds 30] [--workload NAME ...]
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    status = 0
    for name in args.workload or list(WORKLOADS):
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
            print(f"== {name} ({'traced' if trace else 'untraced'})")
            out = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not out:
                print(proc.stderr.strip())
                status = 1
                continue
            result = json.loads(out[-1])
            for line in out[:-1]:
                print("  " + line)
            print(f"  correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"  {metric:<36} {m['value']:>14.6g} {m['unit']}")
            status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
