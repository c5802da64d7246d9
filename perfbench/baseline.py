"""Record the seed-0 baseline of every metric, with the machine it ran on.

    python3 perfbench/baseline.py [--seconds 40]

Runs ``perfbench/run.py`` on every workload at seed 0, untraced and
traced, and writes ``perfbench/baseline.json``.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args()
    baseline = {
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "seed": 0,
        "seconds": args.seconds,
        "workloads": {},
    }
    for name in WORKLOADS:
        entry = {"attempted": 0, "failed": 0}
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "0",
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            report = json.loads((ROOT / ".perfbench_out" / name / "report.json").read_text())
            entry["quality"] = report["quality"]
            entry["attempted"] += report["attempted"]
            entry["failed"] += report["failed"]
            entry["end_to_end" if trace == 0 else "per_layer"] = report["metrics"]
        entry["fail_ratio"] = entry["failed"] / entry["attempted"]
        baseline["workloads"][name] = entry
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
