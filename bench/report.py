"""Print every end-to-end and per-layer metric of every workload.

    python3 bench/report.py [--seed N] [--seconds S] [--smoke]

Runs ``bench/run.py`` for each workload of BENCHMARK.json, then for
root-census, which is left out of it for its known defect; each twice,
in a process of its own: untraced for the end-to-end metrics, then
traced for the per-layer metrics.  Prints one table with every metric by name and unit,
the failure share of each workload, and ``trace.overhead_frac``, against
which the per-layer times are to be read.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 smoke: bool = False) -> tuple[list[str], dict]:
    """Run one workload; returns its report lines and its result object."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    listed = [w["name"] for w in spec["workloads"]]
    for i, wl in enumerate(listed + sorted(set(WORKLOADS) - set(listed))):
        for trace in (0, 1):
            lines, result = run_workload(wl, args.seed, seconds, trace, args.smoke)
            if i == 0 and trace == 0:
                print(next(line for line in lines if line.startswith("machine:")))
            print(f"== {wl} trace={trace}: attempted={result['attempted']} "
                  f"failed={result['failed']} "
                  f"failed_frac={result['failed'] / result['attempted']:.4g} "
                  f"correct={result['correct']}")
            for line in lines:
                if line.startswith(("known defect:", "failed:", "latency:", "machine speed:")):
                    print("   " + line)
            for name, m in result["metrics"].items():
                print(f"   {wl:14s} {name:34s} {m['value']:14.6g} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
