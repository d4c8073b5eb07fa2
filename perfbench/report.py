"""Run the benchmark over every workload and print every metric.

    python3 perfbench/report.py --seeds 1 2 3

For each workload in BENCHMARK.json it runs ``run.py --trace 0`` once per
seed, then ``run.py --trace 1`` once at the first seed, each for the file's
``run_seconds``.  It prints each end-to-end metric's median over the seeds
with the quartile spread (the distance between the first and third quartile
as a share of the median), followed by the per-layer metrics.  Runs one
child process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=BENCH.parent, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = parser.parse_args()

    all_correct = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        results = [run_once(workload, seed, 0) for seed in args.seeds]
        all_correct &= all(r["correct"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"== {workload}: {len(results)} runs, {attempted} attempted, {failed} failed")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            print(f"{workload:16} {name:34} {statistics.median(values):14.6g} {first['unit']:6} "
                  f"spread {spread(values):.3f}  values {' '.join(f'{v:.4g}' for v in values)}")
        traced = run_once(workload, args.seeds[0], 1)
        all_correct &= traced["correct"]
        for name, metric in traced["metrics"].items():
            print(f"{workload:16} {name:34} {metric['value']:14.6g} {metric['unit']}")
    print("all outputs correct" if all_correct else "SOME OUTPUTS FAILED THEIR CHECKS")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
