"""Steadiness command: repeated runs, one seed each, alternating order.

Usage (from the repository root)::

    python3 e2ebench/steady.py --runs 10

Every run lasts BENCHMARK.json's ``run_seconds``. Run i uses seed
``first_seed + i`` and visits the workloads rotated by i, so no workload
always runs first or last. For every workload and metric it prints the
median, the quartiles (``statistics.quantiles(n=4)``) and their distance
as a share of the median -- the spread the bounds in BENCHMARK.json are
set against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} exited {completed.returncode}:\n{completed.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        if line.startswith("env: "):
            result["env"] = json.loads(line[len("env: "):])
    return result


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return middle, q1, q3, (q3 - q1) / middle if middle else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    runs = {workload: [] for workload in WORKLOADS}
    for index in range(args.runs):
        seed = args.first_seed + index
        shift = index % len(WORKLOADS)
        for workload in WORKLOADS[shift:] + WORKLOADS[:shift]:
            result = run_once(workload, seed, SPEC["run_seconds"])
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: answers failed the checks")
            runs[workload].append({"seed": seed, **result})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
            ), file=sys.stderr, flush=True)

    print(f"{'workload':15} {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}  failed/attempted")
    for workload, results in runs.items():
        failed = sorted({(r["failed"], r["attempted"]) for r in results})
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            if len(values) < 2:
                continue
            middle, q1, q3, spread = summary(values)
            print(
                f"{workload:15} {name:28} {middle:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f}  {failed}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
