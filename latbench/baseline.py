"""Record the benchmark's baseline into latbench/BASELINE.json.

    python3 latbench/baseline.py

Runs every workload once per seed 1 to 10 untraced and once traced (seed 1),
with the run length of BENCHMARK.json, and records for each metric its
unit, median, quartiles, spread (interquartile distance as a share of the
median) and sample count, with the failed-op ratio, the Python version,
the core count and the git commit of the checkout.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

from run import HERE, ROOT

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT = HERE / "BASELINE.json"
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [*BENCH["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=400,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "samples": len(values)}


def git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    record = {
        "meta": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "git_sha": git_sha(),
            "run_seconds": BENCH["run_seconds"],
            "seeds": list(SEEDS),
        },
        "workloads": {},
    }
    for w in BENCH["workloads"]:
        workload = w["name"]
        runs = [run_once(workload, seed, 0) for seed in SEEDS]
        traced = run_once(workload, 1, 1)
        entry = {
            "why": w["why"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs + [traced]),
            "end_to_end": {},
            "per_layer": traced["metrics"],
        }
        entry["failed_ratio"] = entry["failed"] / entry["attempted"]
        for name, m in runs[0]["metrics"].items():
            entry["end_to_end"][name] = {
                "unit": m["unit"], **summary([r["metrics"][name]["value"] for r in runs])}
        record["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            print(f"{workload:12s} {name:12s} median {s['median']:.4f} spread {s['spread']:.4f}",
                  flush=True)
    OUT.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
