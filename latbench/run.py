"""latcensus benchmark runner.

    python3 latbench/run.py --workload census --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Each pass of a workload is one fresh
worker process (``worker.py``), a single closed-loop client that runs the
workload's ops one after another through ``latcensus.cli.main`` with
``--jobs 1``.  Passes repeat until ``--seconds`` have gone by (at least
MIN_PASSES of them).  Every output is checked against ``refs.json`` or an
oracle in ``inputs.py``.

Every pass runs the same ops, so each op's latency is its median over the
passes; ``run_s`` sums those over the ops of a pass and the percentiles are
taken over them.

With ``--trace 0`` the last stdout line reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of ``tracer.py``; traced and untraced
passes then alternate, and ``trace.overhead`` is the ratio of their
``run_s``.  The line before the last one says how many samples each figure has.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
from tracer import METRICS as LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("census", "count_glued", "count_block")
MIN_PASSES = 3
PASS_TIMEOUT = 150
# lattice classes per size, n = 1..9 (OEIS A006966)
CLASS_COUNTS = [1, 1, 1, 2, 5, 15, 53, 222, 1078]
E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def make_ops(workload: str, seed: int, refs: dict, workdir: Path) -> list[dict]:
    """The workload's ops for one seed; every pass of the run repeats them."""
    if workload == "census":
        census = refs["census"]
        return [{"argv": census["argv"], "check": "census",
                 "expect": {"sha256": census["sha256"], "lines": census["lines"]}}]
    if workload == "count_glued":
        return inputs.glued_inputs(seed)
    return inputs.block_inputs(seed, refs["pool"], workdir)


def judge(op: dict, entry: dict) -> str:
    """'ok', 'refused' (exit 2 on an input the seed program also refused),
    or 'wrong'."""
    if entry["rc"] == 0:
        obs = entry["obs"]
        if all(obs.get(k) == v for k, v in op["expect"].items()) and obs.get("ordered", True):
            return "ok"
        return "wrong"
    if entry["rc"] == 2 and op.get("refused_at_seed") and entry["err"].startswith("error:"):
        return "refused"
    return "wrong"


def run_pass(spec_path: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def op_ms(passes: list[dict]) -> list[float]:
    """Each op's median latency over the passes, in ms."""
    return [1000 * statistics.median(p["ops"][k]["s"] for p in passes)
            for k in range(len(passes[0]["ops"]))]


def measure(workload: str, seed: int, seconds: int, trace: bool, workdir: Path,
            refs: dict) -> dict:
    ops = make_ops(workload, seed, refs, workdir)
    spec = {"src": str(SRC), "ops": ops, "trace": False,
            "class_counts": len(CLASS_COUNTS) if workload == "census" else 0,
            "spans_out": str(workdir.parent / f"spans-{workload}.jsonl")}

    def write_spec(path: Path, **changes) -> Path:
        path.write_text(json.dumps({**spec, **changes}))
        return path

    plain = write_spec(workdir / "spec.json")
    traced = write_spec(workdir / "spec-traced.json", trace=True)
    # untimed warm-up: byte-compiles the package and checks that it imports
    run_pass(write_spec(workdir / "spec-warmup.json", ops=[], class_counts=0))

    passes: list[dict] = []
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        traced_pass = trace and len(passes) % 2 == 1
        t = time.perf_counter()
        report = run_pass(traced if traced_pass else plain)
        walls.append(time.perf_counter() - t)
        report["traced"] = traced_pass
        passes.append(report)
        # stop before a pass that would end past the deadline
        if (time.perf_counter() - start + statistics.median(walls) > seconds
                and len(passes) >= MIN_PASSES + trace):
            break

    verdicts = {"ok": 0, "refused": 0, "wrong": 0}
    problems = []
    for p in passes:
        for op, entry in zip(ops, p["ops"]):
            v = judge(op, entry)
            verdicts[v] += 1
            if v == "wrong" and len(problems) < 5:
                problems.append(f"{' '.join(op['argv'])}: {entry}")
        if workload == "census" and p["class_counts"] != CLASS_COUNTS:
            verdicts["wrong"] += 1
            problems.append(f"class counts {p['class_counts']} != {CLASS_COUNTS}")
    attempted = len(ops) * len(passes)
    failed = verdicts["refused"] + verdicts["wrong"]

    untraced = [p for p in passes if not p["traced"]]
    latency = op_ms(untraced)
    run_s = sum(latency) / 1000
    per_op = f"{len(ops)} ops, each the median of {len(untraced)} passes"
    samples = {
        "setup_s": f"median of {len(untraced)} worker set-ups",
        "run_s": f"sum over {per_op}",
        "ops_per_s": f"{len(ops)} ops over run_s",
        "op_ms_p50": f"median over {per_op}",
        "op_ms_p90": f"90th percentile over {per_op}",
        "peak_rss_mb": f"median over {len(untraced)} workers",
    }
    if trace:
        layers = [p["layers"] for p in passes if p["traced"]]
        values = {k: statistics.median(m[k] for m in layers) for k in LAYER_METRICS}
        values["trace.overhead"] = sum(op_ms([p for p in passes if p["traced"]])) / sum(latency)
        units = {**LAYER_METRICS, "trace.overhead": "ratio"}
        samples = {"per-layer": f"median of {len(layers)} traced passes",
                   "trace.overhead": f"{len(layers)} traced / {len(untraced)} untraced passes"}
        missing = sorted({m for p in passes if p["traced"] for m in p["missing"]})
        if missing:
            samples["untraced targets (absent from the program)"] = ", ".join(missing)
    else:
        values = {
            "setup_s": statistics.median(p["setup_s"] for p in untraced),
            "run_s": run_s,
            "ops_per_s": len(ops) / run_s,
            "op_ms_p50": percentile(latency, 50),
            "op_ms_p90": percentile(latency, 90),
            "peak_rss_mb": statistics.median(p["rss_kb"] for p in untraced) / 1024,
        }
        units = E2E_UNITS
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": verdicts["wrong"] == 0,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "notes": {
            "passes": len(passes),
            "pass_run_s": [round(p["run_s"], 4) for p in untraced],
            "ops_per_pass": len(ops),
            "inputs_digest": inputs.inputs_digest(ops, workdir),
            "verdicts": verdicts,
            "failed_ratio": failed / attempted,
            "samples": samples,
            "problems": problems,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "latcensus" / "__init__.py").is_file():
        print(f"latbench: no latcensus sources under {SRC}", file=sys.stderr)
        return 2
    workdir = ROOT / ".latbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        refs = json.loads((HERE / "refs.json").read_text())
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir, refs)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"latbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    notes = result.pop("notes")
    print(f"latbench {args.workload} seed={args.seed} trace={args.trace}: "
          + json.dumps(notes, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
