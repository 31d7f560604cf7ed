"""Self-test of the benchmark.

    python3 latbench/selftest.py

Checks that the seeded inputs are deterministic and have the shape each
workload promises, that the oracles agree with the program where both run,
that a short run prints every metric named in BENCHMARK.json, that a wrong
reference value makes ops fail (so the checks cannot pass vacuously), and
that the runner refuses to report without the program's sources.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import inputs
import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def block_digest(seed: int, refs: dict) -> str:
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".latbench") as tmp:
        ops = inputs.block_inputs(seed, refs["pool"], Path(tmp))
        return inputs.inputs_digest(ops, Path(tmp))


def check_inputs(refs: dict, latcensus) -> None:
    glued = [inputs.glued_inputs(s) for s in (1, 1, 2)]
    digests = [inputs.inputs_digest(ops, run.ROOT) for ops in glued]
    check(digests[0] == digests[1] != digests[2], "count_glued: same seed, same input digest")
    check(block_digest(1, refs) == block_digest(1, refs) != block_digest(2, refs),
          "count_block: same seed, same input digest")

    for op in glued[0]:
        lat = latcensus.build_expression(op["argv"][2])
        blocks = latcensus.decompose_glued_sum(lat).blocks
        if sum(1 for p in op["parts"] if not p.startswith("C")) < 3 or \
                sum(1 for b in blocks if b.n > 2) < 3:
            check(False, f"count_glued: {op['argv'][2]} has 3 non-chain blocks")
    check(True, "count_glued: every input has at least 3 non-chain blocks")
    small = [op for op in glued[0] if op["expect"]["n"] <= 16][:6]
    for op in small:
        n, covers = inputs.glued_lattice(op["parts"])
        lat = latcensus.from_covers(n, covers)
        want = op["expect"]["sub_count"]
        if not want == latcensus.count_subuniverses_naive(lat) == len(inputs.closed_masks(n, covers)):
            check(False, f"count_glued: transfer-matrix count of {op['argv'][2]}")
    check(len(small) > 0, f"count_glued: transfer-matrix counts match both naive scans "
          f"on {len(small)} inputs")
    for op in glued[0][:20]:
        lat = latcensus.build_expression(op["argv"][2])
        if (lat.n, latcensus.count_subuniverses(lat)) != (op["expect"]["n"], op["expect"]["sub_count"]):
            check(False, f"count_glued: program agrees with the oracle on {op['argv'][2]}")
    check(True, "count_glued: program count matches the transfer-matrix count on 20 inputs")

    with tempfile.TemporaryDirectory(dir=run.ROOT / ".latbench") as tmp:
        for op in inputs.block_inputs(3, refs["pool"], Path(tmp))[::4]:
            data = json.loads(Path(op["argv"][2]).read_text())
            n, covers = data["n"], data["covers"]
            blocks = latcensus.decompose_glued_sum(latcensus.from_covers(n, covers)).blocks
            if inputs.cut_elements(n, covers) != [0, n - 1] or len(blocks) != 1:
                check(False, f"count_block: {op['argv'][2]} is one block")
    check(True, f"count_block: all {len(refs['pool'])} relabeled inputs decompose into one block")


def check_metrics() -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        names = {m["name"] for m in BENCH[key]}
        for w in BENCH["workloads"]:
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", w["name"],
                 "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=170,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(proc.returncode == 0 and set(result) == {"correct", "attempted", "failed", "metrics"}
                  and result["correct"] and set(result["metrics"]) == names,
                  f"{w['name']} --trace {trace}: correct, prints all {len(names)} {key} metrics")


def check_wrong_reference(refs: dict) -> None:
    bad = copy.deepcopy(refs)
    bad["census"]["sha256"] = "0" * 64
    bad["pool"][0]["ref"]["sub_count"] += 1
    for workload in ("census", "count_block"):
        workdir = run.ROOT / ".latbench" / f"selftest-{workload}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            result = run.measure(workload, 1, 0, False, workdir, bad)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        ratio = result["failed"] / result["attempted"]
        check(ratio > 0 and not result["correct"],
              f"{workload}: a wrong reference value gives failed_ratio {ratio:.3f} > 0")


def check_bare_directory() -> None:
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".latbench") as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        for path in BENCH["paths"]:
            shutil.copytree(run.ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [*BENCH["command"], "--workload", "census", "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=tmp, capture_output=True, text=True, timeout=170,
        )
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the program's sources the runner exits non-zero and prints no result")


def main() -> int:
    (run.ROOT / ".latbench").mkdir(exist_ok=True)
    sys.path.insert(0, str(run.SRC))
    import latcensus

    refs = json.loads((run.HERE / "refs.json").read_text())
    check_inputs(refs, latcensus)
    check_wrong_reference(refs)
    check_bare_directory()
    check_metrics()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
