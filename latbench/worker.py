"""One pass of a workload in a fresh interpreter.

    python3 latbench/worker.py SPEC.json

Imports latcensus from the checkout's ``src``, builds the CLI parser, then
runs every op of the spec through ``latcensus.cli.main(argv)`` with stdout
and stderr captured, one after another.  A fresh process per pass is needed
because the census generator is cached for the life of the process, while
every CLI run a user starts pays for generation.  Prints one JSON line with
the timings and what each op produced, reduced to the fields the runner
checks.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

SPEC = sys.argv[1]


def setup(src: str):
    sys.path.insert(0, src)
    import latcensus.cli

    if not latcensus.__file__.startswith(src):
        raise SystemExit(f"latcensus imported from {latcensus.__file__}, not {src}")
    latcensus.cli.build_parser()
    return latcensus


# The harness imports its own modules only after setup_s is taken, so that
# setup_s covers the package import and the parser alone.


def observe(check: str, op: dict, out: str) -> dict:
    """Reduce an op's stdout to the fields compared with the reference."""
    import hashlib
    import json

    if check == "census":
        return {"sha256": hashlib.sha256(out.encode()).hexdigest(),
                "lines": out.count("\n")}
    if check == "enumerate":
        import inputs

        lists = [json.loads(line) for line in out.splitlines()]
        keys = [(len(s), s) for s in lists]
        perm = op["perm"]
        masks = [sum(1 << perm[i] for i in s) for s in lists]
        return {"count": len(lists), "digest": inputs.masks_digest(masks),
                "ordered": keys == sorted(keys)}
    payload = json.loads(out)
    return {key: payload.get(key) for key in op["expect"]}


def main() -> int:
    import json

    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    latcensus = setup(spec["src"])
    setup_s = time.perf_counter() - T0

    import contextlib
    import io
    import resource
    import traceback

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cli = latcensus.cli
    results = []
    run_s = 0.0
    for k, op in enumerate(spec["ops"]):
        if tracer:
            tracer.run = k
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(op["argv"])
        except SystemExit as exc:  # argparse refusing the argv
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a wrong answer, reported, not fatal
            rc = -1
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        run_s += elapsed
        entry = {"s": elapsed, "rc": rc}
        if rc == 0:
            try:
                entry["obs"] = observe(op["check"], op, out.getvalue())
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                entry["obs"] = {"unreadable": repr(exc)}
        else:
            entry["err"] = err.getvalue()[:400]
        results.append(entry)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = {"setup_s": setup_s, "run_s": run_s, "rss_kb": rss_kb, "ops": results}
    if tracer:
        tracer.remove()
        report["layers"] = tracer.metrics()
        report["missing"] = tracer.missing
        tracer.write(spec["spans_out"])
    if spec.get("class_counts"):
        report["class_counts"] = [
            sum(1 for _ in latcensus.enumerate_lattices(k))
            for k in range(1, spec["class_counts"] + 1)
        ]
    sys.__stdout__.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
