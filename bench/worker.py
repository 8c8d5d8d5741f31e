"""One pass of a workload in a fresh interpreter.

Reads a JSON spec on stdin, imports ``qoscpoly`` from the checkout's
``src``, builds the workload's contexts (the end of set-up), then, unless
the spec asks for set-up only, runs every request in order through
``qoscpoly.cli.main(argv)`` with stdout and stderr captured in memory.
Prints one JSON object on stdout: the set-up end time on the monotonic
clock, the pass's wall time, peak RSS, and for each request the failed
operations found by ``checker.failed_ops``; with tracing, also the shim's
per-layer totals.  Output checks run after peak RSS is read.
"""

import json
import sys
import time


def run_pass(spec):
    import contextlib
    import io
    import resource

    import qoscpoly.cli
    from checker import facts, failed_ops
    from tracer import Tracer

    tracer = Tracer().install() if spec["trace"] else None
    captured = []
    start = time.perf_counter()
    for request in spec["requests"]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            # looked up per call, so a traced pass calls the wrapped main
            code = qoscpoly.cli.main(request["argv"])
        captured.append((code, out.getvalue(), err.getvalue()))
    wall = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
    results = []
    for request, (code, out, err) in zip(spec["requests"], captured):
        golden = request["golden"]
        got = facts(request["argv"], code, out, golden.get("seeded_checks", ()))
        failed, problems = failed_ops(golden, got, request["seeded"], spec["seed"])
        if err:
            problems.append("stderr: " + err.strip()[:200])
        results.append({"key": request["key"], "ops": golden["ops"],
                        "failed": failed, "problems": problems,
                        "sha256": got["sha256"]})
    return {"wall_s": wall, "peak_rss_mb": peak_kb / 1024, "requests": results,
            "layers": tracer.layer_metrics() if tracer else None}


def main():
    spec = json.load(sys.stdin)
    sys.path.insert(0, spec["src"])
    import qoscpoly
    from qoscpoly.context import QContext, frac

    contexts = [QContext(frac(s), frac(omega)) for s, omega in spec["contexts"]]
    result = {"ready": time.monotonic(), "contexts": len(contexts)}
    here = spec["src"].rstrip("/") + "/"
    if not qoscpoly.__file__.startswith(here):
        sys.exit(f"imported {qoscpoly.__file__}, not the copy under {here}")
    if not spec["setup_only"]:
        result.update(run_pass(spec))
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
