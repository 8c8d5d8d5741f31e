"""qoscpoly benchmark: end-to-end timings, output checks, per-layer trace.

    python3 bench/run.py --workload verify-default --seed 1 --seconds 30 --trace 0

Run from anywhere; the checkout is the directory above ``bench/``, and the
program is imported from its ``src/``.  One client, closed loop: each pass
runs the workload's requests one after the other in a fresh interpreter
(``worker.py``), and the next pass starts only when the previous one has
exited.  Passes repeat while the next one, judged by the last, still fits
into ``--seconds``.

With ``--trace 0`` the metrics are the end-to-end ones: the median pass wall
time, the median set-up time of fresh interpreters, the median peak RSS and
the share of operations that passed their checks.  With ``--trace 1``
untraced and traced passes alternate, and the metrics are the per-layer ones
from the shim in ``tracer.py`` plus its overhead.  Every pass's outputs are
checked against ``golden.json`` and against the first pass's digests.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exits 2 without a result when the
checkout has no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# set-up samples per untraced pass, besides the pass's own set-up; spread
# over the run so that they see the same machine as the passes
SETUP_SAMPLES_PER_PASS = 2
# the whole run, checks included, must end well within 180 seconds
TIME_LIMIT_S = 165.0


class WorkerError(Exception):
    pass


def spawn(spec: dict, deadline: float) -> tuple[dict, float]:
    """Run worker.py on spec; returns its result and its spawn time."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py")],
            input=json.dumps(spec), capture_output=True, text=True, cwd=ROOT,
            env=env, timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError("worker ran past the time limit") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: "
                          + proc.stderr.strip()[-500:])
    return json.loads(proc.stdout.splitlines()[-1]), started


def make_spec(workload, seed: int, golden: dict) -> dict:
    requests = [{"key": r.key, "argv": workload.argv(r, seed), "seeded": r.seeded,
                 "golden": golden[r.key]} for r in workload.requests]
    return {"src": str(SRC), "contexts": [list(c) for c in workload.contexts],
            "requests": requests, "seed": seed, "trace": False, "setup_only": False}


class Run:
    """The passes of one benchmark run and the checks on their outputs."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.ops_per_pass = sum(r["golden"]["ops"] for r in spec["requests"])
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first_digests = None
        self.passes = {False: [], True: []}  # traced -> pass results
        self.setup_s = []

    def run_pass(self, traced: bool, deadline: float):
        if not traced:
            for _ in range(SETUP_SAMPLES_PER_PASS):
                result, started = spawn(dict(self.spec, setup_only=True), deadline)
                self.setup_s.append(result["ready"] - started)
        self.attempted += self.ops_per_pass
        try:
            result, started = spawn(dict(self.spec, trace=traced), deadline)
            if not traced:
                self.setup_s.append(result["ready"] - started)
        except WorkerError as exc:
            self.failed += self.ops_per_pass
            self.problems.append(f"pass failed: {exc}")
            return
        digests = {r["key"]: r["sha256"] for r in result["requests"]}
        if self.first_digests is None:
            self.first_digests = digests
        for r in result["requests"]:
            failed = r["failed"]
            if r["sha256"] != self.first_digests[r["key"]]:
                failed = r["ops"]
                r["problems"].append("output differs from the run's first pass"
                                     + (" (traced pass)" if traced else ""))
            self.failed += failed
            self.problems += [f"{r['key']}: {p}" for p in r["problems"]]
        self.passes[traced].append(result)

    def run_passes(self, modes, seconds: float, deadline: float):
        """Cycles through modes while the next cycle fits into seconds."""
        start = time.monotonic()
        while True:
            cycle = time.monotonic()
            for traced in modes:
                self.run_pass(traced, deadline)
            now = time.monotonic()
            if now - start + (now - cycle) > seconds or now + (now - cycle) > deadline:
                return now - start


def end_to_end(run: Run, seconds: float, deadline: float) -> tuple[dict, list]:
    used = run.run_passes((False,), seconds, deadline)
    setup = run.setup_s
    passes = run.passes[False]
    if not passes:
        raise WorkerError("no pass completed")
    walls = [p["wall_s"] for p in passes]
    rss = [p["peak_rss_mb"] for p in passes]
    ok_ratio = (run.attempted - run.failed) / run.attempted
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
        "ok_ratio": ok_ratio,
    }
    notes = [
        f"wall_s: median of {len(walls)} passes in {used:.1f} s "
        f"(min {min(walls):.4f}, max {max(walls):.4f}); fewer than ten samples "
        "lie beyond any tail percentile, so none is reported",
        f"setup_s: median of {len(setup)} fresh interpreters "
        f"(min {min(setup):.4f}, max {max(setup):.4f})",
        f"peak_rss_mb: median over {len(rss)} passes",
        f"fail_ratio: {run.failed / run.attempted:g} "
        f"({run.failed} failed / {run.attempted} attempted operations); "
        "ok_ratio = 1 - fail_ratio",
    ]
    return metrics, notes


def per_layer(run: Run, seconds: float, deadline: float) -> tuple[dict, list]:
    used = run.run_passes((False, True), seconds, deadline)
    plain, traced = run.passes[False], run.passes[True]
    if not plain or not traced:
        raise WorkerError("no traced and untraced pair of passes completed")
    layers = [p["layers"] for p in traced]
    # times vary from pass to pass; everything else must repeat exactly
    timed = {name for name in layers[0] if name.endswith((".s", "_s"))}
    metrics = {name: statistics.median(layer[name] for layer in layers)
               if name in timed else value for name, value in layers[0].items()}
    metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                   - statistics.median(p["wall_s"] for p in plain))
    for later in layers[1:]:
        changed = [n for n in later if n not in timed and later[n] != layers[0][n]]
        if changed:
            run.problems.append(f"traced counts differ between passes: {changed}")
    notes = [f"{len(traced)} traced and {len(plain)} untraced passes in {used:.1f} s; "
             "times are medians over traced passes, counts from the first"]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    needed = (SRC / "qoscpoly" / "__init__.py", BENCH_DIR / "golden.json",
              ROOT / "BENCHMARK.json")
    missing = [str(path) for path in needed if not path.is_file()]
    if missing:
        print(f"error: nothing to measure, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    golden = json.loads(needed[1].read_text())
    reference = golden["reference_commit"]
    golden = golden["requests"][workload.name]
    declared = json.loads(needed[2].read_text())["per_layer" if args.trace else "end_to_end"]
    run = Run(make_spec(workload, args.seed, golden))
    try:
        spawn(dict(run.spec, setup_only=True), deadline)  # fills bytecode caches
        measure = per_layer if args.trace else end_to_end
        metrics, notes = measure(run, args.seconds, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"qoscpoly benchmark: workload {workload.name}, seed {args.seed}, "
          f"trace {args.trace}; one client, closed loop; Python "
          f"{platform.python_version()}, nproc {os.cpu_count()}")
    print(f"  outputs checked against golden.json from commit {reference}")
    for request in run.spec["requests"]:
        print(f"  request {request['key']}: qoscpoly {' '.join(request['argv'])}")
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                           "match BENCHMARK.json")
    for name, unit in units.items():
        print(f"  {name:<32} {metrics[name]:>16.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    for problem in run.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
