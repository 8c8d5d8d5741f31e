"""Record golden.json: the facts each benchmark request's output must keep.

    python3 bench/make_golden.py

Run only at a commit whose outputs are the reference; ``golden.json``
records which commit that was.  Each request is run in-process through
``qoscpoly.cli.main``; seeded requests are run at several seeds, to find the
randomised checks and to confirm that every fact but the raw digest is the
same at every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from checker import CONTENT_FACTS, SHAPE_FACTS, check_name, facts, output_format
from workloads import DEFAULT_SEED, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHECK_SEEDS = (DEFAULT_SEED, 1, 2, 3)
SEED_INVARIANT = SHAPE_FACTS + CONTENT_FACTS + ("agree",)
GOLDEN_KEYS = SEED_INVARIANT + ("sha256",)


def run_cli(argv) -> tuple[int, str]:
    from qoscpoly.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def seeded_check_names(outputs) -> list[str]:
    """Checks of JSON verify reports whose records differ between seeds."""
    by_seed = []
    for output in outputs:
        records = {}
        for r in json.loads(output)["records"]:
            records.setdefault(check_name(r["check_id"]), []).append(r)
        by_seed.append(records)
    return sorted(name for name in by_seed[0]
                  if any(other.get(name) != by_seed[0][name] for other in by_seed[1:]))


def golden_entry(argv_at, seeded: bool, seeds=CHECK_SEEDS) -> dict:
    """Golden facts of one request; argv_at(seed) gives its arguments."""
    seeds = seeds if seeded else (DEFAULT_SEED,)
    outputs = {seed: run_cli(argv_at(seed)) for seed in seeds}
    argv = argv_at(DEFAULT_SEED)
    seeded_checks = []
    if seeded and argv[0] == "verify" and output_format(argv) == "json":
        seeded_checks = seeded_check_names(out for _, out in outputs.values())
    found = {seed: facts(argv_at(seed), code, out, seeded_checks)
             for seed, (code, out) in outputs.items()}
    ref = found[DEFAULT_SEED]
    if "error" in ref or ref.get("failed"):
        raise SystemExit(f"{' '.join(argv)}: reference output is not clean: {ref}")
    for seed, got in found.items():
        for key in SEED_INVARIANT:
            if got.get(key) != ref.get(key):
                raise SystemExit(f"{' '.join(argv)}: {key} differs at seed {seed}")
    entry = {key: ref[key] for key in GOLDEN_KEYS if key in ref}
    if seeded_checks:
        entry["seeded_checks"] = seeded_checks
    return entry


def main():
    sys.path.insert(0, str(ROOT / "src"))
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    requests = {}
    for workload in WORKLOADS.values():
        requests[workload.name] = {}
        for request in workload.requests:
            print(f"{workload.name}: {request.key}", file=sys.stderr)
            requests[workload.name][request.key] = golden_entry(
                lambda seed: workload.argv(request, seed), request.seeded)
    golden = {
        "reference_commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "default_seed": DEFAULT_SEED,
        "checked_seeds": list(CHECK_SEEDS),
        "workloads": {w.name: w.parameters() for w in WORKLOADS.values()},
        "requests": requests,
    }
    (BENCH_DIR / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
