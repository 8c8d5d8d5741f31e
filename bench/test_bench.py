"""Fast self-test of the benchmark harness at tiny sizes.

    python3 -m pytest -q bench/test_bench.py

Shows that every output check can fail, that the trace shim misses no call
and leaves outputs unchanged, and that the harness refuses to run without a
program to measure.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
from checker import facts, failed_ops  # noqa: E402
from make_golden import golden_entry, run_cli  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Request, Workload  # noqa: E402

TINY = Workload("tiny", "tiny sizes for the self-test", (("1/2", "1/8"),), (
    Request("verify-json", ("verify", "--suite", "qkernel", "--suite", "hahncalc",
                            "--nmax", "3", "--format", "json", "--seed", "{seed}"),
            True),
    Request("verify-text", ("verify", "--suite", "qkernel", "--nmax", "3",
                            "--seed", "{seed}"), True),
    Request("table-matel", ("table", "matel", "--nmax", "2", "--format", "json"),
            False),
    Request("table-poly", ("table", "poly", "--nmax", "2"), False),
))
REQUESTS = {r.key: r for r in TINY.requests}
OTHER_SEED = 5


@pytest.fixture(scope="module")
def golden():
    return {r.key: golden_entry(lambda seed, r=r: TINY.argv(r, seed), r.seeded,
                                seeds=(DEFAULT_SEED, 1))
            for r in TINY.requests}


def check(golden, key, code, output, seed=DEFAULT_SEED):
    request, entry = REQUESTS[key], golden[key]
    argv = TINY.argv(request, seed)
    got = facts(argv, code, output, entry.get("seeded_checks", ()))
    return failed_ops(entry, got, request.seeded, seed)[0]


def output(key, seed=DEFAULT_SEED):
    return run_cli(TINY.argv(REQUESTS[key], seed))


@pytest.mark.parametrize("key", sorted(REQUESTS))
@pytest.mark.parametrize("seed", (DEFAULT_SEED, OTHER_SEED))
def test_clean_output_passes(golden, key, seed):
    assert check(golden, key, *output(key, seed), seed=seed) == 0


@pytest.mark.parametrize("key", sorted(REQUESTS))
def test_wrong_exit_code_fails_every_operation(golden, key):
    _, text = output(key)
    assert check(golden, key, 1, text) == golden[key]["ops"]


@pytest.mark.parametrize("key", sorted(REQUESTS))
def test_truncated_output_fails_every_operation(golden, key):
    code, text = output(key)
    assert check(golden, key, code, text[: len(text) // 2]) == golden[key]["ops"]


@pytest.mark.parametrize("seed", (DEFAULT_SEED, OTHER_SEED))
def test_changed_value_fails_at_every_seed(golden, seed):
    code, text = output("verify-json", seed)
    data = json.loads(text)
    fixed = [r for r in data["records"]
             if not r["check_id"].startswith("qkernel/pochhammer-split")]
    fixed[0]["lhs"] += "1"
    assert check(golden, "verify-json", code, json.dumps(data), seed) == \
        golden["verify-json"]["ops"]


def test_changed_table_row_fails(golden):
    code, text = output("table-poly")
    lines = text.splitlines()
    lines[1] = lines[1].replace("n=0", "n=9")
    assert check(golden, "table-poly", code, "\n".join(lines) + "\n") == \
        golden["table-poly"]["ops"]


def test_dropped_record_fails_every_operation(golden):
    code, text = output("verify-json")
    data = json.loads(text)
    data["records"].pop()
    assert check(golden, "verify-json", code, json.dumps(data)) == \
        golden["verify-json"]["ops"]


@pytest.mark.parametrize("seed", (DEFAULT_SEED, OTHER_SEED))
def test_fail_record_counts_once(golden, seed):
    code, text = output("verify-json", seed)
    data = json.loads(text)
    data["records"][3]["status"] = "fail"
    data["summary"]["pass"] -= 1
    data["summary"]["fail"] += 1
    assert check(golden, "verify-json", code, json.dumps(data), seed) == 1

    code, text = output("verify-text", seed)
    lines = text.splitlines()
    lines[2] = lines[2].replace("[pass]", "[fail]") + ": lhs=1 rhs=2"
    lines[-1] = lines[-1].replace(" 0 fail", " 1 fail")
    assert check(golden, "verify-text", code, "\n".join(lines) + "\n", seed) == 1


@pytest.mark.parametrize("family", ("qgaussian", "qfactorial", "hahn"))
def test_matel_agreement_change_counts_once(golden, family):
    code, text = output("table-matel")
    data = json.loads(text)
    row = next(r for r in data["rows"] if r["family"] == family)
    row["agree"] = not row["agree"]
    assert check(golden, "table-matel", code,
                 json.dumps(data, indent=2, sort_keys=True) + "\n") == 1


def traced(argv):
    tracer = Tracer().install()
    try:
        result = run_cli(argv)
    finally:
        tracer.uninstall()
    return result, tracer


def test_trace_keeps_outputs_and_repeats_counts():
    argv = ["verify", "--suite", "qkernel", "--suite", "matrixelements",
            "--suite", "polyfamilies", "--nmax", "1", "--format", "json"]
    plain = run_cli(argv)
    first, t1 = traced(argv)
    second, t2 = traced(argv)
    assert first == plain == second
    counts = {k: (v[0], v[3]) for k, v in t1.stats.items()}
    assert counts == {k: (v[0], v[3]) for k, v in t2.stats.items()}
    metrics = t1.layer_metrics()
    assert metrics["matel.oracle.calls"] > 0
    assert metrics["verify.matrixelements.records"] > 0
    assert 0 < metrics["qarith.distinct_ratio"] < 1
    assert metrics["fractions.total"] >= metrics["qarith.fractions"] > 0


def test_trace_misses_no_call():
    """Every call of a wrapped function goes through its span."""
    from fractions import Fraction

    import qoscpoly.matel
    import qoscpoly.qarith
    tracer = Tracer()
    fraction_new = Fraction.__new__.__code__
    tracer.install()
    try:
        assert qoscpoly.matel.q_factorial is qoscpoly.qarith.q_factorial
        assert qoscpoly.matel.q_factorial.__wrapped__.__code__.co_name == "q_factorial"
        codes = {fn.__code__: key for key, fn in tracer.originals.items()}
        seen = dict.fromkeys(tracer.originals, 0)
        made = 0

        def profile(frame, event, arg):
            nonlocal made
            if event == "call":
                if frame.f_code in codes:
                    seen[codes[frame.f_code]] += 1
                elif frame.f_code is fraction_new:
                    made += 1

        sys.setprofile(profile)
        try:
            for kind in ("poly", "matel", "genfun", "position", "hahn"):
                run_cli(["table", kind, "--nmax", "2", "--order", "3"])
            run_cli(["verify", "--nmax", "1", "--order", "3", "--format", "csv"])
        finally:
            sys.setprofile(None)
    finally:
        tracer.uninstall()
    assert qoscpoly.matel.q_factorial is qoscpoly.qarith.q_factorial
    assert not hasattr(qoscpoly.qarith.q_factorial, "__wrapped__")
    assert {k: v[0] for k, v in tracer.stats.items() if v[0]} == \
        {k: v for k, v in seen.items() if v}
    assert tracer.layer_metrics()["fractions.total"] == made > 0


def test_metric_names_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((BENCH_DIR / "layers.json").read_text())["layers"]
    per_layer = [m["name"] for m in declared["per_layer"]]
    assert per_layer == [m for layer in layers for m in layer["metrics"]]
    assert set(Tracer().layer_metrics()) | {"trace.overhead_s"} == set(per_layer)
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    golden = json.loads((BENCH_DIR / "golden.json").read_text())["requests"]
    assert {w: set(g) for w, g in golden.items()} == \
        {w.name: {r.key for r in w.requests} for w in WORKLOADS.values()}


@pytest.mark.parametrize("trace", (False, True))
def test_harness_end_to_end_at_tiny_size(golden, trace):
    deadline = time.monotonic() + 120
    measure = run.per_layer if trace else run.end_to_end
    clean = run.Run(run.make_spec(TINY, OTHER_SEED, golden))
    metrics, _ = measure(clean, 0.1, deadline)
    assert clean.failed == 0 and not clean.problems
    assert clean.attempted == clean.ops_per_pass * (2 if trace else 1)
    assert metrics["trace.overhead_s" if trace else "wall_s"] != 0

    wrong = {k: dict(v, sha256="0" * 64) for k, v in golden.items()}
    broken = run.Run(run.make_spec(TINY, OTHER_SEED, wrong))
    measure(broken, 0.1, deadline)
    unseeded = sum(g["ops"] for k, g in golden.items() if not REQUESTS[k].seeded)
    assert broken.failed == unseeded * (2 if trace else 1)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "matel-large-n",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
