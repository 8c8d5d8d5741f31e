"""Output checks: the facts a request's output must reproduce.

``facts`` reads one captured CLI output and extracts what the golden data
pins down: exit code, operation count, records per suite or rows per table
family, the verify summary, matel agreement bits and sha256 digests.
``failed_ops`` compares those facts with the golden ones, which
``make_golden.py`` recorded at the reference commit named in ``golden.json``,
and says how many of the request's operations (check records or table rows)
failed.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter

from workloads import DEFAULT_SEED

SUMMARY_RE = re.compile(r"summary: (\d+) pass, (\d+) fail, "
                        r"(\d+) documented-discrepancy \(seed=(-?\d+)\)")

# Facts that fix the shape of the output; any difference fails the request.
SHAPE_FACTS = ("exit", "ops", "groups")
# Facts that fail records or changed matel rows may explain.
CONTENT_FACTS = ("summary", "invariant_sha256")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_name(check_id: str) -> str:
    """'suite/check' part of a record id, without the cell parameters."""
    return "/".join(check_id.split("/")[:2])


def output_format(argv) -> str:
    return argv[argv.index("--format") + 1] if "--format" in argv else "text"


def _verify_json_facts(output: str, seeded_checks) -> dict:
    data = json.loads(output)
    records = data["records"]
    kept = [r for r in records if check_name(r["check_id"]) not in seeded_checks]
    return {
        "ops": len(records),
        "groups": dict(Counter(r["check_id"].split("/")[0] for r in records)),
        "summary": data["summary"],
        "seed": data["seed"],
        "failed": sum(r["status"] == "fail" for r in records),
        # the report minus its seed, its summary and the records of
        # randomised checks: identical at every seed
        "invariant_sha256": _sha256(json.dumps(
            {"context": data["context"], "records": kept}, sort_keys=True)),
    }


def _verify_text_facts(output: str) -> dict:
    lines = output.splitlines()
    match = SUMMARY_RE.fullmatch(lines[-1]) if lines else None
    if match is None:
        raise ValueError("no summary line")
    ids, statuses = [], []
    for line in lines[:-1]:
        status, _, rest = line.partition("] ")
        ids.append(rest.split(": lhs=", 1)[0])
        statuses.append(status.lstrip("["))
    counts = [int(g) for g in match.groups()]
    return {
        "ops": len(ids),
        "groups": dict(Counter(i.split("/")[0] for i in ids)),
        "summary": {"pass": counts[0], "fail": counts[1],
                    "documented-discrepancy": counts[2]},
        "seed": counts[3],
        "failed": statuses.count("fail"),
        # passing lines show only the record id, so everything but the
        # summary line is identical at every seed
        "invariant_sha256": _sha256("\n".join(lines[:-1])),
    }


def _table_facts(kind: str, fmt: str, output: str) -> dict:
    if fmt == "json":
        rows = json.loads(output)["rows"]
        groups = Counter(row.get("family", kind) for row in rows)
        out = {"ops": len(rows), "groups": dict(groups)}
        if kind == "matel":
            agree = {}
            for row in rows:
                agree[row["family"]] = agree.get(row["family"], "") + (
                    "1" if row["agree"] else "0")
            out["agree"] = agree
        return out
    lines = output.splitlines()
    if not lines or not lines[0].startswith(f"# kind={kind} "):
        raise ValueError("no table header line")
    rows = lines[1:]
    first = Counter(row.split(" ", 1)[0] for row in rows)
    groups = ({f.partition("=")[2]: n for f, n in first.items()}
              if all(f.startswith("family=") for f in first) and first
              else {kind: len(rows)})
    return {"ops": len(rows), "groups": groups}


def facts(argv, exit_code: int, output: str, seeded_checks=()) -> dict:
    """What one request's captured stdout says, in golden-comparable form."""
    out = {"exit": exit_code, "sha256": _sha256(output)}
    fmt = output_format(argv)
    try:
        if argv[0] == "verify" and fmt == "json":
            out.update(_verify_json_facts(output, set(seeded_checks)))
        elif argv[0] == "verify" and fmt == "text":
            out.update(_verify_text_facts(output))
        elif argv[0] == "table":
            out.update(_table_facts(argv[1], fmt, output))
        else:
            raise ValueError(f"no checker for {' '.join(argv)}")
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        out["error"] = f"unreadable output: {exc!r}"
    return out


def failed_ops(golden: dict, got: dict, seeded: bool, seed: int) -> tuple[int, list]:
    """(failed operations, problems) of one request against its golden facts.

    Each fail record and each matel row whose agreement differs from the
    golden one is a failed operation.  An unreadable output, a wrong exit
    code, record or row counts, or a content difference that no such
    operation explains fails every operation of the request.
    """
    ops = golden["ops"]
    shape = [got["error"]] if "error" in got else []
    shape += [f"{key} is {got.get(key)!r}, expected {golden[key]!r}"
              for key in SHAPE_FACTS if got.get(key) != golden[key]]
    if "seed" in got and got["seed"] != seed:
        shape.append(f"report seed is {got['seed']}, expected {seed}")
    if shape:
        return ops, shape
    content = [f"{key} differs from the reference"
               for key in CONTENT_FACTS if key in golden and got[key] != golden[key]]
    if (not seeded or seed == DEFAULT_SEED) and got["sha256"] != golden["sha256"]:
        content.append("output sha256 differs from the reference output")
    bad = got.get("failed", 0)
    problems = [f"{bad} fail records"] if bad else []
    for family, bits in golden.get("agree", {}).items():
        wrong = sum(a != b for a, b in zip(got["agree"].get(family, ""), bits))
        if wrong:
            problems.append(f"{wrong} {family} matel rows changed agreement")
            bad += wrong
    if content and not bad:
        return ops, content
    return min(bad, ops), problems + content
