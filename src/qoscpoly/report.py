"""Verification report structures and serialization.

Every check produces one record.  Status "documented-discrepancy" marks a
published formula whose value provably differs from the independent oracle;
such records are always listed but do not fail a run.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

PASS = "pass"
FAIL = "fail"
DISCREPANCY = "documented-discrepancy"


def fmt_exact(value) -> str:
    """Serialize a value as an exact string; Fractions as 'p/q', any size."""
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(fmt_exact(v) for v in value) + "]"
    try:
        return str(value)
    except ValueError:
        # an integer past Python's int-to-str digit limit: Decimal converts
        # it exactly, without that limit, and prints it in plain digits
        num, den = Decimal(value.numerator), value.denominator
        return f"{num}/{Decimal(den)}" if den != 1 else str(num)


@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    params: dict
    status: str
    lhs: str
    rhs: str
    note: str = ""


def record(check_id: str, params: dict, passed: bool, lhs, rhs,
           note: str = "", discrepancy: bool = False) -> CheckRecord:
    """Build a record; a failed check becomes a discrepancy if flagged."""
    if passed:
        status = PASS
    elif discrepancy:
        status = DISCREPANCY
    else:
        status = FAIL
    return CheckRecord(check_id, params, status, fmt_exact(lhs), fmt_exact(rhs), note)


@dataclass
class VerificationReport:
    context: dict
    seed: int
    records: list = field(default_factory=list)

    def extend(self, records):
        self.records.extend(records)

    def sorted_records(self) -> list:
        return sorted(self.records, key=lambda r: r.check_id)

    @property
    def counts(self) -> dict:
        out = {PASS: 0, FAIL: 0, DISCREPANCY: 0}
        for r in self.records:
            out[r.status] += 1
        return out

    @property
    def ok(self) -> bool:
        return self.counts[FAIL] == 0

    def to_dict(self) -> dict:
        return {
            "context": self.context,
            "seed": self.seed,
            "summary": self.counts,
            "records": [
                {
                    "check_id": r.check_id,
                    "params": {k: fmt_exact(v) for k, v in r.params.items()},
                    "status": r.status,
                    "lhs": r.lhs,
                    "rhs": r.rhs,
                    "note": r.note,
                }
                for r in self.sorted_records()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["check_id", "params", "status", "lhs", "rhs", "note"])
        for r in self.sorted_records():
            params = ";".join(f"{k}={fmt_exact(v)}" for k, v in sorted(r.params.items()))
            writer.writerow([r.check_id, params, r.status, r.lhs, r.rhs, r.note])
        return buf.getvalue()

    def to_text(self) -> str:
        lines = []
        for r in self.sorted_records():
            if r.status == PASS:
                lines.append(f"[pass] {r.check_id}")
            else:
                lines.append(f"[{r.status}] {r.check_id}: lhs={r.lhs} rhs={r.rhs}"
                             + (f" ({r.note})" if r.note else ""))
        c = self.counts
        lines.append(f"summary: {c[PASS]} pass, {c[FAIL]} fail, "
                     f"{c[DISCREPANCY]} documented-discrepancy (seed={self.seed})")
        return "\n".join(lines) + "\n"
