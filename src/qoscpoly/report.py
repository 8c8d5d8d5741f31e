"""Verification report structures and serialization.

Every check produces one record.  Status "documented-discrepancy" marks a
published formula whose value provably differs from the independent oracle;
such records are always listed but do not fail a run.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from decimal import Decimal
from json.encoder import encode_basestring_ascii

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


def json_text(value) -> str:
    """Write value exactly as ``json.dumps(value, indent=2, sort_keys=True)``
    does, plus a final newline: ASCII-escaped strings, sorted keys, one item
    per line at two spaces a level.

    Reports and tables hold only dicts with str keys, lists, tuples, str,
    int, bool, None and CheckRecords; any other value (a float, a Fraction,
    a non-str key) raises TypeError, since an exact report has none.  A
    CheckRecord is written as its dict, each params value through
    ``fmt_exact``, straight from its fields.
    """
    return _json(value, "\n", "\n")


def _json(value, newline: str, end: str = "") -> str:
    """value as json_text writes it, on a line begun by newline, then end.

    Each container item is rendered to one string, and the items are
    joined once with the brackets, so the text is never held as tokens.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value) + end
    if value is None:
        return "null" + end
    if value is True:
        return "true" + end
    if value is False:
        return "false" + end
    if isinstance(value, int):
        return int.__repr__(value) + end
    inner = newline + "  "
    if isinstance(value, CheckRecord):
        # the dict's keys in sorted order, written without building it
        deeper = inner + "  "
        params = ("," + deeper).join(
            f"{encode_basestring_ascii(k)}: "
            f"{encode_basestring_ascii(fmt_exact(v))}"
            for k, v in sorted(value.params.items()))
        items = (f'"check_id": {encode_basestring_ascii(value.check_id)}',
                 f'"lhs": {encode_basestring_ascii(value.lhs)}',
                 f'"note": {encode_basestring_ascii(value.note)}',
                 f'"params": {{{deeper}{params}{inner}}}' if params
                 else '"params": {}',
                 f'"rhs": {encode_basestring_ascii(value.rhs)}',
                 f'"status": {encode_basestring_ascii(value.status)}')
        opening, closing = "{", "}"
    elif isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"key {key!r} of type {type(key).__name__} "
                                "is not a str")
        items = (f"{encode_basestring_ascii(k)}: {_json(v, inner)}"
                 for k, v in sorted(value.items()))
        opening, closing = "{", "}"
    elif isinstance(value, (list, tuple)):
        items = (_json(v, inner) for v in value)
        opening, closing = "[", "]"
    else:
        raise TypeError(f"{type(value).__name__} value {value!r} is not exact "
                        "report data")
    body = ("," + inner).join(items)
    if not body:
        return opening + closing + end
    return "".join((opening, inner, body, newline, closing, end))


def context_dict(ctx) -> dict:
    """The context block of reports and tables, as exact strings."""
    return {"s": str(ctx.s), "q": str(ctx.q), "omega": str(ctx.omega),
            "omega0": str(ctx.omega0)}


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

    def to_json(self) -> str:
        return json_text({"context": self.context, "seed": self.seed,
                          "summary": self.counts,
                          "records": self.sorted_records()})

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
