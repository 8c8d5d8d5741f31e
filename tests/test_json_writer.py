"""The JSON writer of reports and tables against ``json.dumps``.

``report.json_text`` must write exactly what
``json.dumps(value, indent=2, sort_keys=True) + "\\n"`` writes, for the
values reports and tables hold, and must not hold a report as one dict or
as a list of tokens while it writes it.
"""

import json
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qoscpoly import QContext, cli
from qoscpoly.report import (CheckRecord, VerificationReport, context_dict,
                              fmt_exact, json_text)
from qoscpoly.verify import RunConfig, run_suites


def reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def assert_same_lines(text, expected):
    # line lists, so that a failure names the first differing line instead
    # of diffing megabytes of text
    assert text.splitlines(True) == expected.splitlines(True)


# quotes, backslashes, control characters, non-ASCII (one past the BMP) and
# lone surrogates, besides whatever the drawn characters bring
SPECIAL = ['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "\xa0", "\xe9",
           "\u2028", "\U0001f600", "\ud800", "\udfff"]
strings = st.text(st.one_of(st.characters(exclude_categories=()),
                            st.sampled_from(SPECIAL)), max_size=8)
scalars = st.one_of(st.none(), st.booleans(), st.integers(), strings)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(strings, inner, max_size=4)),
    max_leaves=30)


@given(values)
@settings(max_examples=150, deadline=None)
@example([])
@example({})
@example(())
@example([[], {}, ()])
@example({"": {"a": [], "b": {}}, "c": [[[{}]]], "d": ({"e": ()},)})
@example({"\ud800": "\udfff", '"\\': "\x00\x1f\x7f", "é": "\U0001f600"})
@example([True, False, None, 0, -1, 10 ** 100])
def test_matches_json_dumps(value):
    assert json_text(value) == reference(value)


def record_dict(r):
    """A record in the dict form a report's json writes it as."""
    return {"check_id": r.check_id,
            "params": {k: fmt_exact(v) for k, v in r.params.items()},
            "status": r.status, "lhs": r.lhs, "rhs": r.rhs, "note": r.note}


param_values = st.one_of(
    strings, st.integers(), st.fractions(), st.none(),
    st.lists(st.one_of(st.integers(), st.fractions(), strings), max_size=3))
records = st.builds(CheckRecord, strings,
                    st.dictionaries(strings, param_values, max_size=4),
                    strings, strings, strings, strings)


@given(st.lists(records, max_size=3), strings)
@settings(max_examples=100, deadline=None)
@example([CheckRecord("", {}, "", "", "")], "")
@example([CheckRecord('"\\', {"\ud800": [Fraction(-1, 3), None]},
                      "\x7f", "\u2028", "\U0001f600", "\x00")], "\udfff")
def test_records_match_json_dumps(recs, key):
    # a record is written from its fields at the depth it is given: in a
    # list, inside a dict inside a list, and in a list inside a dict
    dicts = [record_dict(r) for r in recs]
    for value, form in ((recs, dicts),
                        ([{key: r} for r in recs], [{key: d} for d in dicts]),
                        ({key: recs}, {key: dicts})):
        assert json_text(value) == reference(form)
    # a Fraction outside a record is still not report data
    with pytest.raises(TypeError):
        json_text(recs + [Fraction(1, 2)])
    with pytest.raises(TypeError):
        json_text([{key: recs, "": Fraction(1, 2)}])


def test_empty_report_matches_json_dumps():
    ctx = QContext(Fraction(1, 2), Fraction(1, 8))
    rep = VerificationReport(context=context_dict(ctx), seed=3)
    assert rep.to_json() == reference(
        {"context": rep.context, "seed": 3, "summary": rep.counts,
         "records": []})


@pytest.fixture(scope="module")
def small_report():
    """The report of ``verify --nmax 4 --order 6``, built once."""
    return run_suites(RunConfig(nmax=4, order=6))


def test_report_matches_json_dumps(small_report):
    rep = small_report
    expected = {
        "context": rep.context,
        "seed": rep.seed,
        "summary": rep.counts,
        "records": [{"check_id": r.check_id,
                     "params": {k: fmt_exact(v) for k, v in r.params.items()},
                     "status": r.status, "lhs": r.lhs, "rhs": r.rhs,
                     "note": r.note}
                    for r in sorted(rep.records, key=lambda r: r.check_id)],
    }
    assert_same_lines(rep.to_json(), reference(expected))


@pytest.mark.parametrize("kind", list(cli.TABLE_ROWS))
def test_table_matches_json_dumps(capsys, kind):
    assert cli.main(["table", kind, "--nmax", "3", "--order", "4",
                     "--format", "json"]) == cli.EXIT_OK
    ctx = QContext(Fraction(1, 2), Fraction(1, 8))
    payload = {"context": context_dict(ctx), "kind": kind,
               "rows": cli._table_rows(ctx, kind, 3, 4)}
    assert_same_lines(capsys.readouterr().out, reference(payload))


@pytest.mark.parametrize("value", [
    1.5, Fraction(1, 3), [0, 0.0], {"a": Fraction(1, 2)}, {1: "one"},
    {"a": {None: 1}}, {("a",): 1}, {"a": [{2.0: True}]}, {1, 2}, b"x",
], ids=repr)
def test_rejects_inexact_values(value):
    with pytest.raises(TypeError):
        json_text(value)


def test_report_memory_peak(small_report):
    # the records are written one at a time; a dict of the whole report or
    # a list of its tokens, the way json.dumps with an indent works, peaks
    # near nine times the text's length
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        text = small_report.to_json()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 4 * len(text), (peak, len(text))
