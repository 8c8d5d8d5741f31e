"""Command-line front end: verification runs and exact-value tables.

Exit codes: 0 all checks pass (documented discrepancies allowed), 1 at least
one check failed, 2 usage error, 3 output I/O error.  Identical
configurations (including the seed) produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from fractions import Fraction
from itertools import product

from .context import HALF_HALF, QContext, frac
from .families import position_coefficients
from .hahn import hahn_antiderivative, hahn_derivative_poly, hahn_integral_closed
from .matel import matel_at, matel_closed, matel_oracle
from .operators import FAMILIES
from .poly import Poly
from .report import context_dict, fmt_exact, json_text
from .series import genfun_terms
from .verify import LIMITS, SUITE_NAMES, RunConfig, run_suites

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _non_negative(text: str) -> int:
    """argparse type of --order and --nmax: an int >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--s", default=RunConfig.s,
                        help="base root s as a rational string; q = s^2")
    parser.add_argument("--omega", default=RunConfig.omega,
                        help="Hahn shift omega as a rational string")
    parser.add_argument("--order", type=_non_negative, default=RunConfig.order,
                        help="series truncation order")
    parser.add_argument("--nmax", type=_non_negative, default=RunConfig.nmax,
                        help="largest family index to check or tabulate; "
                             "verify caps it per suite and check: " + ", ".join(
                                 f"{k} {v}" for k, v in LIMITS.items()))
    parser.add_argument("--format", dest="fmt", default="text",
                        choices=("json", "csv", "text"))
    parser.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qoscpoly",
        description="Exact verification of the q-Gaussian, q-factorial and "
                    "Hahn factorial polynomial families")
    sub = parser.add_subparsers(dest="command", required=True)
    pv = sub.add_parser("verify", help="run verification suites")
    _add_common(pv)
    pv.add_argument("--seed", type=int, default=RunConfig.seed,
                    help="seed for randomized polynomial cases")
    pv.add_argument("--suite", action="append", choices=SUITE_NAMES,
                    help="suite to run (repeatable; default: all)")
    pt = sub.add_parser("table", help="emit exact value tables")
    pt.add_argument("kind", choices=TABLE_KINDS)
    _add_common(pt)
    return parser


def _write(text: str, path: str | None) -> int:
    if path is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_verify(args) -> int:
    config = RunConfig(s=args.s, omega=args.omega, order=args.order,
                       nmax=args.nmax,
                       suites=tuple(args.suite or SUITE_NAMES), seed=args.seed)
    try:
        report = run_suites(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    text = {"json": report.to_json, "csv": report.to_csv,
            "text": report.to_text}[args.fmt]()
    status = _write(text, args.out)
    if status != EXIT_OK:
        return status
    return EXIT_OK if report.ok else EXIT_VERIFICATION_FAILED


def _poly_rows(ctx: QContext, nmax: int, order: int) -> list[dict]:
    rows = [family.basis.elements(ctx, nmax + 1) for family in FAMILIES]
    return [{"family": family.name, "n": n, "variable": family.basis.var,
             "coeffs": [fmt_exact(c) for c in row[n].coeffs]}
            for n in range(nmax + 1) for family, row in zip(FAMILIES, rows)]


def _matel_rows(ctx: QContext, nmax: int, order: int) -> list[dict]:
    rows = []
    mu = HALF_HALF
    mu_v = str(mu.value)
    for family in FAMILIES:
        closed, oracle = (matel_at(build(ctx, family, mu, mu, nmax), 1, 1)
                          for build in (matel_closed, matel_oracle))
        for n, r in product(range(nmax + 1), repeat=2):
            c, o = closed[n][r], oracle[n][r]
            rows.append({"family": family.name, "mu": mu_v, "nu": mu_v,
                         "alpha": "1", "beta": "1", "n": n, "r": r,
                         "closed": fmt_exact(c), "oracle": fmt_exact(o),
                         "agree": c == o})
    return rows


def _genfun_rows(ctx: QContext, nmax: int, order: int) -> list[dict]:
    return [{"family": family, "x": str(x), "n": n,
             "series_coeff": fmt_exact(coeff),
             "poly_over_factorial": fmt_exact(value)}
            for family, x, n, coeff, value
            in genfun_terms(ctx, (Fraction(1, 3), Fraction(2)), order)]


def _position_rows(ctx: QContext, nmax: int, order: int) -> list[dict]:
    return [{"n": n, "coeffs": [fmt_exact(v) for v in c.coeffs]}
            for n, c in enumerate(position_coefficients(ctx, nmax))]


def _hahn_rows(ctx: QContext, nmax: int, order: int) -> list[dict]:
    rows = []
    for k in range(nmax + 1):
        p = Poly.monomial(k)
        deriv = hahn_derivative_poly(ctx, p)
        anti = hahn_antiderivative(ctx, p)
        rows.append({"power": k,
                     "derivative_coeffs": [fmt_exact(c) for c in deriv.coeffs],
                     "antiderivative_coeffs": [fmt_exact(c) for c in anti.coeffs],
                     "integral_to_1": fmt_exact(hahn_integral_closed(ctx, p, 1))})
    return rows


# one row builder per table kind, each called as build(ctx, nmax, order)
TABLE_ROWS = {"poly": _poly_rows, "matel": _matel_rows, "genfun": _genfun_rows,
              "position": _position_rows, "hahn": _hahn_rows}
TABLE_KINDS = tuple(TABLE_ROWS)


def _table_rows(ctx: QContext, kind: str, nmax: int, order: int) -> list[dict]:
    return TABLE_ROWS[kind](ctx, nmax, order)


def cmd_table(args) -> int:
    try:
        ctx = QContext(frac(args.s), frac(args.omega))
        rows = _table_rows(ctx, args.kind, args.nmax, args.order)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    payload = {"context": context_dict(ctx), "kind": args.kind, "rows": rows}
    if args.fmt == "json":
        text = json_text(payload)
    elif args.fmt == "csv":
        buf = io.StringIO()
        fieldnames = sorted({k for row in rows for k in row})
        writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: fmt_exact(v) if isinstance(v, (list, tuple))
                             else v for k, v in row.items()})
        text = buf.getvalue()
    else:
        lines = [f"# kind={args.kind} q={ctx.q} omega={ctx.omega}"]
        for row in rows:
            lines.append(" ".join(f"{k}={fmt_exact(v)}" for k, v in row.items()))
        text = "\n".join(lines) + "\n"
    return _write(text, args.out)


def main(argv=None) -> int:
    # argparse takes a negative rational such as -1/3 after a space for an
    # option, so it is joined to its --s or --omega as --omega=-1/3
    words = []
    for word in sys.argv[1:] if argv is None else argv:
        negative = word[:1] == "-" and word[1:2].isdigit()
        if negative and words[-1:] in (["--s"], ["--omega"]):
            words[-1] += "=" + word
        else:
            words.append(word)
    args = build_parser().parse_args(words)
    if args.command == "verify":
        return cmd_verify(args)
    return cmd_table(args)


if __name__ == "__main__":
    sys.exit(main())
