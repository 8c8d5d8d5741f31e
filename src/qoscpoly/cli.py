"""Command-line front end: verification runs and exact-value tables.

Exit codes: 0 all checks pass (documented discrepancies allowed), 1 at least
one check failed, 2 usage error, 3 output I/O error.  Identical
configurations (including the seed) produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from .context import HALF_HALF, HALF_ZERO, QContext, frac
from .families import position_coefficients, qfactorial_u, qgaussian, hahn_factorial
from .hahn import hahn_antiderivative, hahn_derivative_poly, hahn_integral_closed
from .matel import MatElParams, matel_closed, matel_oracle
from .operators import FAMILIES
from .qarith import q_factorial
from .report import fmt_exact
from .series import gaussian_genfun_lhs, hahn_genfun_lhs
from .verify import SUITE_NAMES, RunConfig, context_dict, run_suites

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

TABLE_KINDS = ("poly", "matel", "genfun", "position", "hahn")


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--s", default=RunConfig.s,
                        help="base root s as a rational string; q = s^2")
    parser.add_argument("--omega", default=RunConfig.omega,
                        help="Hahn shift omega as a rational string")
    parser.add_argument("--order", type=int, default=RunConfig.order,
                        help="series truncation order")
    parser.add_argument("--nmax", type=int, default=RunConfig.nmax,
                        help="largest family index to check or tabulate; "
                             "verify caps it per suite: qkernel 20, "
                             "polyfamilies 15, operators 12, matrixelements "
                             "6, hahncalc polynomial degree 10")
    parser.add_argument("--format", dest="fmt", default="text",
                        choices=("json", "csv", "text"))
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--seed", type=int, default=RunConfig.seed,
                        help="seed for randomized polynomial cases")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qoscpoly",
        description="Exact verification of the q-Gaussian, q-factorial and "
                    "Hahn factorial polynomial families")
    sub = parser.add_subparsers(dest="command", required=True)
    pv = sub.add_parser("verify", help="run verification suites")
    _add_common(pv)
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
    if args.fmt == "json":
        text = report.to_json()
    elif args.fmt == "csv":
        text = report.to_csv()
    else:
        text = report.to_text()
    status = _write(text, args.out)
    if status != EXIT_OK:
        return status
    return EXIT_OK if report.ok else EXIT_VERIFICATION_FAILED


def _table_rows(ctx: QContext, kind: str, nmax: int, order: int) -> list[dict]:
    rows = []
    if kind == "poly":
        for n in range(nmax + 1):
            rows.append({"family": "qgaussian", "n": n, "variable": "x",
                         "coeffs": [str(c) for c in qgaussian(ctx, n).coeffs]})
            rows.append({"family": "qfactorial", "n": n, "variable": "u",
                         "coeffs": [str(c) for c in qfactorial_u(ctx, n).coeffs]})
            rows.append({"family": "hahn", "n": n, "variable": "x",
                         "coeffs": [str(c) for c in hahn_factorial(ctx, n).coeffs]})
        return rows
    if kind == "matel":
        mu = HALF_HALF if ctx.has_root else HALF_ZERO
        alpha = beta = Fraction(1)
        for family in FAMILIES:
            for n in range(nmax + 1):
                for r in range(nmax + 1):
                    p = MatElParams(mu, mu, alpha, beta, n, r)
                    closed = matel_closed(ctx, family, p)
                    oracle = matel_oracle(ctx, family, p)
                    rows.append({"family": family.name, "mu": str(mu.value),
                                 "nu": str(mu.value), "alpha": str(alpha),
                                 "beta": str(beta), "n": n, "r": r,
                                 "closed": str(closed), "oracle": str(oracle),
                                 "agree": closed == oracle})
        return rows
    if kind == "genfun":
        for x in (Fraction(1, 3), Fraction(2)):
            g = gaussian_genfun_lhs(ctx, x, order)
            h = hahn_genfun_lhs(ctx, x, order)
            for n in range(order + 1):
                fact = q_factorial(ctx, n)
                rows.append({"family": "qgaussian", "x": str(x), "n": n,
                             "series_coeff": str(g.coeff(n)),
                             "poly_over_factorial": str(qgaussian(ctx, n)(x) / fact)})
                rows.append({"family": "hahn", "x": str(x), "n": n,
                             "series_coeff": str(h.coeff(n)),
                             "poly_over_factorial": str(hahn_factorial(ctx, n)(x) / fact)})
        return rows
    if kind == "position":
        for n, c in enumerate(position_coefficients(ctx, nmax)):
            rows.append({"n": n, "coeffs": [str(v) for v in c.coeffs]})
        return rows
    if kind == "hahn":
        from .poly import Poly
        for k in range(nmax + 1):
            p = Poly.monomial(k)
            deriv = hahn_derivative_poly(ctx, p)
            anti = hahn_antiderivative(ctx, p)
            rows.append({"power": k,
                         "derivative_coeffs": [str(c) for c in deriv.coeffs],
                         "antiderivative_coeffs": [str(c) for c in anti.coeffs],
                         "integral_to_1": str(hahn_integral_closed(ctx, p, 1))})
        return rows
    raise ValueError(f"unknown table kind {kind!r}")


def cmd_table(args) -> int:
    try:
        ctx = QContext(frac(args.s), frac(args.omega))
        rows = _table_rows(ctx, args.kind, args.nmax, args.order)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    payload = {"context": context_dict(ctx), "kind": args.kind, "rows": rows}
    if args.fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
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
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args)
    return cmd_table(args)


if __name__ == "__main__":
    sys.exit(main())
