"""Acceptance suite: one test per published acceptance criterion.

Each test prints a single pass/fail line on the real terminal (bypassing
capture) and then asserts, so a plain ``pytest -v`` run shows all ten
verdicts.  Exact checks compare Fractions; the only tolerances are the
stated 1e-9 bounds on truncated infinite products.
"""

import json
import random
from fractions import Fraction as F

import pytest

from qoscpoly import (FAMILIES, HAHN, HALF_HALF, HALF_ZERO, QGAUSSIAN, Basis,
                      MatElParams, Poly, QContext, algebra_relations_check,
                      basic_hyp_terminating, cli, connect_hahn_gaussian,
                      difference_equation_residual, expand_in_basis,
                      exp_pair_identity_residual, family_basis_poly,
                      gaussian_genfun_lhs, hahn_derivative_poly,
                      hahn_exp_normalized,
                      hahn_factorial, hahn_genfun_lhs, hahn_integral_closed,
                      jackson_derivative, ladder_apply, ladder_apply_analytic,
                      leibniz_residuals, matel_closed, matel_oracle,
                      position_coefficients, q_binomial,
                      q_double_factorial_even, q_factorial, q_int,
                      qfactorial_pochhammer_value, qfactorial_u, qgaussian,
                      vector_to_poly)
from qoscpoly.families import FamilyVector
from qoscpoly.hahn import hahn_antiderivative
from qoscpoly.report import DISCREPANCY
from qoscpoly.series import e_type_series, recip_poch_series, TruncSeries
from qoscpoly.verify import RunConfig, run_suites

QS = (F(1, 4), F(1, 2))
OMEGAS = (F(0), F(1, 8), F(1, 3))
HALVES = (HALF_ZERO, HALF_HALF)
AB = (F(0), F(1), F(-1, 2), F(1, 3))


def verdict(capsys, number, ok, description):
    with capsys.disabled():
        print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - "
              f"{description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_triple_construction(capsys):
    ok = True
    for q in QS:
        for omega in OMEGAS:
            ctx = QContext.from_q(q, omega)
            for n in range(16):
                ok &= (qgaussian(ctx, n, "product")
                       == qgaussian(ctx, n, "recursion")
                       == qgaussian(ctx, n, "explicit_sum"))
                ok &= (hahn_factorial(ctx, n, "product")
                       == hahn_factorial(ctx, n, "recursion")
                       == hahn_factorial(ctx, n, "explicit_sum"))
            for n in range(16):
                p = qfactorial_u(ctx, n)
                for x in range(11):
                    ok &= p(q ** x) == qfactorial_pochhammer_value(ctx, n, x)
    verdict(capsys, 1, ok,
            "three constructions agree exactly for every family")


def test_criterion_02_ladder_algebra(capsys):
    ok = True
    for s in (F(1, 2), F(3, 4)):
        ctx = QContext(s, F(1, 8))
        for family in FAMILIES:
            for n in range(13):
                pn = family_basis_poly(ctx, family.basis, n)
                for direction in ("lower", "raise"):
                    vec = ladder_apply(ctx, family, direction,
                                       FamilyVector(family.basis, [0] * n + [1]))
                    analytic = ladder_apply_analytic(ctx, family, direction, pn)
                    ok &= analytic == vector_to_poly(ctx, vec)
            ok &= all(c.passed
                      for c in algebra_relations_check(ctx, family, 12))
        for family in (QGAUSSIAN, HAHN):
            p = Poly.one()
            for n in range(1, 11):
                p = ladder_apply_analytic(ctx, family, "raise", p)
                ok &= (ctx.q_pow(n * (n - 1) // 2) * p
                       == family_basis_poly(ctx, family.basis, n))
    verdict(capsys, 2, ok,
            "analytic and basis ladder actions, eigen-relations, and "
            "repeated raising all exact")


def test_criterion_03_difference_equation(capsys):
    ok = True
    for q in QS:
        ctx = QContext.from_q(q)
        for n in range(13):
            ok &= difference_equation_residual(ctx, n).is_zero()
    verdict(capsys, 3, ok, "difference-equation residual is the zero "
            "polynomial for n <= 12")


def test_criterion_04_generating_functions(capsys):
    ok = True
    xs = (F(-1), F(0), F(1, 3), F(2))
    for s in (F(1, 2), F(3, 4)):
        ctx = QContext(s, F(1, 8))
        q = ctx.q
        for x in xs:
            g = gaussian_genfun_lhs(ctx, x, 12)
            h = hahn_genfun_lhs(ctx, x, 12)
            for n in range(13):
                fact = q_factorial(ctx, n)
                ok &= g.coeff(n) == qgaussian(ctx, n)(x) / fact
                ok &= h.coeff(n) == hahn_factorial(ctx, n)(x) / fact
        # terminating forms in u = q^x at integer x <= 8: both finite sums
        # are polynomials in t, compared at exact rational points
        for x in range(9):
            for t in (F(1, 3), F(-2), F(5, 7)):
                lhs = basic_hyp_terminating(ctx, [q ** -x, 0], [], t * q ** x)
                rhs = sum((qfactorial_pochhammer_value(ctx, n, x) * t ** n
                           / q_factorial(ctx, n) for n in range(x + 1)), F(0))
                ok &= lhs == rhs
                lhs = basic_hyp_terminating(ctx, [q ** -x], [], -t * q ** x)
                rhs = sum((ctx.q_pow(n * (n - 1) // 2)
                           * qfactorial_pochhammer_value(ctx, n, x) * t ** n
                           / q_factorial(ctx, n) for n in range(x + 1)), F(0))
                ok &= lhs == rhs
        # factorization of the raising series into two Euler factors
        for x in (F(1, 3), F(2)):
            lhs = TruncSeries([s ** n * qgaussian(ctx, n)(x)
                               / q_factorial(ctx, n) for n in range(13)])
            rhs = (recip_poch_series(ctx, s * x * (1 - q), 12)
                   * e_type_series(ctx, s * (1 - q), 12))
            ok &= lhs == rhs
    verdict(capsys, 4, ok, "generating-function coefficients, terminating "
            "u-forms, and the Euler factorization are exact")


def test_criterion_05_inversion_connection(capsys):
    ok = True
    rng = random.Random(5)
    for s in (F(1, 2), F(3, 4)):
        ctx = QContext(s, F(1, 8))
        # monomial inversion as an exact polynomial identity, degree <= 15
        for n in range(16):
            recon = sum((q_binomial(ctx, n, k) * qgaussian(ctx, k)
                         for k in range(n + 1)), Poly.zero())
            ok &= recon == Poly.monomial(n)
        # round trips through every expandable basis on random polynomials
        for basis in (Basis.QGAUSSIAN, Basis.HAHN_FACTORIAL,
                      Basis.SHIFTED_MONOMIAL):
            for _ in range(4):
                p = Poly([F(rng.randint(-9, 9), rng.randint(1, 9))
                          for _ in range(15)] + [1])
                ok &= vector_to_poly(ctx, expand_in_basis(ctx, p, basis)) == p
        for n in range(16):
            ok &= connect_hahn_gaussian(ctx, n) == hahn_factorial(ctx, n)
        q = ctx.q
        for n in range(9):
            for x in (F(1, 3), F(2), F(-1)):
                first = basic_hyp_terminating(ctx, [q ** -n, 1 / x], [],
                                              x * q ** n)
                ok &= first == x ** n
                acc = F(0)
                for j in range(n + 1):
                    sign = -1 if j % 2 else 1
                    acc += (sign * q_binomial(ctx, n, j)
                            * ctx.q_pow(j * (j - 1) // 2)
                            * basic_hyp_terminating(
                                ctx, [q ** -(n - j), 0], [], x * q ** (n - j)))
                ok &= acc == x ** n
    verdict(capsys, 5, ok, "inversion round-trips, the connection formula "
            "and both terminating 2phi0 identities are exact")


def test_criterion_06_matrix_element_grid(capsys):
    exact_ok = True
    reduction_ok = True
    hahn_mismatches = 0
    cells = 0
    for s in (F(1, 2), F(3, 4)):
        for omega in (F(0), F(1, 8)):
            ctx = QContext(s, omega)
            ctx0 = ctx.with_omega(0)
            for family in FAMILIES:
                for mu in HALVES:
                    for nu in HALVES:
                        for alpha in AB:
                            for beta in AB:
                                for n in range(7):
                                    for r in range(7):
                                        p = MatElParams(mu, nu, alpha, beta,
                                                        n, r)
                                        closed = matel_closed(ctx, family, p)
                                        oracle = matel_oracle(ctx, family, p)
                                        cells += 1
                                        if closed != oracle:
                                            if family is HAHN:
                                                hahn_mismatches += 1
                                            else:
                                                exact_ok = False
                                        if family is HAHN and omega != 0:
                                            g = matel_closed(ctx0, QGAUSSIAN, p)
                                            h = matel_closed(ctx0, HAHN, p)
                                            reduction_ok &= g == h
    ok = exact_ok and reduction_ok and cells == 2 * 2 * 3 * 4 * 16 * 49
    verdict(capsys, 6, ok,
            f"closed forms match the oracle on all {cells} cells except "
            f"{hahn_mismatches} Hahn cells carried as documented "
            "discrepancies; the omega=0 Hahn column equals the q-Gaussian "
            "column")


def test_criterion_07_position_coefficients(capsys):
    ok = True
    for s in (F(1, 2), F(3, 4)):
        ctx = QContext(s, F(1, 8))
        q = ctx.q
        cs = position_coefficients(ctx, 13)
        x = Poly([0, 1])
        i2, i3, i4 = q_int(ctx, 2), q_int(ctx, 3), q_int(ctx, 4)
        printed = {
            1: x,
            2: (x * x - 1) / i2,
            3: (x ** 3 - x * (1 + i2 / q)) / q_factorial(ctx, 3),
            4: (x ** 4 - x * x * (1 + i2 / q + i3 / q ** 2) + i3 / q ** 2)
               / q_factorial(ctx, 4),
            5: (x ** 5 - x ** 3 * (1 + i2 / q + i3 / q ** 2 + i4 / q ** 3)
                + x * (i3 / q ** 2 + i4 / q ** 3 + i2 * i4 / q ** 4))
               / q_factorial(ctx, 5),
        }
        for n, expect in printed.items():
            ok &= cs[n] == expect
        for n in range(7):
            sign = -1 if n % 2 else 1
            ok &= cs[2 * n](0) == (sign * ctx.q_pow(n * (1 - n))
                                   / q_double_factorial_even(ctx, n))
            if 2 * n + 1 < len(cs):
                ok &= cs[2 * n + 1](0) == 0
    verdict(capsys, 7, ok, "printed coefficient polynomials c_1..c_5 and the "
            "closed forms at the origin are exact")


def test_criterion_08_hahn_calculus(capsys):
    ok = True
    ctx = QContext(F(1, 2), F(1, 8))
    rng = random.Random(8)

    def rand_poly(degree):
        return Poly([F(rng.randint(-9, 9), rng.randint(1, 9))
                     for _ in range(degree)] + [1])

    for _ in range(8):
        p = rand_poly(10)
        anti = hahn_antiderivative(ctx, p)
        ok &= hahn_derivative_poly(ctx, anti) == p
        for x in (F(1), F(-2, 3)):
            ok &= hahn_integral_closed(ctx, p, x) == anti(x)
            dp = hahn_derivative_poly(ctx, p)
            ok &= hahn_integral_closed(ctx, dp, x) == p(x) - p(ctx.omega0)
    for _ in range(20):
        pres, qres = leibniz_residuals(ctx, rand_poly(rng.randint(0, 6)),
                                       rand_poly(rng.randint(0, 6)))
        ok &= pres.is_zero() and qres.is_zero()
    bound = F(1, 10 ** 9)
    for x in (F(1, 4), F(-1, 3), F(2, 5)):
        e_x = hahn_exp_normalized(ctx, x, 40)
        e_step = hahn_exp_normalized(ctx, ctx.q * x + ctx.omega, 40)
        residual = abs((e_step - e_x) / ((ctx.q - 1) * x + ctx.omega) - e_x)
        ok &= residual < bound
    ctx0 = ctx.with_omega(0)
    p = rand_poly(8)
    ok &= hahn_derivative_poly(ctx0, p) == jackson_derivative(ctx0, p)
    verdict(capsys, 8, ok, "fundamental theorems, Leibniz rules, exponential "
            "residual < 1e-9 at K=40, and the omega=0 reduction hold")


def test_criterion_09_exponential_pairing(capsys):
    ok = True
    for s in (F(1, 2), F(3, 4)):
        ok &= exp_pair_identity_residual(QContext(s), 12).is_zero()
    report = run_suites(RunConfig(suites=("qseries",), nmax=6, order=12))
    alternates = [r for r in report.records
                  if r.check_id == "qseries/exp-pair-alternate"]
    ok &= len(alternates) == 1 and alternates[0].status == DISCREPANCY
    verdict(capsys, 9, ok, "pair identity is an exact zero series to order "
            "12; the alternate pairing is surfaced as a documented "
            "discrepancy")


def test_criterion_10_cli_contract(capsys, monkeypatch, tmp_path):
    ok = True
    argv = ["verify", "--suite", "polyfamilies", "--nmax", "6",
            "--order", "8", "--seed", "1", "--format", "json"]
    outputs = []
    for run in range(2):
        path = tmp_path / f"run{run}.json"
        code = cli.main(argv + ["--out", str(path)])
        ok &= code == cli.EXIT_OK
        outputs.append(path.read_bytes())
    ok &= outputs[0] == outputs[1]
    ok &= json.loads(outputs[0])["summary"]["fail"] == 0
    ok &= cli.main(["verify", "--s", "3/2"]) == cli.EXIT_USAGE
    import qoscpoly.verify as verify
    from qoscpoly.report import record as make_record
    monkeypatch.setitem(
        verify.SUITES, "qkernel",
        lambda ctx, nmax, order, rng: [
            make_record("stub/forced-failure", {}, False, 0, 1)])
    code = cli.main(["verify", "--suite", "qkernel",
                     "--out", str(tmp_path / "fail.txt")])
    ok &= code == cli.EXIT_VERIFICATION_FAILED
    capsys.readouterr()
    verdict(capsys, 10, ok, "byte-identical reports for identical configs; "
            "exit codes honored for pass, failure and usage errors")
