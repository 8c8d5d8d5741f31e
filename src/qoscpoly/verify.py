"""Verification suites: every identity in scope as a machine-checkable record.

Each suite function takes the context plus size limits and returns a list of
CheckRecords.  Exact identities compare Fractions for equality; the few
truncation-bounded checks (infinite products) carry explicit tolerances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import hahn as hahnmod
from . import matel as matelmod
from . import operators as opsmod
from . import series as seriesmod
from .context import HALF_HALF, HALF_ONE, HALF_ZERO, QContext, frac
from .families import (Basis, connect_hahn_gaussian, expand_in_basis,
                       hahn_factorial, position_coefficients,
                       qfactorial_pochhammer_value, qgaussian,
                       qgaussian_via_qexp_operator, vector_to_poly)
from .poly import VAR_T, Poly
from .qarith import (q_binomial, q_double_factorial_even, q_factorial, q_int,
                     q_pochhammer, q_pochhammer_inf)
from .report import CheckRecord, VerificationReport, record

SUITE_NAMES = ("qkernel", "qseries", "polyfamilies", "operators",
               "matrixelements", "hahncalc")
# each suite checks indices up to min(nmax, limit); hahncalc's limit is the
# degree of its random polynomials
SUITE_LIMITS = {"qkernel": 20, "polyfamilies": 15, "operators": 12,
                "matrixelements": 6, "hahncalc": 10}
# three checks stop below their suite's limit, at min(nmax, limit)
CHECK_LIMITS = {"polyfamilies/qfactorial-identity": 10,
                "polyfamilies/inversion": 12, "matrixelements/special-form": 5}


def _rand_frac(rng: random.Random, span: int = 9) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def _rand_poly(rng: random.Random, degree: int) -> Poly:
    coeffs = [_rand_frac(rng) for _ in range(degree)] + [
        Fraction(rng.randint(1, 9), rng.randint(1, 9))]
    return Poly(coeffs)


def suite_qkernel(ctx: QContext, nmax: int, order: int,
                  rng: random.Random) -> list[CheckRecord]:
    out = []
    q = ctx.q
    nmax = min(nmax, SUITE_LIMITS["qkernel"])
    for n in range(nmax + 1):
        for k in range(n + 1):
            lhs = q_binomial(ctx, n + 1, k)
            rhs_a = q_binomial(ctx, n, k) + q ** (n + 1 - k) * q_binomial(ctx, n, k - 1)
            rhs_b = q_binomial(ctx, n, k - 1) + q ** k * q_binomial(ctx, n, k)
            out.append(record(f"qkernel/pascal-a/n={n:02d},k={k:02d}",
                              {"n": n, "k": k}, lhs == rhs_a, lhs, rhs_a,
                              "q-Pascal rule with weight q^(n+1-k)"))
            out.append(record(f"qkernel/pascal-b/n={n:02d},k={k:02d}",
                              {"n": n, "k": k}, lhs == rhs_b, lhs, rhs_b,
                              "q-Pascal rule with weight q^k"))
    for n in range(nmax + 1):
        lhs = q_factorial(ctx, n)
        rhs = q_pochhammer(ctx, q, n) / (1 - q) ** n
        out.append(record(f"qkernel/factorial-pochhammer/n={n:02d}", {"n": n},
                          lhs == rhs, lhs, rhs, "[n]_q! = (q;q)_n/(1-q)^n"))
    for m in range(11):
        for n in range(11 - m):
            z = _rand_frac(rng)
            lhs = q_pochhammer(ctx, z, m + n)
            rhs = q_pochhammer(ctx, z, m) * q_pochhammer(ctx, z * q ** m, n)
            out.append(record(f"qkernel/pochhammer-split/m={m:02d},n={n:02d}",
                              {"m": m, "n": n, "z": z}, lhs == rhs, lhs, rhs))
    if ctx.has_root:
        for a in range(-4, 5):
            for b in range(-4, 5):
                lhs = ctx.pow_half(HALF_HALF, a) * ctx.pow_half(HALF_HALF, b)
                rhs = ctx.pow_half(HALF_HALF, a + b)
                out.append(record(
                    f"qkernel/half-power-additive/a={a:+d},b={b:+d}",
                    {"a": a, "b": b}, lhs == rhs, lhs, rhs))
    return out


def suite_qseries(ctx: QContext, nmax: int, order: int,
                  rng: random.Random) -> list[CheckRecord]:
    out = []
    q = ctx.q
    tol = Fraction(1, 10 ** 12)
    # Euler expansions against the tail-bounded infinite product
    for z in (Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5)):
        prod_val, _ = q_pochhammer_inf(ctx, z, tol)
        # 80-term partial sums of the two expansions at t = 1
        e_sum = sum(seriesmod.e_type_series(ctx, z, 79).coeffs)
        r_sum = sum(seriesmod.recip_poch_series(ctx, z, 79).coeffs)
        bound = Fraction(1, 10 ** 9)
        ok = abs(e_sum - prod_val) < bound
        out.append(record(f"qseries/euler-product/z={z}", {"z": z, "tol": bound},
                          ok, e_sum, prod_val,
                          "sum (-1)^n q^C(n,2) z^n/(q;q)_n vs (z;q)_inf"))
        recip_ok = abs(r_sum - 1 / prod_val) < bound
        out.append(record(f"qseries/euler-recip/z={z}", {"z": z, "tol": bound},
                          recip_ok, r_sum, 1 / prod_val,
                          "sum z^n/(q;q)_n vs 1/(z;q)_inf"))
    # generating functions, coefficient by coefficient
    phis = Basis.QGAUSSIAN.elements(ctx, order + 1)
    phidots = Basis.HAHN_FACTORIAL.elements(ctx, order + 1)
    for x in (Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(2)):
        g = seriesmod.gaussian_genfun_lhs(ctx, x, order)
        h = seriesmod.hahn_genfun_lhs(ctx, x, order)
        for n in range(order + 1):
            fact = q_factorial(ctx, n)
            lhs = g.coeff(n)
            rhs = phis[n](x) / fact
            out.append(record(
                f"qseries/gaussian-genfun/x={x},n={n:02d}", {"x": x, "n": n},
                lhs == rhs, lhs, rhs, "t^n coefficient vs phi_n(x)/[n]_q!"))
            lhs = h.coeff(n)
            rhs = phidots[n](x) / fact
            out.append(record(
                f"qseries/hahn-genfun/x={x},n={n:02d}", {"x": x, "n": n},
                lhs == rhs, lhs, rhs, "t^n coefficient vs phidot_n(x)/[n]_q!"))
    # omega = 0, mu = 0: pointwise exponential agreement
    ctx0 = ctx.with_omega(0)
    for x in (Fraction(1, 3), Fraction(-1, 2)):
        lhs = seriesmod.eqw_eval(ctx0, HALF_ZERO, x, order)
        series = seriesmod.emu_series(ctx, HALF_ZERO, x, order)
        rhs = sum(series.coeffs, Fraction(0))
        out.append(record(f"qseries/eqw-reduces/x={x}", {"x": x},
                          lhs == rhs, lhs, rhs,
                          "shift-free exponential matches the (q,mu) series"))
    if ctx.has_root:
        s = ctx.s
        # a series record lists all order + 1 terms, trailing zeros included
        res = seriesmod.exp_pair_identity_residual(ctx, order)
        out.append(record("qseries/exp-pair-identity", {"order": order},
                          res.is_zero(),
                          [res.coeff(n) for n in range(order + 1)], 0,
                          "E^(0)(t) E^(1/2)(-q^(-1/2) t) = 1, exact to order"))
        alt = seriesmod.exp_pair_alternate_residual(ctx, order)
        first = next((c for c in alt.coeffs if c != 0), Fraction(0))
        out.append(record("qseries/exp-pair-alternate", {"order": order},
                          alt.is_zero(), first, 0,
                          "alternate pairing E^(0)(t) E^(1/2)(-q^(1/2) t) does "
                          "not vanish; the -q^(-1/2) pairing is the identity",
                          discrepancy=True))
        # factorization of the raising-series applied to 1:
        # sum s^n phi_n(x) t^n/[n]! = 1/(s x (1-q) t; q)_inf * (s (1-q) t; q)_inf
        for x in (Fraction(1, 3), Fraction(2)):
            lhs = Poly([s ** n * phis[n](x) / q_factorial(ctx, n)
                        for n in range(order + 1)], VAR_T)
            rhs = seriesmod.recip_poch_series(ctx, s * x * (1 - q), order)
            rhs = rhs.mul_trunc(
                seriesmod.e_type_series(ctx, s * (1 - q), order), order)
            out.append(record(
                f"qseries/raising-series-factorizes/x={x}", {"x": x},
                lhs == rhs, [lhs.coeff(n) for n in range(order + 1)],
                [rhs.coeff(n) for n in range(order + 1)],
                "q^(n/2) phi_n(x)/[n]! series splits into two Euler factors"))
    return out


def suite_polyfamilies(ctx: QContext, nmax: int, order: int,
                       rng: random.Random) -> list[CheckRecord]:
    out = []
    nmax = min(nmax, SUITE_LIMITS["polyfamilies"])
    phis = Basis.QGAUSSIAN.elements(ctx, nmax + 1)
    phidots = Basis.HAHN_FACTORIAL.elements(ctx, nmax + 1)
    for n in range(nmax + 1):
        ok = (phis[n] == qgaussian(ctx, n, "recursion")
              == qgaussian(ctx, n, "explicit_sum"))
        out.append(record(f"polyfamilies/gaussian-three-way/n={n:02d}", {"n": n},
                          ok, list(phis[n].coeffs), "all three constructions"))
        ok = (phidots[n] == hahn_factorial(ctx, n, "recursion")
              == hahn_factorial(ctx, n, "explicit_sum"))
        out.append(record(f"polyfamilies/hahn-three-way/n={n:02d}", {"n": n},
                          ok, list(phidots[n].coeffs), "all three constructions"))
        op = qgaussian_via_qexp_operator(ctx, n)
        out.append(record(f"polyfamilies/gaussian-operator-form/n={n:02d}",
                          {"n": n}, op == phis[n], list(op.coeffs),
                          list(phis[n].coeffs),
                          "terminating exponential-of-derivative series"))
    cap = min(nmax, CHECK_LIMITS["polyfamilies/qfactorial-identity"])
    for n, pu in enumerate(Basis.QFACTORIAL.elements(ctx, cap + 1)):
        for x in range(11):
            lhs = pu(ctx.q_pow(x))
            rhs = qfactorial_pochhammer_value(ctx, n, x)
            out.append(record(
                f"polyfamilies/qfactorial-identity/n={n:02d},x={x:02d}",
                {"n": n, "x": x}, lhs == rhs, lhs, rhs,
                "u-product vs shifted-Pochhammer closed form"))
    # basis round trips on random polynomials
    for basis in (Basis.QGAUSSIAN, Basis.HAHN_FACTORIAL, Basis.SHIFTED_MONOMIAL):
        for trial in range(5):
            p = _rand_poly(rng, nmax)
            back = vector_to_poly(ctx, basis, expand_in_basis(ctx, p, basis))
            out.append(record(
                f"polyfamilies/roundtrip/{basis.name}/trial={trial}",
                {"basis": basis.name, "degree": p.degree}, back == p,
                list(back.coeffs), list(p.coeffs)))
    # monomial inversion, pointwise
    for n in range(min(nmax, CHECK_LIMITS["polyfamilies/inversion"]) + 1):
        for x in (Fraction(-1), Fraction(1, 3), Fraction(2), Fraction(5, 7),
                  Fraction(0)):
            lhs = sum((q_binomial(ctx, n, k) * phis[k](x)
                       for k in range(n + 1)), Fraction(0))
            out.append(record(
                f"polyfamilies/inversion/n={n:02d},x={x}", {"n": n, "x": x},
                lhs == x ** n, lhs, x ** n,
                "x^n = sum_k [n,k]_q phi_k(x)"))
    if ctx.omega0 != 0:
        for n in range(nmax + 1):
            lhs = connect_hahn_gaussian(ctx, n)
            rhs = phidots[n]
            out.append(record(f"polyfamilies/connection/n={n:02d}", {"n": n},
                              lhs == rhs, list(lhs.coeffs), list(rhs.coeffs),
                              "phidot_n = (-w0)^n phi_n(1 - x/w0)"))
    out.extend(_position_checks(ctx))
    return out


def _position_checks(ctx: QContext) -> list[CheckRecord]:
    out = []
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
        out.append(record(f"polyfamilies/position-c{n}", {"n": n},
                          cs[n] == expect, list(cs[n].coeffs),
                          list(expect.coeffs), "printed coefficient polynomial"))
    for n in range(7):
        lhs = cs[2 * n](0)
        sign = -1 if n % 2 else 1
        rhs = sign * ctx.q_pow(n * (1 - n)) / q_double_factorial_even(ctx, n)
        out.append(record(f"polyfamilies/position-even-origin/n={n}", {"n": n},
                          lhs == rhs, lhs, rhs,
                          "c_2n(0) = (-1)^n q^(n(1-n))/[2n]_q!!"))
        if 2 * n + 1 < len(cs):
            lhs = cs[2 * n + 1](0)
            out.append(record(f"polyfamilies/position-odd-origin/n={n}",
                              {"n": n}, lhs == 0, lhs, 0, "c_2n+1(0) = 0"))
    return out


def suite_operators(ctx: QContext, nmax: int, order: int,
                    rng: random.Random) -> list[CheckRecord]:
    out = []
    nmax = min(nmax, SUITE_LIMITS["operators"])
    for family in opsmod.FAMILIES:
        for n, pn in enumerate(family.basis.elements(ctx, nmax + 1)):
            for direction in ("lower", "raise"):
                coeffs = opsmod.ladder_apply(ctx, family, direction,
                                             [0] * n + [1])
                analytic = opsmod.ladder_apply_analytic(ctx, family, direction, pn)
                predicted = vector_to_poly(ctx, family.basis, coeffs)
                out.append(record(
                    f"operators/analytic-vs-basis/{family.name}/"
                    f"{direction}/n={n:02d}",
                    {"family": family.name, "direction": direction, "n": n},
                    analytic == predicted, list(analytic.coeffs),
                    list(predicted.coeffs)))
        out.extend(opsmod.algebra_relations_check(ctx, family, nmax))
    # repeated raising from the ground element
    for family in (opsmod.QGAUSSIAN, opsmod.HAHN):
        p = Poly.one()
        row = family.basis.elements(ctx, 11)
        for n in range(1, 11):
            p = opsmod.ladder_apply_analytic(ctx, family, "raise", p)
            lhs = ctx.q_pow(n * (n - 1) // 2) * p
            rhs = row[n]
            out.append(record(
                f"operators/raising-power/{family.name}/n={n:02d}",
                {"family": family.name, "n": n}, lhs == rhs,
                list(lhs.coeffs), list(rhs.coeffs),
                "q^(n(n-1)/2) (adag)^n . 1 reproduces the family polynomial"))
    for n in range(nmax + 1):
        res = opsmod.difference_equation_residual(ctx, n)
        out.append(record(f"operators/difference-equation/n={n:02d}", {"n": n},
                          res.is_zero(), list(res.coeffs), 0,
                          "((x-1) q^(-x d/dx) D_q - [n]_(1/q)) phi_n = 0"))
    # Jackson derivative is the q-Gaussian lowering action on monomials
    p = _rand_poly(rng, nmax)
    lhs = opsmod.jackson_derivative(ctx, p)
    rhs = opsmod.ladder_apply_analytic(ctx, opsmod.QGAUSSIAN, "lower", p)
    out.append(record("operators/jackson-is-lowering", {"degree": p.degree},
                      lhs == rhs, list(lhs.coeffs), list(rhs.coeffs)))
    return out


MATEL_AB_GRID = (Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(1, 3))


def suite_matrixelements(ctx: QContext, nmax: int, order: int,
                         rng: random.Random) -> list[CheckRecord]:
    out = []
    nmax = min(nmax, SUITE_LIMITS["matrixelements"])
    halves = (HALF_ZERO, HALF_HALF) if ctx.has_root else (HALF_ZERO, HALF_ONE)
    cells = list(product(range(nmax + 1), repeat=2))
    for mu, nu, alpha, beta in product(halves, halves, MATEL_AB_GRID,
                                       MATEL_AB_GRID):
        args = (mu, nu, alpha, beta, nmax)
        closed = {family: matelmod.matel_closed(ctx, family, *args)
                  for family in opsmod.FAMILIES}
        # at omega = 0 both sides of hahn-reduces are already in closed
        zero = closed if ctx.omega == 0 else {
            family: matelmod.matel_closed(ctx.with_omega(0), family, *args)
            for family in (opsmod.HAHN, opsmod.QGAUSSIAN)}
        for family in opsmod.FAMILIES:
            # the README predicts the Hahn closed form to miss the oracle
            # exactly where alpha*beta != 0, omega != 0; all else must match
            predicted = (family is opsmod.HAHN and ctx.omega != 0
                         and alpha * beta != 0)
            oracle = matelmod.matel_oracle(ctx, family, *args)
            for n, r in cells:
                c, o = closed[family][n][r], oracle[n][r]
                out.append(record(
                    f"matrixelements/closed-vs-oracle/{family.name}/"
                    f"mu={mu.value},nu={nu.value},a={alpha},b={beta},"
                    f"n={n},r={r}",
                    {"family": family.name, "mu": mu.value, "nu": nu.value,
                     "alpha": alpha, "beta": beta, "n": n, "r": r,
                     "ratio": c / o if o != 0 else None},
                    c == o, c, o, "closed form vs exact ladder-series oracle",
                    discrepancy=predicted))
        for n, r in cells:
            h, g = zero[opsmod.HAHN][n][r], zero[opsmod.QGAUSSIAN][n][r]
            out.append(record(
                f"matrixelements/hahn-reduces/mu={mu.value},nu={nu.value},"
                f"a={alpha},b={beta},n={n},r={r}",
                {"mu": mu.value, "nu": nu.value, "alpha": alpha,
                 "beta": beta, "n": n, "r": r},
                h == g, h, g,
                "omega = 0 collapses to the q-Gaussian matrix element"))
    # terminating 2phi0 identities
    for n in range(9):
        for x in (Fraction(1, 3), Fraction(2), Fraction(-1)):
            lhs = matelmod.basic_hyp_terminating(
                ctx, [ctx.q_pow(-n), 1 / x], [], x * ctx.q_pow(n))
            out.append(record(
                f"matrixelements/2phi0-first/n={n},x={x}", {"n": n, "x": x},
                lhs == x ** n, lhs, x ** n,
                "2phi0(q^-n, 1/x; q; x q^n) = x^n"))
            acc = Fraction(0)
            for j in range(n + 1):
                sign = -1 if j % 2 else 1
                acc += (q_binomial(ctx, n, j) * ctx.q_pow(j * (j - 1) // 2)
                        * sign * matelmod.basic_hyp_terminating(
                            ctx, [ctx.q_pow(-(n - j)), 0], [],
                            x * ctx.q_pow(n - j)))
            out.append(record(
                f"matrixelements/2phi0-second/n={n},x={x}", {"n": n, "x": x},
                acc == x ** n, acc, x ** n,
                "alternating sum of 2phi0(q^(j-n), 0; q; x q^(n-j)) = x^n"))
    if ctx.has_root:
        out.extend(matelmod.special_form_checks(
            ctx, min(nmax, CHECK_LIMITS["matrixelements/special-form"])))
    return out


def suite_hahncalc(ctx: QContext, nmax: int, order: int,
                   rng: random.Random) -> list[CheckRecord]:
    out = []
    degree = min(nmax, SUITE_LIMITS["hahncalc"])
    for trial in range(8):
        p = _rand_poly(rng, degree)
        anti = hahnmod.hahn_antiderivative(ctx, p)
        out.append(record(
            f"hahncalc/fundamental-derivative-of-integral/trial={trial}",
            {"degree": p.degree},
            hahnmod.hahn_derivative_poly(ctx, anti) == p,
            list(hahnmod.hahn_derivative_poly(ctx, anti).coeffs),
            list(p.coeffs)))
        big = _rand_poly(rng, degree)
        for x in (Fraction(1), Fraction(-2, 3)):
            lhs = hahnmod.hahn_integral_closed(
                ctx, hahnmod.hahn_derivative_poly(ctx, big), x)
            rhs = big(x) - big(ctx.omega0)
            out.append(record(
                f"hahncalc/fundamental-integral-of-derivative/"
                f"trial={trial},x={x}", {"degree": big.degree, "x": x},
                lhs == rhs, lhs, rhs))
            lhs2 = hahnmod.hahn_integral_closed(ctx, p, x)
            rhs2 = anti(x)
            out.append(record(
                f"hahncalc/two-method-integral/trial={trial},x={x}",
                {"degree": p.degree, "x": x}, lhs2 == rhs2, lhs2, rhs2,
                "closed-form series sum vs antiderivative evaluation"))
    for trial in range(20):
        f = _rand_poly(rng, rng.randint(0, 6))
        g = _rand_poly(rng, rng.randint(0, 6))
        pres, qres = hahnmod.leibniz_residuals(ctx, f, g)
        out.append(record(f"hahncalc/leibniz-product/trial={trial:02d}",
                          {"degf": f.degree, "degg": g.degree},
                          pres.is_zero(), list(pres.coeffs), 0))
        out.append(record(f"hahncalc/leibniz-quotient/trial={trial:02d}",
                          {"degf": f.degree, "degg": g.degree},
                          qres.is_zero(), list(qres.coeffs), 0))
    ctx0 = ctx.with_omega(0)
    p = _rand_poly(rng, 8)
    lhs = hahnmod.hahn_derivative_poly(ctx0, p)
    rhs = opsmod.jackson_derivative(ctx0, p)
    out.append(record("hahncalc/jackson-reduction", {"degree": p.degree},
                      lhs == rhs, list(lhs.coeffs), list(rhs.coeffs),
                      "omega = 0 Hahn derivative is the Jackson derivative"))
    bound = Fraction(1, 10 ** 9)
    for x in (Fraction(1, 4), Fraction(-1, 3), Fraction(2, 5)):
        terms = 40
        e_x = hahnmod.hahn_exp_normalized(ctx, x, terms)
        denom = (ctx.q - 1) * x + ctx.omega
        if denom == 0:
            # at the fixed point D_{q,w} is d/dx; the truncated product
            # has e(omega0) = 1 and e'(omega0) = 1 - q^terms exactly
            slope = 1 - ctx.q_pow(terms)
        else:
            e_step = hahnmod.hahn_exp_normalized(
                ctx, ctx.q * x + ctx.omega, terms)
            slope = (e_step - e_x) / denom
        residual = abs(slope - e_x)
        out.append(record(f"hahncalc/exp-functional-equation/x={x}",
                          {"x": x, "terms": terms, "tol": bound},
                          residual < bound, residual, 0,
                          "|D_{q,w} e - e| under the truncated product"))
    # numeric integral against the closed form
    p = _rand_poly(rng, 5)
    for x in (Fraction(1), Fraction(1, 2)):
        value, _ = hahnmod.hahn_integral_numeric(ctx, p, x, Fraction(1, 10 ** 9))
        exact = hahnmod.hahn_integral_closed(ctx, p, x)
        out.append(record(f"hahncalc/numeric-integral/x={x}",
                          {"x": x, "tol": Fraction(1, 10 ** 9)},
                          abs(value - exact) < Fraction(1, 10 ** 9),
                          value, exact))
    return out


SUITES = {
    "qkernel": suite_qkernel,
    "qseries": suite_qseries,
    "polyfamilies": suite_polyfamilies,
    "operators": suite_operators,
    "matrixelements": suite_matrixelements,
    "hahncalc": suite_hahncalc,
}


@dataclass
class RunConfig:
    s: str = "1/2"
    omega: str = "1/8"
    order: int = 12
    nmax: int = 12
    suites: tuple = SUITE_NAMES
    seed: int = 0


def context_dict(ctx: QContext) -> dict:
    """The context block of reports and tables, as exact strings."""
    return {"s": str(ctx.s) if ctx.has_root else None, "q": str(ctx.q),
            "omega": str(ctx.omega), "omega0": str(ctx.omega0)}


def run_suites(config: RunConfig) -> VerificationReport:
    ctx = QContext(frac(config.s), frac(config.omega))
    report = VerificationReport(context=context_dict(ctx), seed=config.seed)
    for i, name in enumerate(config.suites):
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
        if name in config.suites[:i]:
            raise ValueError(f"suite {name!r} is listed more than once")
    for name in config.suites:
        rng = random.Random(config.seed)
        report.extend(SUITES[name](ctx, config.nmax, config.order, rng))
    return report
