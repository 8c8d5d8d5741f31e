"""Verification suites: every identity in scope as a machine-checkable record.

Each suite function takes the context plus size limits and returns a list of
CheckRecords; every record is built here, the modules it checks only
compute.  Exact identities go through ``_exact``, which passes on equality;
the few truncation-bounded checks (infinite products, the sampled integral)
go through ``_near``, which passes within the one tolerance ``TOL``.
``run_suites`` decides usage (sizes, suite names, the context, a degenerate
Hahn closed form) before any suite runs; after that, any exception a suite
raises is a fault, one fail record ``<suite>/raised``.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import hahn as hahnmod
from . import matel as matelmod
from . import operators as opsmod
from . import series as seriesmod
from .context import HALF_HALF, HALF_ZERO, QContext, nonnegative
from .families import (Basis, connect_hahn_gaussian, expand_in_basis,
                       hahn_factorial, position_coefficients,
                       qfactorial_pochhammer_value, qgaussian,
                       qgaussian_via_qexp_operator, vector_to_poly)
from .poly import VAR_T, Poly
from .qarith import (q_binomial, q_double_factorial_even, q_factorial, q_int,
                     q_pochhammer, q_pochhammer_inf)
from .report import CheckRecord, VerificationReport, context_dict, record

# the caps on nmax: each suite checks indices up to min(nmax, cap), and the
# three checks named suite/check stop below their suite's cap; hahncalc's
# cap is the degree of its random polynomials
LIMITS = {"qkernel": 20, "polyfamilies": 15, "operators": 12,
          "matrixelements": 6, "hahncalc": 10,
          "polyfamilies/qfactorial-identity": 10,
          "polyfamilies/inversion": 12, "matrixelements/special-form": 5}
# the tolerance of every truncation-bounded check
TOL = Fraction(1, 10**9)


def _exact(check_id: str, params: dict, lhs, rhs, note: str = "") -> CheckRecord:
    """A check that passes iff lhs == rhs; it shows the two values compared,
    a Poly by its coefficient list."""
    shown = [list(v.coeffs) if isinstance(v, Poly) else v for v in (lhs, rhs)]
    return record(check_id, params, lhs == rhs, *shown, note)


def _near(check_id: str, params: dict, lhs, rhs, note: str = "") -> CheckRecord:
    """A check that passes iff |lhs - rhs| < TOL; params gain the tolerance."""
    return record(check_id, {**params, "tol": TOL}, abs(lhs - rhs) < TOL,
                  lhs, rhs, note)


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
    nmax = min(nmax, LIMITS["qkernel"])
    for n in range(nmax + 1):
        for k in range(n + 1):
            lhs = q_binomial(ctx, n + 1, k)
            rhs_a = q_binomial(ctx, n, k) + q ** (n + 1 - k) * q_binomial(ctx, n, k - 1)
            rhs_b = q_binomial(ctx, n, k - 1) + q ** k * q_binomial(ctx, n, k)
            out.append(_exact(f"qkernel/pascal-a/n={n:02d},k={k:02d}",
                              {"n": n, "k": k}, lhs, rhs_a,
                              "q-Pascal rule with weight q^(n+1-k)"))
            out.append(_exact(f"qkernel/pascal-b/n={n:02d},k={k:02d}",
                              {"n": n, "k": k}, lhs, rhs_b,
                              "q-Pascal rule with weight q^k"))
    for n in range(nmax + 1):
        out.append(_exact(f"qkernel/factorial-pochhammer/n={n:02d}", {"n": n},
                          q_factorial(ctx, n),
                          q_pochhammer(ctx, q, n) / (1 - q) ** n,
                          "[n]_q! = (q;q)_n/(1-q)^n"))
    for m in range(11):
        for n in range(11 - m):
            z = _rand_frac(rng)
            out.append(_exact(
                f"qkernel/pochhammer-split/m={m:02d},n={n:02d}",
                {"m": m, "n": n, "z": z}, q_pochhammer(ctx, z, m + n),
                q_pochhammer(ctx, z, m) * q_pochhammer(ctx, z * q ** m, n)))
    for a in range(-4, 5):
        for b in range(-4, 5):
            out.append(_exact(
                f"qkernel/half-power-additive/a={a:+d},b={b:+d}",
                {"a": a, "b": b},
                ctx.pow_half(HALF_HALF, a) * ctx.pow_half(HALF_HALF, b),
                ctx.pow_half(HALF_HALF, a + b)))
    return out


def suite_qseries(ctx: QContext, nmax: int, order: int,
                  rng: random.Random) -> list[CheckRecord]:
    out = []
    q, s = ctx.q, ctx.s
    tol = Fraction(1, 10 ** 12)
    # Euler expansions against the tail-bounded infinite product
    for z in (Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5)):
        prod_val, _ = q_pochhammer_inf(ctx, z, tol)
        # 80-term partial sums of the two expansions at t = 1
        e_sum = seriesmod.e_type_series(ctx, z, 79)(1)
        r_sum = seriesmod.recip_poch_series(ctx, z, 79)(1)
        out.append(_near(f"qseries/euler-product/z={z}", {"z": z},
                         e_sum, prod_val,
                         "sum (-1)^n q^C(n,2) z^n/(q;q)_n vs (z;q)_inf"))
        out.append(_near(f"qseries/euler-recip/z={z}", {"z": z},
                         r_sum, 1 / prod_val, "sum z^n/(q;q)_n vs 1/(z;q)_inf"))
    # generating functions, coefficient by coefficient
    terms = seriesmod.genfun_terms(
        ctx, (Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(2)), order)
    for family, x, n, coeff, value in terms:
        name, poly = (("gaussian", "phi") if family == "qgaussian"
                      else ("hahn", "phidot"))
        out.append(_exact(f"qseries/{name}-genfun/x={x},n={n:02d}",
                          {"x": x, "n": n}, coeff, value,
                          f"t^n coefficient vs {poly}_n(x)/[n]_q!"))
    # omega = 0, mu = 0: pointwise exponential agreement
    ctx0 = ctx.with_omega(0)
    for x in (Fraction(1, 3), Fraction(-1, 2)):
        out.append(_exact(f"qseries/eqw-reduces/x={x}", {"x": x},
                          seriesmod.eqw_eval(ctx0, HALF_ZERO, x, order),
                          seriesmod.emu_series(ctx, HALF_ZERO, x, order)(1),
                          "shift-free exponential matches the (q,mu) series"))
    res = seriesmod.exp_pair_residual(ctx, -1 / s, order)
    # record, not _exact: it shows all order + 1 terms, trailing zeros included
    out.append(record("qseries/exp-pair-identity", {"order": order},
                      res.is_zero(),
                      [res.coeff(n) for n in range(order + 1)], 0,
                      "E^(0)(t) E^(1/2)(-q^(-1/2) t) = 1, exact to order"))
    alt = seriesmod.exp_pair_residual(ctx, -s, order)
    first = next((c for c in alt.coeffs if c != 0), Fraction(0))
    # record, not _exact: it shows the first nonzero coefficient, and a
    # residual that vanishes fails, since the README predicts it does not;
    # the prediction starts at t^1, so at order 0 the record passes
    note = ("alternate pairing E^(0)(t) E^(1/2)(-q^(1/2) t) does not "
            "vanish; the -q^(-1/2) pairing is the identity" if first
            else "predicted nonzero residual vanished" if order
            else "every pairing's t^0 residual is 1*1 - 1 = 0")
    out.append(record("qseries/exp-pair-alternate", {"order": order},
                      order == 0, first, 0, note, discrepancy=first != 0))
    # factorization of the raising-series applied to 1:
    # sum s^n phi_n(x) t^n/[n]! = (s (1-q) t; q)_inf / (s x (1-q) t; q)_inf
    for x in (Fraction(1, 3), Fraction(2)):
        lhs = Poly([s ** n * value for family, y, n, _, value in terms
                    if family == "qgaussian" and y == x], VAR_T)
        rhs = seriesmod.euler_ratio(ctx, s * (1 - q), s * x * (1 - q), order)
        # record, not _exact: it shows all order + 1 terms, as above
        out.append(record(
            f"qseries/raising-series-factorizes/x={x}", {"x": x},
            lhs == rhs, [lhs.coeff(n) for n in range(order + 1)],
            [rhs.coeff(n) for n in range(order + 1)],
            "q^(n/2) phi_n(x)/[n]! series splits into two Euler factors"))
    return out


def suite_polyfamilies(ctx: QContext, nmax: int, order: int,
                       rng: random.Random) -> list[CheckRecord]:
    out = []
    nmax = min(nmax, LIMITS["polyfamilies"])
    phis = Basis.QGAUSSIAN.elements(ctx, nmax + 1)
    phidots = Basis.HAHN_FACTORIAL.elements(ctx, nmax + 1)
    for n in range(nmax + 1):
        # record, not _exact: the three-way records compare three values
        for name, row, build in (("gaussian", phis, qgaussian),
                                 ("hahn", phidots, hahn_factorial)):
            ok = (row[n] == build(ctx, n, "recursion")
                  == build(ctx, n, "explicit_sum"))
            out.append(record(f"polyfamilies/{name}-three-way/n={n:02d}",
                              {"n": n}, ok, list(row[n].coeffs),
                              "all three constructions"))
        out.append(_exact(f"polyfamilies/gaussian-operator-form/n={n:02d}",
                          {"n": n}, qgaussian_via_qexp_operator(ctx, n),
                          phis[n],
                          "terminating exponential-of-derivative series"))
    cap = min(nmax, LIMITS["polyfamilies/qfactorial-identity"])
    for n, pu in enumerate(Basis.QFACTORIAL.elements(ctx, cap + 1)):
        for x in range(11):
            out.append(_exact(
                f"polyfamilies/qfactorial-identity/n={n:02d},x={x:02d}",
                {"n": n, "x": x}, pu(ctx.q_pow(x)),
                qfactorial_pochhammer_value(ctx, n, x),
                "u-product vs shifted-Pochhammer closed form"))
    # basis round trips on random polynomials
    for basis in (Basis.QGAUSSIAN, Basis.HAHN_FACTORIAL, Basis.SHIFTED_MONOMIAL):
        for trial in range(5):
            p = _rand_poly(rng, nmax)
            out.append(_exact(
                f"polyfamilies/roundtrip/{basis.name}/trial={trial}",
                {"basis": basis.name, "degree": p.degree},
                vector_to_poly(ctx, basis, expand_in_basis(ctx, p, basis)), p))
    # monomial inversion, pointwise
    for n in range(min(nmax, LIMITS["polyfamilies/inversion"]) + 1):
        for x in (Fraction(-1), Fraction(1, 3), Fraction(2), Fraction(5, 7),
                  Fraction(0)):
            lhs = sum((q_binomial(ctx, n, k) * phis[k](x)
                       for k in range(n + 1)), Fraction(0))
            out.append(_exact(
                f"polyfamilies/inversion/n={n:02d},x={x}", {"n": n, "x": x},
                lhs, x ** n, "x^n = sum_k [n,k]_q phi_k(x)"))
    if ctx.omega0 != 0:
        for n in range(nmax + 1):
            out.append(_exact(f"polyfamilies/connection/n={n:02d}", {"n": n},
                              connect_hahn_gaussian(ctx, n), phidots[n],
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
        out.append(_exact(f"polyfamilies/position-c{n}", {"n": n}, cs[n],
                          expect, "printed coefficient polynomial"))
    for n in range(7):
        out.append(_exact(
            f"polyfamilies/position-even-origin/n={n}", {"n": n}, cs[2 * n](0),
            (-1) ** n * ctx.q_pow(n * (1 - n)) / q_double_factorial_even(ctx, n),
            "c_2n(0) = (-1)^n q^(n(1-n))/[2n]_q!!"))
        if 2 * n + 1 < len(cs):
            out.append(_exact(f"polyfamilies/position-odd-origin/n={n}",
                              {"n": n}, cs[2 * n + 1](0), 0, "c_2n+1(0) = 0"))
    return out


def suite_operators(ctx: QContext, nmax: int, order: int,
                    rng: random.Random) -> list[CheckRecord]:
    out = []
    nmax = min(nmax, LIMITS["operators"])
    for family in opsmod.FAMILIES:
        for n, pn in enumerate(family.basis.elements(ctx, nmax + 1)):
            for direction in ("lower", "raise"):
                coeffs = opsmod.ladder_apply(ctx, family, direction,
                                             [0] * n + [1])
                out.append(_exact(
                    f"operators/analytic-vs-basis/{family.name}/"
                    f"{direction}/n={n:02d}",
                    {"family": family.name, "direction": direction, "n": n},
                    opsmod.ladder_apply_analytic(ctx, family, direction, pn),
                    vector_to_poly(ctx, family.basis, coeffs)))
        out.extend(_algebra_relations(ctx, family, nmax))
    # repeated raising from the ground element
    for family in (opsmod.QGAUSSIAN, opsmod.HAHN):
        p = Poly.one()
        row = family.basis.elements(ctx, 11)
        for n in range(1, 11):
            p = opsmod.ladder_apply_analytic(ctx, family, "raise", p)
            out.append(_exact(
                f"operators/raising-power/{family.name}/n={n:02d}",
                {"family": family.name, "n": n},
                ctx.q_pow(n * (n - 1) // 2) * p, row[n],
                "q^(n(n-1)/2) (adag)^n . 1 reproduces the family polynomial"))
    for n in range(nmax + 1):
        out.append(_exact(f"operators/difference-equation/n={n:02d}", {"n": n},
                          opsmod.difference_equation_residual(ctx, n), 0,
                          "((x-1) q^(-x d/dx) D_q - [n]_(1/q)) phi_n = 0"))
    # the Jackson derivative is the banded q-Gaussian lowering, read through
    # the basis expansion (the analytic lowering is D_q itself)
    p = _rand_poly(rng, nmax)
    basis = opsmod.QGAUSSIAN.basis
    out.append(_exact("operators/jackson-is-lowering", {"degree": p.degree},
                      opsmod.jackson_derivative(ctx, p),
                      vector_to_poly(ctx, basis, opsmod.ladder_apply(
                          ctx, opsmod.QGAUSSIAN, "lower",
                          expand_in_basis(ctx, p, basis)))))
    return out


def _algebra_relations(ctx: QContext, family: opsmod.Family,
                       nmax: int) -> list[CheckRecord]:
    """The oscillator-algebra eigen-relations on basis indices <= nmax.

    With e = family.e (1 for q-factorial, 0 otherwise):
        a a+ = q^(-n-e) [n+1],  a+ a = q^(1-n-e) [n],
        [a, a+] = q^(-n-e),     a a+ - q^-1 a+ a = q^-e.
    Plus the number-operator relations [N, a] = -a and [N, a+] = a+.
    """
    e = family.e
    out = []
    for n in range(nmax + 1):
        low = opsmod.lowering_coeff(ctx, family, n)
        hi = opsmod.raising_coeff(ctx, family, n)
        # products of ladder coefficients on basis index n
        aad = hi * opsmod.lowering_coeff(ctx, family, n + 1)
        ada = low * (opsmod.raising_coeff(ctx, family, n - 1) if n > 0
                     else Fraction(0))
        expected = [
            ("a.adag eigenvalue", aad, ctx.q_pow(-n - e) * q_int(ctx, n + 1)),
            ("adag.a eigenvalue", ada, ctx.q_pow(1 - n - e) * q_int(ctx, n)),
            ("commutator", aad - ada, ctx.q_pow(-n - e)),
            ("q-commutator", aad - ada / ctx.q, ctx.q_pow(-e)),
            # [N, a] = -a and [N, a+] = a+, read at the index a or a+ moves n to
            ("number-lowering", _number_commutator(ctx, family, "lower", n),
             -low),
            ("number-raising", _number_commutator(ctx, family, "raise", n), hi),
        ]
        for name, lhs, rhs in expected:
            out.append(_exact(
                f"operators/algebra/{family.name}/{name}/n={n:02d}",
                {"family": family.name, "n": n}, lhs, rhs, name))
    return out


def _number_commutator(ctx: QContext, family: opsmod.Family, direction: str,
                       n: int) -> Fraction:
    """[N, op] basis_n by ladder_apply, read where op moves n; N scales c_k by k."""
    def op(coeffs):
        return opsmod.ladder_apply(ctx, family, direction, coeffs)

    def number(coeffs):
        return [k * c for k, c in enumerate(coeffs)]

    basis_n = [0] * n + [1]
    diff = [x - y for x, y in zip(number(op(basis_n)), op(number(basis_n)))]
    k = n - 1 if direction == "lower" else n + 1
    return diff[k] if 0 <= k < len(diff) else Fraction(0)


MATEL_AB_GRID = (Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(1, 3))


def suite_matrixelements(ctx: QContext, nmax: int, order: int,
                         rng: random.Random) -> list[CheckRecord]:
    out = []
    nmax = min(nmax, LIMITS["matrixelements"])
    cells = list(product(range(nmax + 1), repeat=2))
    ctx0 = ctx.with_omega(0)
    for mu, nu in product((HALF_ZERO, HALF_HALF), repeat=2):
        # each matrix is built once, in alpha*beta, and read at every point
        closed = {family: matelmod.matel_closed(ctx, family, mu, nu, nmax)
                  for family in opsmod.FAMILIES}
        oracle = {family: matelmod.matel_oracle(ctx, family, mu, nu, nmax)
                  for family in opsmod.FAMILIES}
        # hahn-reduces checks it against the q-Gaussian oracle: at
        # omega = 0 the q-Gaussian closed form is the same computation
        hahn0 = matelmod.matel_closed(ctx0, opsmod.HAHN, mu, nu, nmax)
        # the README's documented discrepancy: at omega != 0 the printed
        # Hahn closed form is the oracle at alpha*beta ((1 + w0)/(1 - w0))^2;
        # a predicted cell fails unless its polynomials differ just so
        hc, ho = closed[opsmod.HAHN], oracle[opsmod.HAHN]
        scale = ((1 + ctx.omega0) / (1 - ctx.omega0)) ** 2
        printed = {(n, r): hc[n][r] != ho[n][r]
                   and hc[n][r] == ho[n][r].scale_arg(scale) for n, r in cells}
        mu_v, nu_v = mu.value, nu.value
        for alpha, beta in product(MATEL_AB_GRID, MATEL_AB_GRID):
            tag = f"mu={mu_v},nu={nu_v},a={alpha},b={beta}"
            ab = alpha * beta
            point = {"mu": mu_v, "nu": nu_v, "alpha": alpha, "beta": beta}
            cm, om = ({family: matelmod.matel_at(m[family], alpha, beta)
                       for family in opsmod.FAMILIES} for m in (closed, oracle))
            for family in opsmod.FAMILIES:
                for n, r in cells:
                    c, o = cm[family][n][r], om[family][n][r]
                    # record, not _exact: a predicted cell can fail on its
                    # polynomials, whatever its values at this point
                    predicted = matelmod.predicted_discrepancy(
                        ctx, family, n, r, ab)
                    broken = predicted and not printed[n, r]
                    out.append(record(
                        f"matrixelements/closed-vs-oracle/{family.name}/"
                        f"{tag},n={n},r={r}",
                        {"family": family.name, **point, "n": n, "r": r,
                         "ratio": 1 if c == o != 0 else c / o if o else None},
                        c == o and not broken, c, o,
                        "predicted discrepancy is not the printed one" if broken
                        else "closed form vs exact ladder-series oracle",
                        predicted and not broken))
            hm = matelmod.matel_at(hahn0, alpha, beta)
            gm = om[opsmod.QGAUSSIAN]
            for n, r in cells:
                out.append(_exact(
                    f"matrixelements/hahn-reduces/{tag},n={n},r={r}",
                    {**point, "n": n, "r": r}, hm[n][r], gm[n][r],
                    "omega = 0 collapses to the q-Gaussian matrix element"))
    # terminating 2phi0 identities
    for n in range(9):
        for x in (Fraction(1, 3), Fraction(2), Fraction(-1)):
            out.append(_exact(
                f"matrixelements/2phi0-first/n={n},x={x}", {"n": n, "x": x},
                matelmod.basic_hyp_terminating(
                    ctx, [ctx.q_pow(-n), 1 / x], [], x * ctx.q_pow(n)),
                x ** n, "2phi0(q^-n, 1/x; q; x q^n) = x^n"))
            acc = Fraction(0)
            for j in range(n + 1):
                acc += ((-1) ** j * q_binomial(ctx, n, j)
                        * ctx.q_pow(j * (j - 1) // 2)
                        * matelmod.basic_hyp_terminating(
                            ctx, [ctx.q_pow(j - n), 0], [],
                            x * ctx.q_pow(n - j)))
            out.append(_exact(
                f"matrixelements/2phi0-second/n={n},x={x}", {"n": n, "x": x},
                acc, x ** n,
                "alternating sum of 2phi0(q^(j-n), 0; q; x q^(n-j)) = x^n"))
    out.extend(_special_forms(
        ctx, min(nmax, LIMITS["matrixelements/special-form"])))
    return out


def _special_forms(ctx: QContext, nmax: int) -> list[CheckRecord]:
    """The named q-hypergeometric forms of U for special (mu, nu).

    U^(0,0)   = 2phi1(q^-n, 0; q^(1+theta); q; x)
    U^(0,1/2) = 1phi1(q^-n; q^(1+theta); q; -x q^(1/2))
    U^(1/2,1/2) = 1phi2(q^-n; q^(1+theta), 0; q; q x)
    """
    q = ctx.q
    # name, (mu, nu), the parameters after q^-n and after q^(1+theta), and
    # the factor that multiplies x in the series argument
    forms = (("u00_vs_2phi1", HALF_ZERO, HALF_ZERO, [0], [], 1),
             ("u0h_vs_1phi1", HALF_ZERO, HALF_HALF, [], [], -ctx.s),
             ("uhh_vs_1phi2", HALF_HALF, HALF_HALF, [], [0], q))
    out = []
    for n, x, q1t in product(range(nmax + 1),
                             (Fraction(1), Fraction(1, 3), Fraction(-1, 5)),
                             (q, q * q, q ** 3)):
        for name, mu, nu, top, bottom, scale in forms:
            out.append(_exact(
                f"matrixelements/special-form/{name}/n={n},x={x},q1t={q1t}",
                {"n": n, "x": x, "q1theta": q1t},
                matelmod.u_polynomial(ctx, mu, nu, n, q1t, x)(1),
                matelmod.basic_hyp_terminating(
                    ctx, [q ** (-n)] + top, [q1t] + bottom, scale * x), name))
    return out


def suite_hahncalc(ctx: QContext, nmax: int, order: int,
                   rng: random.Random) -> list[CheckRecord]:
    out = []
    degree = min(nmax, LIMITS["hahncalc"])
    for trial in range(8):
        p = _rand_poly(rng, degree)
        anti = hahnmod.hahn_antiderivative(ctx, p)
        out.append(_exact(
            f"hahncalc/fundamental-derivative-of-integral/trial={trial}",
            {"degree": p.degree}, hahnmod.hahn_derivative_poly(ctx, anti), p))
        big = _rand_poly(rng, degree)
        for x in (Fraction(1), Fraction(-2, 3)):
            out.append(_exact(
                f"hahncalc/fundamental-integral-of-derivative/"
                f"trial={trial},x={x}", {"degree": big.degree, "x": x},
                hahnmod.hahn_integral_closed(
                    ctx, hahnmod.hahn_derivative_poly(ctx, big), x),
                big(x) - big(ctx.omega0)))
            out.append(_exact(
                f"hahncalc/two-method-integral/trial={trial},x={x}",
                {"degree": p.degree, "x": x},
                hahnmod.hahn_integral_closed(ctx, p, x), anti(x),
                "closed-form series sum vs antiderivative evaluation"))
    for trial in range(20):
        f = _rand_poly(rng, rng.randint(0, 6))
        g = _rand_poly(rng, rng.randint(0, 6))
        pres, qres = hahnmod.leibniz_residuals(ctx, f, g)
        out.append(_exact(f"hahncalc/leibniz-product/trial={trial:02d}",
                          {"degf": f.degree, "degg": g.degree}, pres, 0))
        out.append(_exact(f"hahncalc/leibniz-quotient/trial={trial:02d}",
                          {"degf": f.degree, "degg": g.degree}, qres, 0))
    ctx0 = ctx.with_omega(0)
    p = _rand_poly(rng, 8)
    out.append(_exact("hahncalc/jackson-reduction", {"degree": p.degree},
                      hahnmod.hahn_derivative_poly(ctx0, p),
                      opsmod.jackson_derivative(ctx0, p),
                      "omega = 0 Hahn derivative is the Jackson derivative"))
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
        out.append(_near(f"hahncalc/exp-functional-equation/x={x}",
                         {"x": x, "terms": terms}, abs(slope - e_x), 0,
                         "|D_{q,w} e - e| under the truncated product"))
    # numeric integral against the closed form
    p = _rand_poly(rng, 5)
    for x in (Fraction(1), Fraction(1, 2)):
        value, _ = hahnmod.hahn_integral_numeric(ctx, p, x, TOL)
        out.append(_near(f"hahncalc/numeric-integral/x={x}", {"x": x}, value,
                         hahnmod.hahn_integral_closed(ctx, p, x)))
    return out


SUITES = {
    "qkernel": suite_qkernel,
    "qseries": suite_qseries,
    "polyfamilies": suite_polyfamilies,
    "operators": suite_operators,
    "matrixelements": suite_matrixelements,
    "hahncalc": suite_hahncalc,
}
SUITE_NAMES = tuple(SUITES)


@dataclass
class RunConfig:
    s: str = "1/2"
    omega: str = "1/8"
    order: int = 12
    nmax: int = 12
    suites: tuple = SUITE_NAMES
    seed: int = 0


def run_suites(config: RunConfig) -> VerificationReport:
    nonnegative("nmax", config.nmax)
    nonnegative("order", config.order)
    ctx = QContext(config.s, config.omega)
    report = VerificationReport(context=context_dict(ctx), seed=config.seed)
    for i, name in enumerate(config.suites):
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
        if name in config.suites[:i]:
            raise ValueError(f"suite {name!r} is listed more than once")
    if "matrixelements" in config.suites:
        matelmod.closed_form_sigma(ctx, opsmod.HAHN)
    for name in config.suites:
        rng = random.Random(config.seed)
        try:
            report.records += SUITES[name](ctx, config.nmax, config.order, rng)
        except Exception as exc:
            import traceback  # on a fault only: it adds 0.15 MB to peak RSS
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            report.records.append(record(
                f"{name}/raised", {}, False, f"{type(exc).__name__}: {exc}", "",
                f"raised in {frame.name} at "
                f"{os.path.basename(frame.filename)}:{frame.lineno}"))
    return report
