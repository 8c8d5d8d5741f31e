from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qoscpoly import (VAR_T, Poly, QContext, emu_series, eqw_eval,
                      q_factorial, q_pochhammer, qgaussian, hahn_factorial,
                      gaussian_genfun_lhs, hahn_genfun_lhs,
                      exp_pair_residual)
from qoscpoly.context import HALF_HALF, HALF_ZERO
from qoscpoly.report import fmt_exact
from qoscpoly.series import (e_type_series, euler_ratio, genfun_terms,
                             recip_poch_series)
from qoscpoly.verify import RunConfig, run_suites


def in_t(*coeffs):
    return Poly(coeffs, VAR_T)


class TestArithmetic:
    def test_mul_identity(self):
        a = in_t(1, 2, 3)
        assert Poly.one(VAR_T).mul_trunc(a, 2) == a

    def test_difference_of_squares(self):
        prod = in_t(1, 1).mul_trunc(in_t(1, -1), 2)
        assert prod == in_t(1, 0, -1)

    def test_mul_trunc_is_truncated_product(self):
        a, b = in_t(1, F(1, 2), 0, -3), in_t(F(2, 3), 0, 5)
        full = a * b
        for order in range(-1, 7):
            assert a.mul_trunc(b, order) == in_t(
                *(full.coeff(n) for n in range(order + 1)))

    def test_negative_monomial_rejected(self):
        assert Poly.monomial(0) == 1
        with pytest.raises(ValueError, match="degree must be >= 0"):
            Poly.monomial(-1)

    def test_mul_trunc_variable_mismatch(self):
        with pytest.raises(ValueError):
            in_t(1, 1).mul_trunc(Poly([1, 1]), 3)

    def test_recip_geometric(self):
        # 1/(1 - t) = 1 + t + t^2 + ..., exactly to the order kept
        assert in_t(1, -1).mul_trunc(in_t(1, 1, 1, 1), 3) == 1

    def test_recip_of_euler_factor(self, ctx_q12):
        # 1/(t; q)_inf expands with coefficients 1/(q;q)_n
        n = 10
        e = e_type_series(ctx_q12, 1, n)
        assert e.mul_trunc(recip_poch_series(ctx_q12, 1, n), n) == 1

    @given(s=st.fractions(0, 1, max_denominator=7).filter(lambda s: 0 < s < 1),
           a=st.fractions(-2, 2, max_denominator=5),
           b=st.fractions(-2, 2, max_denominator=5).filter(lambda b: b != 0),
           order=st.integers(0, 6))
    @settings(max_examples=30, deadline=None)
    def test_euler_ratio_is_q_binomial_series(self, s, a, b, order):
        # the q-binomial theorem: (a t; q)_inf / (b t; q)_inf has t^n
        # coefficient (a/b; q)_n b^n / (q; q)_n
        ctx = QContext(s)
        assert euler_ratio(ctx, a, b, order) == in_t(*(
            q_pochhammer(ctx, a / b, n) * b ** n / q_pochhammer(ctx, ctx.q, n)
            for n in range(order + 1)))

    @pytest.mark.parametrize("build", [e_type_series, recip_poch_series,
                                       gaussian_genfun_lhs, hahn_genfun_lhs])
    def test_negative_order_rejected(self, ctx_q14, build):
        with pytest.raises(ValueError):
            build(ctx_q14, F(1, 3), -1)


class TestEmuSeries:
    def test_zero_argument(self, ctx_q14):
        assert emu_series(ctx_q14, HALF_ZERO, 0, 4) == in_t(1)

    def test_half_coefficients(self):
        ctx = QContext(F(1, 2))  # q = 1/4, s = 1/2
        s = ctx.s
        got = emu_series(ctx, HALF_HALF, 1, 2)
        expect = in_t(1, s, s ** 4 / q_factorial(ctx, 2))
        assert got == expect

    def test_mu_zero_pochhammer_form(self, ctx_q916):
        q = ctx_q916.q
        series = emu_series(ctx_q916, HALF_ZERO, 1, 8)
        for n in range(9):
            assert series.coeff(n) == (1 - q) ** n / q_pochhammer(ctx_q916, q, n)


class TestEqwEval:
    def test_fixed_point(self, ctx_q14):
        assert eqw_eval(ctx_q14, HALF_ZERO, ctx_q14.omega0, 7) == 1

    def test_two_term_sum(self):
        ctx = QContext.from_q(F(1, 2), F(1, 4))
        assert eqw_eval(ctx, HALF_ZERO, 1, 1) == F(3, 2)

    def test_omega_zero_matches_emu(self, ctx_q916):
        ctx0 = ctx_q916.with_omega(0)
        for x in (F(1, 3), F(-2, 5)):
            series = emu_series(ctx_q916, HALF_ZERO, x, 9)
            assert eqw_eval(ctx0, HALF_ZERO, x, 9) == sum(series.coeffs, F(0))


class TestGaussianGenfun:
    def test_constant_term(self, ctx_q14):
        assert gaussian_genfun_lhs(ctx_q14, F(5, 7), 3).coeff(0) == 1

    def test_linear_term(self, ctx_q14):
        x = F(5, 7)
        assert gaussian_genfun_lhs(ctx_q14, x, 3).coeff(1) == x - 1

    def test_quadratic_term(self, ctx_q12):
        # phi_2(2)/[2]_q! = (2-1)(2-q)/[2]_q = 1 at q = 1/2
        assert gaussian_genfun_lhs(ctx_q12, 2, 3).coeff(2) == 1

    def test_matches_family(self, ctx_q14):
        for x in (F(-1), F(0), F(1, 3), F(2)):
            g = gaussian_genfun_lhs(ctx_q14, x, 12)
            for n in range(13):
                assert g.coeff(n) == qgaussian(ctx_q14, n)(x) / q_factorial(ctx_q14, n)


class TestHahnGenfun:
    def test_constant_term(self, ctx_q14):
        assert hahn_genfun_lhs(ctx_q14, F(1, 3), 3).coeff(0) == 1

    def test_linear_term(self, ctx_q14):
        x = F(1, 3)
        assert hahn_genfun_lhs(ctx_q14, x, 3).coeff(1) == x

    def test_omega_zero_monomials(self, ctx_q916):
        ctx0 = ctx_q916.with_omega(0)
        x = F(2, 3)
        h = hahn_genfun_lhs(ctx0, x, 8)
        for n in range(9):
            assert h.coeff(n) == x ** n / q_factorial(ctx0, n)

    def test_matches_family(self, ctx_q916):
        for x in (F(-1), F(1, 3), F(2)):
            h = hahn_genfun_lhs(ctx_q916, x, 10)
            for n in range(11):
                assert h.coeff(n) == (hahn_factorial(ctx_q916, n)(x)
                                      / q_factorial(ctx_q916, n))


class TestGenfunTerms:
    def test_both_sides_agree(self, ctx_q14):
        xs = (F(1, 3), F(2))
        terms = genfun_terms(ctx_q14, xs, 4)
        assert [t[:3] for t in terms] == [(family, x, n) for x in xs
                                          for n in range(5)
                                          for family in ("qgaussian", "hahn")]
        assert all(coeff == value for *_, coeff, value in terms)


class TestExpPair:
    """The pairing E^(0)(t) E^(1/2)(c t) - 1 vanishes at c = -q^(-1/2)."""

    def test_order_zero(self, ctx_q14):
        assert exp_pair_residual(ctx_q14, -1 / ctx_q14.s, 0).is_zero()

    def test_exact_zero_series(self):
        assert exp_pair_residual(QContext(F(1, 2)), -2, 5).is_zero()
        assert exp_pair_residual(QContext(F(3, 4)), F(-4, 3), 12).is_zero()

    def test_product_oracle(self):
        # independent check: convolve the two coefficient sequences directly
        ctx = QContext(F(3, 4))
        order = 12
        a = emu_series(ctx, HALF_ZERO, 1, order)
        b = emu_series(ctx, HALF_HALF, F(-1) / ctx.s, order)
        for n in range(order + 1):
            conv = sum((a.coeff(k) * b.coeff(n - k) for k in range(n + 1)), F(0))
            assert conv == (1 if n == 0 else 0)

    def test_alternate_pairing_fails(self):
        assert not exp_pair_residual(QContext(F(1, 2)), -F(1, 2), 12).is_zero()

    @given(s=st.fractions(0, 1, max_denominator=12).filter(lambda s: 0 < s < 1),
           order=st.integers(1, 10))
    @settings(max_examples=30, deadline=None)
    def test_zero_at_identity_pairing_only(self, s, order):
        # the t coefficient at c = -q^(1/2) is 1 - q, never 0
        ctx = QContext(s)
        assert exp_pair_residual(ctx, -1 / s, order).is_zero()
        alternate = exp_pair_residual(ctx, -s, order)
        assert not alternate.is_zero() and alternate.coeff(1) == 1 - ctx.q


class TestRaisingSeriesFactorization:
    def test_exact_split(self):
        # sum_n q^(n/2) phi_n(x) t^n/[n]_q! splits into the two Euler factors
        for s in (F(1, 2), F(3, 4)):
            ctx = QContext(s)
            q = ctx.q
            for x in (F(1, 3), F(2)):
                order = 12
                lhs = in_t(*(s ** n * qgaussian(ctx, n)(x)
                             / q_factorial(ctx, n) for n in range(order + 1)))
                rhs = recip_poch_series(ctx, s * x * (1 - q), order)
                rhs = rhs.mul_trunc(e_type_series(ctx, s * (1 - q), order),
                                    order)
                assert lhs == rhs


class TestSeriesRecords:
    @pytest.mark.parametrize("order", [0, 5])
    def test_records_list_every_term(self, order):
        # Poly trims trailing zeros; the report must still list order + 1
        # terms, or the exact-zero residual would print as []
        report = run_suites(RunConfig(suites=("qseries",), order=order))
        got = {r.check_id: r for r in report.records}
        assert got["qseries/exp-pair-identity"].lhs == fmt_exact([0] * (order + 1))
        for x in ("1/3", "2"):
            r = got[f"qseries/raising-series-factorizes/x={x}"]
            for side in (r.lhs, r.rhs):
                assert len(side[1:-1].split(", ")) == order + 1
