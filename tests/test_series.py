from fractions import Fraction as F

import pytest

from qoscpoly import (QContext, TruncSeries, emu_series, eqw_eval, q_factorial,
                      q_pochhammer, qgaussian, hahn_factorial,
                      gaussian_genfun_lhs, hahn_genfun_lhs, series_recip,
                      exp_pair_identity_residual)
from qoscpoly.context import HALF_HALF, HALF_ZERO
from qoscpoly.series import (e_type_series, exp_pair_alternate_residual,
                             recip_poch_series)


class TestArithmetic:
    def test_mul_identity(self):
        a = TruncSeries([1, 2, 3])
        assert TruncSeries.constant(1, 2) * a == a

    def test_difference_of_squares(self):
        prod = TruncSeries([1, 1, 0]) * TruncSeries([1, -1, 0])
        assert prod == TruncSeries([1, 0, -1])

    def test_order_shrinks_to_min(self):
        prod = TruncSeries([1, 1]) * TruncSeries([1, 1, 1, 1])
        assert prod.order == 1

    def test_recip_of_one(self):
        assert series_recip(TruncSeries.constant(1, 3)) == TruncSeries.constant(1, 3)

    def test_recip_geometric(self):
        assert series_recip(TruncSeries([1, -1, 0, 0])) == TruncSeries([1, 1, 1, 1])

    def test_recip_requires_unit(self):
        with pytest.raises(ValueError):
            series_recip(TruncSeries([0, 1]))

    def test_recip_of_euler_factor(self, ctx_q12):
        # 1/(t; q)_inf expands with coefficients 1/(q;q)_n
        n = 10
        rec = series_recip(e_type_series(ctx_q12, 1, n))
        expect = recip_poch_series(ctx_q12, 1, n)
        assert rec == expect


class TestEmuSeries:
    def test_zero_argument(self, ctx_q14):
        assert emu_series(ctx_q14, HALF_ZERO, 0, 4) == TruncSeries([1, 0, 0, 0, 0])

    def test_half_coefficients(self):
        ctx = QContext(F(1, 2))  # q = 1/4, s = 1/2
        s = ctx.s
        got = emu_series(ctx, HALF_HALF, 1, 2)
        expect = TruncSeries([1, s, s ** 4 / q_factorial(ctx, 2)])
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


class TestExpPair:
    def test_order_zero(self, ctx_q14):
        assert exp_pair_identity_residual(ctx_q14, 0).is_zero()

    def test_exact_zero_series(self):
        assert exp_pair_identity_residual(QContext(F(1, 2)), 5).is_zero()
        assert exp_pair_identity_residual(QContext(F(3, 4)), 12).is_zero()

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
        assert not exp_pair_alternate_residual(QContext(F(1, 2)), 12).is_zero()


class TestRaisingSeriesFactorization:
    def test_exact_split(self):
        # sum_n q^(n/2) phi_n(x) t^n/[n]_q! splits into the two Euler factors
        for s in (F(1, 2), F(3, 4)):
            ctx = QContext(s)
            q = ctx.q
            for x in (F(1, 3), F(2)):
                order = 12
                lhs = TruncSeries([s ** n * qgaussian(ctx, n)(x)
                                   / q_factorial(ctx, n)
                                   for n in range(order + 1)])
                rhs = (recip_poch_series(ctx, s * x * (1 - q), order)
                       * e_type_series(ctx, s * (1 - q), order))
                assert lhs == rhs
