from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qoscpoly import hahn
from qoscpoly import (Basis, Poly, QContext, hahn_antiderivative,
                      hahn_derivative_poly, hahn_exp_normalized,
                      hahn_factorial, hahn_integral_closed,
                      hahn_integral_numeric, jackson_derivative,
                      leibniz_residuals, q_int)


class TestDerivative:
    def test_constant(self, ctx_q14):
        assert hahn_derivative_poly(ctx_q14, Poly.one()).is_zero()

    def test_linear(self, ctx_q14):
        assert hahn_derivative_poly(ctx_q14, Poly([0, 1])) == Poly.one()

    def test_square(self, ctx_q14):
        # D(x^2) = (q+1)x + w
        q, w = ctx_q14.q, ctx_q14.omega
        assert hahn_derivative_poly(ctx_q14, Poly([0, 0, 1])) == Poly([w, q + 1])

    def test_difference_quotient_pointwise(self, ctx_q916):
        q, w = ctx_q916.q, ctx_q916.omega
        p = Poly([F(1, 3), -2, 0, F(5, 7), 1])
        d = hahn_derivative_poly(ctx_q916, p)
        for x in (F(0), F(1), F(-2, 3)):
            denom = (q - 1) * x + w
            assert denom != 0
            assert d(x) == (p(q * x + w) - p(x)) / denom

    def test_lowers_hahn_factorial(self, ctx_q14):
        for n in range(1, 9):
            got = hahn_derivative_poly(ctx_q14, hahn_factorial(ctx_q14, n))
            assert got == q_int(ctx_q14, n) * hahn_factorial(ctx_q14, n - 1)

    def test_reduces_to_jackson_at_omega_zero(self, ctx_q916):
        ctx0 = ctx_q916.with_omega(0)
        p = Poly([1, F(1, 2), 0, -3, F(2, 7)])
        assert hahn_derivative_poly(ctx0, p) == jackson_derivative(ctx0, p)

    def test_var_guard(self, ctx_q14):
        with pytest.raises(ValueError):
            hahn_derivative_poly(ctx_q14, Basis.QFACTORIAL.elements(ctx_q14, 3)[2])

    def test_nonzero_remainder_raises(self, ctx_q14, monkeypatch):
        # a step without w: p(qx) - p(x) is not divisible by (q-1)x + w
        monkeypatch.setattr(hahn, "_hahn_step",
                            lambda ctx, p: p.compose_affine(ctx.q, 0))
        with pytest.raises(AssertionError, match="remainder"):
            hahn_derivative_poly(ctx_q14, Poly([0, 0, 1]))


class TestLeibniz:
    def test_residuals_vanish(self, ctx_q14):
        pairs = [
            (Poly([1, 2]), Poly([0, 0, 1])),
            (Poly([F(1, 3), 0, -1]), Poly([2, F(5, 7), 1, 1])),
            (hahn_factorial(ctx_q14, 3), hahn_factorial(ctx_q14, 2)),
        ]
        for f, g in pairs:
            prod_res, quot_res = leibniz_residuals(ctx_q14, f, g)
            assert prod_res.is_zero()
            assert quot_res.is_zero()

    def test_zero_denominator_rejected(self, ctx_q14):
        with pytest.raises(ValueError):
            leibniz_residuals(ctx_q14, Poly.one(), Poly.zero())


class TestAntiderivative:
    def test_fundamental_theorem_derivative_of_integral(self, ctx_q14):
        p = Poly([F(1, 3), -2, 0, F(5, 7), 1])
        F_p = hahn_antiderivative(ctx_q14, p)
        assert hahn_derivative_poly(ctx_q14, F_p) == p

    def test_normalized_at_fixed_point(self, ctx_q14):
        p = Poly([1, 1, 1])
        assert hahn_antiderivative(ctx_q14, p)(ctx_q14.omega0) == 0

    def test_integral_of_derivative(self, ctx_q916):
        # integrating D p from omega0 to x recovers p(x) - p(omega0)
        p = Poly([2, F(-1, 3), 1, F(1, 5)])
        dp = hahn_derivative_poly(ctx_q916, p)
        for x in (F(0), F(1), F(-1, 2)):
            got = hahn_integral_closed(ctx_q916, dp, x)
            assert got == p(x) - p(ctx_q916.omega0)

    def test_var_guard(self, ctx_q14):
        # expand_in_basis rejects a polynomial in u
        with pytest.raises(ValueError, match="polynomial in u"):
            hahn_antiderivative(ctx_q14, Basis.QFACTORIAL.elements(ctx_q14, 3)[2])

    def test_zero_polynomial(self, ctx_q14):
        assert hahn_antiderivative(ctx_q14, Poly.zero()).is_zero()


class TestIntegral:
    def test_closed_matches_antiderivative(self, ctx_q14):
        p = Poly([1, F(2, 3), -1, 0, F(1, 7)])
        F_p = hahn_antiderivative(ctx_q14, p)
        for x in (F(0), F(1), F(3, 2), F(-1, 3)):
            assert hahn_integral_closed(ctx_q14, p, x) == F_p(x)

    def test_vanishes_at_fixed_point(self, ctx_q14):
        p = Poly([1, 2, 3])
        assert hahn_integral_closed(ctx_q14, p, ctx_q14.omega0) == 0

    def test_closed_var_guard(self, ctx_q14):
        with pytest.raises(ValueError, match="polynomial in u"):
            hahn_integral_closed(
                ctx_q14, Basis.QFACTORIAL.elements(ctx_q14, 3)[2], 1)

    def test_numeric_agrees_on_polynomials(self, ctx_q14):
        p = Poly([1, F(2, 3), -1, 0, F(1, 7)])
        tol = F(1, 10 ** 9)
        for x in (F(1), F(-1, 3)):
            exact = hahn_integral_closed(ctx_q14, p, x)
            approx, terms = hahn_integral_numeric(ctx_q14, p, x, tol)
            assert abs(approx - exact) < tol
            assert terms > 0

    def test_numeric_calls_f_once_per_node(self, ctx_q14):
        # K terms read K nodes, the look-ahead 8 more, and omega0 one
        p = Poly([1, F(2, 3), -1, F(1, 7)])
        x, tol, calls = F(1, 3), F(1, 10 ** 9), []

        def f(t):
            calls.append(t)
            return p(t)
        value, terms = hahn_integral_numeric(ctx_q14, f, x, tol)
        assert terms == 14
        assert len(calls) == len(set(calls)) <= terms + 9
        q, w0 = ctx_q14.q, ctx_q14.omega0
        assert value == ((1 - q) * x - ctx_q14.omega) * sum(
            q ** k * p(w0 + (x - w0) * q ** k) for k in range(terms))

    def test_numeric_zero_width(self, ctx_q14):
        value, terms = hahn_integral_numeric(ctx_q14, lambda t: 1, ctx_q14.omega0,
                                             F(1, 100))
        assert value == 0 and terms == 0

    def test_numeric_bad_tolerance(self, ctx_q14):
        with pytest.raises(ValueError):
            hahn_integral_numeric(ctx_q14, lambda t: 1, F(1), 0)


class TestExponential:
    @given(s=st.fractions(0, 1, max_denominator=12).filter(lambda s: 0 < s < 1),
           omega=st.fractions(-2, 2, max_denominator=9),
           x=st.fractions(-3, 3, max_denominator=9), terms=st.integers(0, 40))
    @example(s=F(1, 2), omega=F(1, 8), x=F(3, 2), terms=10)  # first factor 0
    @settings(max_examples=40, deadline=None)
    def test_reciprocal_product(self, s, omega, x, terms):
        ctx = QContext(s, omega)
        q, w = ctx.q, ctx.omega
        factors = [1 + q ** k * ((q - 1) * x + w) for k in range(terms)]
        if 0 in factors:
            with pytest.raises(ValueError, match="vanishes"):
                hahn_exp_normalized(ctx, x, terms)
        else:
            assert hahn_exp_normalized(ctx, x, terms) == 1 / prod(factors)

    def test_normalization(self, ctx_q14):
        assert hahn_exp_normalized(ctx_q14, ctx_q14.omega0, 30) == 1

    def test_negative_terms_rejected(self, ctx_q14):
        assert hahn_exp_normalized(ctx_q14, F(1, 3), 0) == 1
        with pytest.raises(ValueError,
                           match="q-Pochhammer length must be >= 0, got -3"):
            hahn_exp_normalized(ctx_q14, F(1, 3), -3)

    def test_functional_equation_residual_small(self, ctx_q14):
        # D_{q,w} e = e up to the geometric truncation error
        q, w = ctx_q14.q, ctx_q14.omega
        terms = 40
        bound = F(1, 10 ** 9)
        for x in (F(1), F(-1, 2), F(1, 3)):
            e_x = hahn_exp_normalized(ctx_q14, x, terms)
            e_step = hahn_exp_normalized(ctx_q14, q * x + w, terms)
            deriv = (e_step - e_x) / ((q - 1) * x + w)
            assert abs(deriv - e_x) < bound

    def test_integral_of_exponential(self, ctx_q14):
        # integral of e from omega0 to x is e(x) - 1 (normalized), approximately
        terms = 60
        x = F(1, 2)
        value, _ = hahn_integral_numeric(
            ctx_q14, lambda t: hahn_exp_normalized(ctx_q14, t, terms), x,
            F(1, 10 ** 9))
        expect = hahn_exp_normalized(ctx_q14, x, terms) - 1
        assert abs(value - expect) < F(1, 10 ** 6)

    def test_fixed_point_keeps_its_record(self):
        # at q = 1/4, omega = 3/16 the grid point x = 1/4 is omega0, where
        # D_{q,w} is d/dx: e = 1 and e' = 1 - q^40, so the residual is q^40
        import random

        from qoscpoly.report import PASS
        from qoscpoly.verify import suite_hahncalc
        ctx = QContext(F(1, 2), F(3, 16))
        w0 = ctx.omega0
        assert w0 == F(1, 4)
        h = F(1, 10 ** 12)
        slope = (hahn_exp_normalized(ctx, w0 + h, 40) - 1) / h
        assert abs(slope - (1 - ctx.q ** 40)) < F(1, 10 ** 9)
        found = [r for r in suite_hahncalc(ctx, 4, 6, random.Random(0))
                 if r.check_id.startswith("hahncalc/exp-functional-equation/")]
        assert [r.params["x"] for r in found] == [w0, F(-1, 3), F(2, 5)]
        assert all(r.status == PASS for r in found)
        assert found[0].lhs == str(ctx.q ** 40)

    def test_vanishing_factor_rejected(self):
        # (q-1)x + w = -1 at the first node makes the product singular
        ctx = QContext(F(1, 2), F(1, 8))  # q = 1/4
        x = (1 + ctx.omega) / (1 - ctx.q)
        with pytest.raises(ValueError):
            hahn_exp_normalized(ctx, x, 10)
