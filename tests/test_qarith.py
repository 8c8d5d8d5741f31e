from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qoscpoly import (HalfInt, QContext, q_binomial, q_double_factorial_even,
                      q_factorial, q_int, q_pochhammer, q_pochhammer_inf)
from qoscpoly.context import HALF_HALF, rational_sqrt


def pascal_table(q, nmax):
    """Independent oracle: build q-binomials purely from the Pascal rule."""
    table = [[F(1)]]
    for n in range(1, nmax + 1):
        row = [F(1)]
        for k in range(1, n):
            row.append(table[n - 1][k] + q ** (n - k) * table[n - 1][k - 1])
        row.append(F(1))
        table.append(row)
    return table


small_q = st.sampled_from([F(1, 4), F(1, 2), F(2, 3), F(9, 16)])


class TestQInt:
    def test_zero(self):
        assert q_int(QContext(F(1, 3)), 0) == 0

    def test_one(self, ctx_q14):
        assert q_int(ctx_q14, 1) == 1

    def test_geometric_sum(self):
        # 1 + q + q^2 at q = 1/4
        ctx = QContext(F(1, 2))
        assert q_int(ctx, 3) == F(21, 16)

    def test_recursion(self, ctx_q916):
        for n in range(-5, 10):
            assert q_int(ctx_q916, n + 1) == 1 + ctx_q916.q * q_int(ctx_q916, n)


class TestQFactorial:
    def test_empty_product(self, ctx_q12):
        assert q_factorial(ctx_q12, 0) == 1

    def test_small_values(self, ctx_q12):
        assert q_factorial(ctx_q12, 2) == F(3, 2)
        assert q_factorial(ctx_q12, 3) == F(21, 8)

    def test_negative_rejected(self, ctx_q12):
        with pytest.raises(ValueError):
            q_factorial(ctx_q12, -1)

    @given(q=small_q, n=st.integers(0, 20))
    def test_pochhammer_normalization(self, q, n):
        ctx = QContext.from_q(q)
        assert q_factorial(ctx, n) == q_pochhammer(ctx, q, n) / (1 - q) ** n


class TestQBinomial:
    def test_edge(self, ctx_q12):
        assert q_binomial(ctx_q12, 5, 0) == 1

    def test_out_of_range_is_zero(self, ctx_q12):
        assert q_binomial(ctx_q12, 2, 3) == 0
        assert q_binomial(ctx_q12, 4, -1) == 0

    def test_pascal_oracle_value(self, ctx_q12):
        # 1 + q + 2q^2 + q^3 + q^4 at q = 1/2
        assert q_binomial(ctx_q12, 4, 2) == F(35, 16)
        assert q_binomial(ctx_q12, 4, 2) == pascal_table(F(1, 2), 4)[4][2]

    @given(q=small_q)
    @settings(max_examples=20)
    def test_both_pascal_rules(self, q):
        ctx = QContext.from_q(q)
        table = pascal_table(q, 12)
        for n in range(12):
            for k in range(n + 2):
                expect = table[n + 1][k] if k <= n + 1 else F(0)
                assert q_binomial(ctx, n + 1, k) == expect
                assert (q_binomial(ctx, n, k)
                        + q ** (n + 1 - k) * q_binomial(ctx, n, k - 1)) == expect
                assert (q_binomial(ctx, n, k - 1)
                        + q ** k * q_binomial(ctx, n, k)) == expect


class TestPochhammer:
    def test_empty(self, ctx_q14):
        assert q_pochhammer(ctx_q14, F(7, 3), 0) == 1

    def test_vanishing_first_factor(self, ctx_q12):
        assert q_pochhammer(ctx_q12, 1, 3) == 0

    def test_direct_product(self, ctx_q12):
        assert q_pochhammer(ctx_q12, F(1, 3), 2) == F(5, 9)

    @given(q=small_q, m=st.integers(0, 10), n=st.integers(0, 10),
           zn=st.integers(-6, 6), zd=st.integers(1, 6))
    @settings(max_examples=40)
    def test_splitting(self, q, m, n, zn, zd):
        ctx = QContext.from_q(q)
        z = F(zn, zd)
        assert q_pochhammer(ctx, z, m + n) == (
            q_pochhammer(ctx, z, m) * q_pochhammer(ctx, z * q ** m, n))


class TestPochhammerInf:
    def test_zero_argument(self, ctx_q12):
        assert q_pochhammer_inf(ctx_q12, 0, F(1, 10)) == (F(1), 0)

    def test_against_long_product(self, ctx_q12):
        tol = F(1, 10 ** 6)
        value, terms = q_pochhammer_inf(ctx_q12, F(1, 2), tol)
        oracle = q_pochhammer(ctx_q12, F(1, 2), 200)
        assert abs(value - oracle) < tol
        assert 15 <= terms <= 30

    def test_unit_argument_collapses(self, ctx_q12):
        value, terms = q_pochhammer_inf(ctx_q12, 1, F(1, 10 ** 6))
        assert value == 0 and terms == 1

    def test_bad_tolerance(self, ctx_q12):
        with pytest.raises(ValueError):
            q_pochhammer_inf(ctx_q12, F(1, 2), 0)


class TestHalfPowers:
    def test_zero_exponent(self, ctx_q14):
        assert ctx_q14.pow_half(HalfInt(0), 9) == 1

    def test_half(self):
        ctx = QContext(F(1, 2))
        assert ctx.pow_half(HALF_HALF, 4) == F(1, 16)   # q^2 at q=1/4
        assert ctx.pow_half(HALF_HALF, 1) == F(1, 2)    # q^(1/2) = s

    def test_additive(self, ctx_q916):
        for a in range(-6, 7):
            for b in range(-6, 7):
                assert (ctx_q916.pow_half(HALF_HALF, a)
                        * ctx_q916.pow_half(HALF_HALF, b)
                        == ctx_q916.pow_half(HALF_HALF, a + b))

    def test_even_exponents_work_without_root(self, ctx_q12):
        assert ctx_q12.pow_half(HALF_HALF, 4) == ctx_q12.q ** 2

    def test_odd_exponent_needs_root(self, ctx_q12):
        with pytest.raises(ValueError):
            ctx_q12.pow_half(HALF_HALF, 1)

    def test_half_int_construction(self):
        assert HalfInt.of(F(1, 2)).twice == 1
        with pytest.raises(ValueError):
            HalfInt.of(F(1, 3))


class TestDoubleFactorial:
    def test_empty(self, ctx_q12):
        assert q_double_factorial_even(ctx_q12, 0) == 1

    def test_values(self, ctx_q12):
        assert q_double_factorial_even(ctx_q12, 1) == F(3, 2)
        assert q_double_factorial_even(ctx_q12, 2) == F(45, 16)


class TestContext:
    def test_invalid_root(self):
        with pytest.raises(ValueError):
            QContext(F(3, 2))
        with pytest.raises(ValueError):
            QContext(0)

    def test_from_q_recovers_square_root(self):
        ctx = QContext.from_q(F(9, 16), F(1, 8))
        assert ctx.s == F(3, 4)
        assert QContext.from_q(F(1, 2)).has_root is False

    def test_rational_sqrt(self):
        assert rational_sqrt(F(4, 9)) == F(2, 3)
        assert rational_sqrt(F(1, 2)) is None

    def test_omega0(self):
        ctx = QContext(F(1, 2), F(1, 8))
        assert ctx.omega0 == F(1, 6)
