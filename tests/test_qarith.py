from dataclasses import FrozenInstanceError
from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qoscpoly import (HalfInt, QContext, q_binomial, q_double_factorial_even,
                      q_factorial, q_int, q_int_at, q_pochhammer,
                      q_pochhammer_inf, qhyp_terms)
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


def fraction_pochhammer(q, z, n):
    """The reference (z; q)_n: a running product of reduced Fractions,
    which the integer products of ``q_pochhammer`` must equal."""
    out, power = F(1), F(1)
    for _ in range(n):
        out *= 1 - z * power
        power *= q
    return out


small_q = st.sampled_from([F(1, 4), F(1, 2), F(2, 3), F(9, 16)])
# a base root s in (0, 1) and a shift omega, both of small height
roots = st.fractions(0, 1, max_denominator=12).filter(lambda s: 0 < s < 1)
shifts = st.fractions(-2, 2, max_denominator=9)


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


# contexts from a base root and from q itself, q a rational square or not
contexts = st.one_of(
    roots.map(QContext),
    st.fractions(0, 1, max_denominator=40).filter(lambda q: 0 < q < 1)
    .map(QContext.from_q))
# z of height up to 10^6, zero and negative values included
tall = st.builds(F, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6))


class TestPochhammerIntegerProducts:
    """The integer products against the Fraction product they replace."""

    @given(ctx=contexts, z=tall, n=st.integers(0, 40))
    @settings(max_examples=80, deadline=None)
    @example(ctx=QContext(F(1, 2)), z=F(0), n=40)
    @example(ctx=QContext.from_q(F(1, 2)), z=F(-10 ** 6, 7), n=40)
    def test_matches_fraction_product(self, ctx, z, n):
        assert q_pochhammer(ctx, z, n) == fraction_pochhammer(ctx.q, z, n)

    @given(ctx=contexts, m=st.integers(0, 40), n=st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_vanishes_from_q_to_minus_m(self, ctx, m, n):
        # factor m of (q^-m; q)_n is 1 - q^0 = 0
        z = ctx.q ** -m
        value = q_pochhammer(ctx, z, n)
        assert value == fraction_pochhammer(ctx.q, z, n)
        assert (value == 0) == (n > m)

    def test_negative_rejected(self, ctx_q12):
        with pytest.raises(ValueError,
                           match="q-Pochhammer length must be >= 0, got -1"):
            q_pochhammer(ctx_q12, F(1, 3), -1)


small_fracs = st.fractions(-3, 3, max_denominator=6)


class TestQhypTerms:
    """The walker's running ratio against the term written out in full."""

    @given(s=roots, lower=st.lists(small_fracs, max_size=2), z=small_fracs,
           count=st.integers(0, 8), weighted=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_definition(self, s, lower, z, count, weighted):
        ctx = QContext(s)
        q = ctx.q

        def weight(k):
            return (-1) ** k * q ** (k * (k - 1) // 2)

        def poch(params, k):
            return prod((q_pochhammer(ctx, a, k) for a in params), start=F(1))

        lower_ok = [k for k in range(count) if poch(lower, k) != 0]
        if len(lower_ok) < count:
            with pytest.raises(ValueError):
                qhyp_terms(ctx, lower, z, count)
            return
        got = qhyp_terms(ctx, lower, z, count, weight if weighted else None)
        assert got == [(weight(k) if weighted else 1) * z ** k
                       / (poch(lower, k) * q_pochhammer(ctx, q, k))
                       for k in range(count)]

    def test_vanishing_lower_pochhammer(self, ctx_q12):
        # (q^-2; q)_k vanishes from k = 3 on: terms 0..2 need only k <= 2
        q = ctx_q12.q
        terms = qhyp_terms(ctx_q12, [q ** -2], F(1, 2), 3)
        assert len(terms) == 3 and all(t != 0 for t in terms)
        with pytest.raises(ValueError, match="k = 3"):
            qhyp_terms(ctx_q12, [q ** -2], F(1, 2), 4)

    def test_empty(self, ctx_q14):
        assert qhyp_terms(ctx_q14, [], 5, 0) == []

    def test_negative_count_rejected(self, ctx_q14):
        # like q_factorial and q_pochhammer, a negative size is an error,
        # not an empty series
        with pytest.raises(ValueError,
                           match="term count must be >= 0, got -1"):
            qhyp_terms(ctx_q14, [], 5, -1)


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

    @pytest.mark.parametrize("name", ["twice", "value", "other"])
    def test_half_int_immutable(self, name):
        half = HalfInt(1)
        with pytest.raises(FrozenInstanceError):
            setattr(half, name, 3)
        assert half == HALF_HALF and half.value == F(1, 2)


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
        with pytest.raises(ValueError, match="base root"):
            QContext.from_q(F(1, 2)).s

    def test_rational_sqrt(self):
        assert rational_sqrt(F(4, 9)) == F(2, 3)
        assert rational_sqrt(F(1, 2)) is None

    def test_omega0(self):
        ctx = QContext(F(1, 2), F(1, 8))
        assert ctx.omega0 == F(1, 6)


TABLES = ("powers", "ints", "factorials", "binomials")


class TestKernelTables:
    """The context's tables give the q_int_at and ** values, shared by copies."""

    @given(s=roots, omega=shifts, other=shifts, copy_first=st.booleans(),
           n=st.integers(-8, 14), k=st.integers(-2, 16),
           twice=st.sampled_from([-3, -1, 1, 3]))
    @settings(max_examples=60, deadline=None)
    def test_match_definitions(self, s, omega, other, copy_first, n, k, twice):
        ctx = QContext(s, omega)
        copy = ctx.with_omega(other)
        q = s * s

        def fact(m):
            return prod((q_int_at(q, j) for j in range(1, m + 1)), start=F(1))

        for c in (copy, ctx) if copy_first else (ctx, copy):
            assert c.q_pow(n) == q ** n
            # an odd twice * n is an odd power of s, negative ones included
            assert c.pow_half(HalfInt(twice), n) == s ** (twice * n)
            assert q_int(c, n) == q_int_at(q, n)
            if n >= 0:
                assert q_factorial(c, n) == fact(n)
                expect = fact(n) / (fact(k) * fact(n - k)) if 0 <= k <= n else 0
                assert q_binomial(c, n, k) == expect
        for name in TABLES:
            assert getattr(copy, name) is getattr(ctx, name)

    def test_not_part_of_the_value(self):
        ctx = QContext(F(1, 2), F(1, 8))
        fresh = QContext(F(1, 2), F(1, 8))
        q_factorial(ctx, 9)
        assert ctx == fresh and hash(ctx) == hash(fresh)
        for name in TABLES:
            assert getattr(ctx, name) is not getattr(fresh, name)
            assert name not in repr(ctx)
        assert repr(ctx) == repr(fresh)

    def test_odd_power_needs_the_root(self):
        ctx = QContext.from_q(F(1, 2))
        assert ctx.pow_half(HALF_HALF, 2) == F(1, 2)
        with pytest.raises(ValueError, match="base root"):
            ctx.pow_half(HALF_HALF, -3)

    @pytest.mark.parametrize("name", ["q", "omega", "root", *TABLES, "tables",
                                      "s", "omega0", "other"])
    def test_immutable(self, name):
        ctx = QContext(F(1, 2), F(1, 8))
        with pytest.raises(AttributeError):
            setattr(ctx, name, F(1, 3))
        with pytest.raises(AttributeError):
            setattr(ctx.with_omega(0), name, F(1, 3))
        assert ctx == QContext(F(1, 2), F(1, 8))
