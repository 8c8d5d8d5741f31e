from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qoscpoly import Poly
from qoscpoly.poly import VAR_T, VAR_U, VAR_X

RATIONALS = st.fractions(-5, 5, max_denominator=9)


class TestDivmodLinear:
    @given(coeffs=st.lists(RATIONALS, max_size=9), a=RATIONALS,
           b=RATIONALS.filter(lambda b: b != 0),
           var=st.sampled_from([VAR_X, VAR_U, VAR_T]))
    @settings(max_examples=60, deadline=None)
    def test_quotient_and_remainder(self, coeffs, a, b, var):
        p = Poly(coeffs, var)
        quot, rem = p.divmod_linear(a, b)
        assert quot.var == var
        assert quot * Poly([a, b], var) + rem == p
        assert rem == p(-a / b)

    def test_zero_polynomial(self):
        assert Poly.zero().divmod_linear(F(1, 3), 2) == (0, 0)

    def test_constant(self):
        quot, rem = Poly.const(F(5, 7), VAR_U).divmod_linear(1, -3)
        assert (quot, rem) == (Poly.zero(VAR_U), F(5, 7))

    def test_constant_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            Poly([1, 2]).divmod_linear(3, 0)


class TestEquality:
    @pytest.mark.parametrize("other", [None, "x", "1", 1.0, [1]])
    def test_non_rational_is_unequal(self, other):
        assert not Poly([1]) == other
        assert Poly([1]) != other

    def test_constant_equals_its_value(self):
        assert Poly([3]) == 3 and 3 == Poly([3])
        assert Poly([F(1, 2)], VAR_U) == F(1, 2)
        assert Poly.zero() == 0 and Poly([1, 1]) != 1

    @given(c=RATIONALS, var=st.sampled_from([VAR_X, VAR_U, VAR_T]))
    @settings(max_examples=30, deadline=None)
    def test_constant_hashes_as_its_value(self, c, var):
        assert hash(Poly.const(c, var)) == hash(c)
        assert len({Poly.const(c, var), c}) == 1

    def test_hash_follows_equality(self):
        assert hash(Poly([1, 2])) == hash(Poly([F(1), F(2), 0]))
        assert Poly([1, 2]) != Poly([1, 2], VAR_U)


class TestEvaluation:
    @given(coeffs=st.lists(RATIONALS, max_size=9),
           var=st.sampled_from([VAR_X, VAR_U, VAR_T]))
    @settings(max_examples=40, deadline=None)
    def test_value_at_one(self, coeffs, var):
        # p(1) is the constant term of p(x + 1), which is read at 0
        p = Poly(coeffs, var)
        assert p(1) == p.compose_affine(1, 1)(0) == p(F(1))
        assert type(p(1)) is F

    @given(coeffs=st.lists(RATIONALS, max_size=13), a=RATIONALS, b=RATIONALS,
           t=RATIONALS, var=st.sampled_from([VAR_X, VAR_U, VAR_T]))
    @example(coeffs=[1, -2, F(1, 3)], a=0, b=F(1, 2), t=3, var=VAR_U)
    @example(coeffs=[1, -2, F(1, 3)], a=F(2, 3), b=0, t=3, var=VAR_T)
    @example(coeffs=[], a=F(2, 3), b=F(1, 2), t=3, var=VAR_X)
    @settings(max_examples=40, deadline=None)
    def test_compose_affine_substitutes(self, coeffs, a, b, t, var):
        p = Poly(coeffs, var)
        out = p.compose_affine(a, b)
        assert out.var == var
        assert out(t) == p(a * t + b)
        if a != 0:
            assert out.degree == p.degree
        else:
            assert out == Poly.const(p(b), var)

    @pytest.mark.parametrize("var", [VAR_X, VAR_U, VAR_T])
    def test_compose_affine_of_zero(self, var):
        assert Poly.zero(var).compose_affine(F(1, 2), 3) == Poly.zero(var)

    @given(pc=st.lists(RATIONALS, max_size=9), rc=st.lists(RATIONALS, max_size=9),
           t=RATIONALS, var=st.sampled_from([VAR_X, VAR_U, VAR_T]))
    @example(pc=[], rc=[1, 2], t=3, var=VAR_U)
    @example(pc=[1, 2], rc=[], t=3, var=VAR_T)
    @settings(max_examples=40, deadline=None)
    def test_product_is_pointwise(self, pc, rc, t, var):
        p, r = Poly(pc, var), Poly(rc, var)
        prod = p * r
        assert prod(t) == p(t) * r(t)
        if p.is_zero() or r.is_zero():
            assert prod == Poly.zero(var)
        else:
            assert prod.var == var and prod.degree == p.degree + r.degree
