from fractions import Fraction as F

import pytest
from hypothesis import given, settings
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
