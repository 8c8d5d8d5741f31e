from fractions import Fraction as F
from math import gcd
from numbers import Rational

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qoscpoly import Basis, Poly, QContext
from qoscpoly.context import frac
from qoscpoly.poly import VAR_T, VAR_U, VAR_X

RATIONALS = st.fractions(-5, 5, max_denominator=9)
VARS = st.sampled_from([VAR_X, VAR_U, VAR_T])
# zeros, integers and rationals of larger height, so that sums and products
# cancel, trail off in zeros and share factors with the denominator
COEFFS = st.one_of(st.just(F(0)), RATIONALS, st.integers(-4, 4).map(F),
                   st.fractions(max_denominator=10 ** 6))
COEFF_LISTS = st.lists(COEFFS, max_size=9)


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class RefPoly:
    """The reference: a polynomial as a tuple of Fractions, one Fraction
    operation per coefficient operation (the former ``qoscpoly.poly.Poly``)."""

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs, var: str = VAR_X):
        self.coeffs = _trim(frac(c) for c in coeffs)
        self.var = var

    @classmethod
    def const(cls, c, var: str = VAR_X) -> "RefPoly":
        return cls((c,), var)

    def coeff(self, n: int) -> F:
        return self.coeffs[n] if 0 <= n < len(self.coeffs) else F(0)

    def __add__(self, other):
        if not isinstance(other, RefPoly):
            other = RefPoly.const(other, self.var)
        n = max(len(self.coeffs), len(other.coeffs))
        return RefPoly((self.coeff(i) + other.coeff(i) for i in range(n)),
                       self.var)

    def __neg__(self):
        return RefPoly((-c for c in self.coeffs), self.var)

    def __sub__(self, other):
        if not isinstance(other, RefPoly):
            other = RefPoly.const(other, self.var)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RefPoly):
            c = frac(other)
            return RefPoly((c * a for a in self.coeffs), self.var)
        return self.mul_trunc(other, len(self.coeffs) + len(other.coeffs) - 2)

    def mul_trunc(self, other: "RefPoly", order: int) -> "RefPoly":
        a, b = self.coeffs, other.coeffs
        out = []
        for i in range(min(order, len(a) + len(b) - 2) + 1):
            acc = F(0)
            for k in range(max(0, i - len(b) + 1), min(i, len(a) - 1) + 1):
                acc += a[k] * b[i - k]
            out.append(acc)
        return RefPoly(out, self.var)

    def __eq__(self, other):
        if isinstance(other, RefPoly):
            return self.coeffs == other.coeffs and self.var == other.var
        if isinstance(other, Rational):
            return self.coeffs == _trim([other])
        return NotImplemented

    def __call__(self, value) -> F:
        out = F(0)
        v = frac(value)
        for c in reversed(self.coeffs):
            out = out * v + c
        return out

    def compose_affine(self, a, b) -> "RefPoly":
        rest, shifted, b = self, [], frac(b)
        for _ in self.coeffs:
            rest, rem = rest.divmod_linear(-b, 1)
            shifted.append(rem)
        return RefPoly(shifted, self.var).scale_arg(a)

    def scale_arg(self, a) -> "RefPoly":
        a = frac(a)
        return RefPoly((c * a ** n for n, c in enumerate(self.coeffs)), self.var)

    def divmod_linear(self, a, b) -> tuple["RefPoly", F]:
        a, b = frac(a), frac(b)
        quot = []
        carry = F(0)
        for c in reversed(self.coeffs[1:]):
            carry = (c - a * carry) / b
            quot.append(carry)
        return RefPoly(reversed(quot), self.var), self.coeff(0) - a * carry


def assert_normal(p: Poly):
    """p is in the normal form: integer numerators without trailing zero
    over a positive denominator coprime to their content."""
    assert isinstance(p.nums, tuple)
    assert all(type(n) is int for n in p.nums) and type(p.den) is int
    assert p.den > 0 and (not p.nums or p.nums[-1] != 0)
    assert gcd(p.den, *p.nums) == 1


def assert_matches(p: Poly, ref: RefPoly):
    assert_normal(p)
    assert p.coeffs == ref.coeffs and p.var == ref.var
    assert all(type(c) is F for c in p.coeffs)


class TestAgainstReference:
    @given(cs=COEFF_LISTS, var=VARS)
    @example(cs=[], var=VAR_X)
    @example(cs=[F(0), F(0)], var=VAR_U)
    @example(cs=[F(2, 4)], var=VAR_T)
    @settings(max_examples=60, deadline=None)
    def test_construction(self, cs, var):
        p = Poly(cs, var)
        assert_matches(p, RefPoly(cs, var))
        assert p.degree == len(_trim(cs)) - 1 and p.is_zero() == (p.degree < 0)
        for n in range(-1, len(cs) + 1):
            assert p.coeff(n) == RefPoly(cs, var).coeff(n)

    @given(pc=COEFF_LISTS, rc=COEFF_LISTS, c=COEFFS, var=VARS)
    @example(pc=[], rc=[], c=F(0), var=VAR_X)
    @example(pc=[1, F(1, 2)], rc=[0, F(-1, 2)], c=F(3), var=VAR_T)
    @settings(max_examples=80, deadline=None)
    def test_ring_operations(self, pc, rc, c, var):
        p, r = Poly(pc, var), Poly(rc, var)
        rp, rr = RefPoly(pc, var), RefPoly(rc, var)
        assert_matches(p + r, rp + rr)
        assert_matches(p - r, rp - rr)
        assert_matches(-p, -rp)
        assert_matches(p * r, rp * rr)
        assert_matches(p + c, rp + c)
        assert_matches(c + p, rp + c)
        assert_matches(p - c, rp - c)
        assert_matches(c - p, -(rp - c))
        assert_matches(p * c, rp * c)
        assert_matches(c * p, rp * c)
        if c != 0:
            assert_matches(p / c, rp * (1 / c))

    @given(pc=COEFF_LISTS, rc=COEFF_LISTS, order=st.integers(-1, 18), var=VARS)
    @settings(max_examples=60, deadline=None)
    def test_mul_trunc(self, pc, rc, order, var):
        out = Poly(pc, var).mul_trunc(Poly(rc, var), order)
        assert_matches(out, RefPoly(pc, var).mul_trunc(RefPoly(rc, var), order))

    @given(cs=COEFF_LISTS, a=COEFFS, b=COEFFS.filter(lambda b: b != 0), var=VARS)
    @example(cs=[F(1, 3), 2, F(-5, 7)], a=F(2, 3), b=F(-3, 4), var=VAR_X)
    @example(cs=[F(5, 7)], a=0, b=1, var=VAR_U)
    @settings(max_examples=60, deadline=None)
    def test_divmod_linear(self, cs, a, b, var):
        quot, rem = Poly(cs, var).divmod_linear(a, b)
        ref_quot, ref_rem = RefPoly(cs, var).divmod_linear(a, b)
        assert_matches(quot, ref_quot)
        assert rem == ref_rem and type(rem) is F

    @given(cs=COEFF_LISTS, a=COEFFS, b=COEFFS, var=VARS)
    @example(cs=[1, F(-2, 3), F(1, 5)], a=F(-9, 4), b=F(3, 8), var=VAR_X)
    @example(cs=[F(1, 2), 3], a=0, b=F(1, 2), var=VAR_T)
    # the Taylor shift's scales: b with numerator and sign, a = 0, b = 0
    @example(cs=[F(2, 3), -1, F(5, 7), 3, F(-1, 6)], a=F(7, 3), b=F(-5, 3),
             var=VAR_U)
    @example(cs=[F(2, 3), -1, F(5, 7)], a=0, b=F(-5, 3), var=VAR_X)
    @example(cs=[F(2, 3), -1, F(5, 7)], a=F(-3, 2), b=0, var=VAR_X)
    @settings(max_examples=60, deadline=None)
    def test_substitution(self, cs, a, b, var):
        p, ref = Poly(cs, var), RefPoly(cs, var)
        assert_matches(p.compose_affine(a, b), ref.compose_affine(a, b))
        assert_matches(p.scale_arg(a), ref.scale_arg(a))

    @given(cs=COEFF_LISTS, v=COEFFS, var=VARS)
    @example(cs=[], v=F(1), var=VAR_X)
    @example(cs=[F(1, 3), F(-1, 3)], v=F(1), var=VAR_U)
    @settings(max_examples=60, deadline=None)
    def test_evaluation(self, cs, v, var):
        value = Poly(cs, var)(v)
        assert value == RefPoly(cs, var)(v) and type(value) is F

    @given(pc=COEFF_LISTS, rc=COEFF_LISTS, c=COEFFS, var=VARS,
           rvar=VARS)
    @example(pc=[F(1, 2)], rc=[F(2, 4)], c=F(1, 2), var=VAR_X, rvar=VAR_X)
    @example(pc=[], rc=[0], c=F(0), var=VAR_T, rvar=VAR_T)
    @settings(max_examples=80, deadline=None)
    def test_equality_and_hash(self, pc, rc, c, var, rvar):
        p, r = Poly(pc, var), Poly(rc, rvar)
        rp, rr = RefPoly(pc, var), RefPoly(rc, rvar)
        assert (p == r) == (rp == rr)
        assert (p == c) == (rp == c) == (c == p)
        if p == r:
            assert hash(p) == hash(r)
        if p == c:
            assert hash(p) == hash(c)

    @pytest.mark.parametrize("var", [VAR_X, VAR_U, VAR_T])
    def test_construction_paths_agree(self, var):
        half = F(1, 2)
        x = Poly([0, 1], var)
        pairs = [
            (Poly([F(2, 4)], var), Poly.const(half, var)),
            (Poly([F(3, 6), 0, 0], var), half * Poly.one(var)),
            (Poly([1, 2], var), Poly([F(1), F(4, 2), F(0)], var)),
            ((x + half) * (x - half), Poly([F(-1, 4), 0, 1], var)),
            ((x * 3 - 1) / 6, Poly([F(-1, 6), half], var)),
            (Poly([F(1, 3), F(2, 3)], var) - Poly([F(1, 3), F(2, 3)], var),
             Poly.zero(var)),
            (Poly([F(-1, 4), 0, 1], var).divmod_linear(half, 1)[0], x - half),
            (Poly([4, 6], var).scale_arg(half), Poly([4, 3], var)),
        ]
        for built, written in pairs:
            assert_normal(built)
            assert built == written and hash(built) == hash(written)
            assert (built.nums, built.den) == (written.nums, written.den)
        assert Poly.zero(var).nums == () and Poly.zero(var).den == 1


class TestOver:
    """Poly.over, the one normaliser, gives the normal form of the
    polynomial built from the same Fractions."""

    @pytest.mark.parametrize("nums,den", [
        ([2, -4, 6], -4),     # negative den and a common factor
        ([4, 6], -2),         # the content equals |den|
        ([0, 0, 0], -7),      # all zero
        ([], 3),              # no numerators
        ([3, 0, 5, 0, 0], 7),  # trailing zeros
        ([6, 12, 18], 9),     # a common factor of 3
        ([0, 10, 0], 15),     # a common factor around zeros
    ])
    @pytest.mark.parametrize("var", [VAR_X, VAR_U, VAR_T])
    def test_normal_form_cases(self, nums, den, var):
        p = Poly.over(list(nums), den, var)
        built = Poly([F(n, den) for n in nums], var)
        assert_normal(p)
        assert (p.nums, p.den, p.var) == (built.nums, built.den, built.var)

    @given(nums=st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=9),
           den=st.integers(-10 ** 4, 10 ** 4).filter(bool), var=VARS)
    @settings(max_examples=60, deadline=None)
    def test_normal_form(self, nums, den, var):
        p = Poly.over(list(nums), den, var)
        assert_matches(p, RefPoly([F(n, den) for n in nums], var))


@pytest.mark.parametrize("s,omega", [(F(3, 4), F(1, 3)), (F(1, 2), F(0))])
@pytest.mark.parametrize("basis", [Basis.MONOMIAL, Basis.SHIFTED_MONOMIAL,
                                   Basis.QGAUSSIAN, Basis.QFACTORIAL,
                                   Basis.HAHN_FACTORIAL])
def test_basis_rows_match_reference_product(basis, s, omega):
    ctx = QContext(s, omega)
    row = basis.elements(ctx, 25)
    ref = [RefPoly([1], basis.var)]
    for k in range(24):
        a, b = basis.factor(ctx, k)
        c = ref[-1].coeffs
        ref.append(RefPoly([a * x + b * y for x, y in zip(c + (0,), (0,) + c)],
                           basis.var))
    assert len(row) == 25
    for p, r in zip(row, ref):
        assert_matches(p, r)


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
