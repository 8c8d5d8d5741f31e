from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qoscpoly import (Basis, Poly, QContext, connect_hahn_gaussian,
                      expand_in_basis, hahn_factorial,
                      hahn_integral_closed, position_coefficients,
                      q_binomial, q_double_factorial_even, q_factorial, q_int,
                      qfactorial_pochhammer_value, qgaussian,
                      qgaussian_via_qexp_operator, vector_to_poly)
from qoscpoly.context import rational_sqrt
from qoscpoly.poly import VAR_U, VAR_X

METHODS = ("product", "recursion", "explicit_sum")
BASES = (Basis.MONOMIAL, Basis.SHIFTED_MONOMIAL, Basis.QGAUSSIAN,
         Basis.QFACTORIAL, Basis.HAHN_FACTORIAL)


def row_sum(ctx, basis, coeffs):
    """The reference rebuild: the sum of c_k times element k of one row."""
    p = Poly.zero(basis.var)
    for c, element in zip(coeffs, basis.elements(ctx, len(coeffs))):
        if c != 0:
            p = p + c * element
    return p


class TestQGaussian:
    def test_low_orders(self, ctx_q12):
        q = ctx_q12.q
        assert qgaussian(ctx_q12, 0) == Poly.one()
        assert qgaussian(ctx_q12, 1) == Poly([-1, 1])
        assert qgaussian(ctx_q12, 2) == Poly([q, -1 - q, 1])

    def test_methods_agree(self, ctx_q12):
        for n in range(12):
            ref = qgaussian(ctx_q12, n, "product")
            for method in METHODS[1:]:
                assert qgaussian(ctx_q12, n, method) == ref

    def test_roots_are_q_powers(self, ctx_q916):
        p = qgaussian(ctx_q916, 6)
        for k in range(6):
            assert p(ctx_q916.q ** k) == 0
        assert p(2) != 0

    def test_three_term_recursion(self, ctx_q14):
        # x phi_n = phi_{n+1} + q^n phi_n
        x = Poly([0, 1])
        for n in range(10):
            phi = qgaussian(ctx_q14, n)
            assert x * phi == qgaussian(ctx_q14, n + 1) + ctx_q14.q_pow(n) * phi

    def test_bad_method(self, ctx_q12):
        with pytest.raises(ValueError):
            qgaussian(ctx_q12, 2, "interpolation")
        with pytest.raises(ValueError):
            qgaussian(ctx_q12, -1)

    def test_operator_series_form(self, ctx_q916):
        for n in range(10):
            assert qgaussian_via_qexp_operator(ctx_q916, n) == qgaussian(ctx_q916, n)


class TestQFactorialFamily:
    def test_low_orders(self, ctx_q12):
        q = ctx_q12.q
        phihat = Basis.QFACTORIAL.elements(ctx_q12, 2)
        assert phihat[0] == Poly.one(VAR_U)
        assert phihat[1] == Poly([1, -1], VAR_U) / (1 - q)

    def test_lives_in_u(self, ctx_q12):
        assert Basis.QFACTORIAL.elements(ctx_q12, 4)[3].var == VAR_U

    def test_vanishes_at_small_integers(self, ctx_q916):
        # phihat_n(x) = [x]_q [x-1]_q ... [x-n+1]_q kills x = 0..n-1
        q = ctx_q916.q
        p = Basis.QFACTORIAL.elements(ctx_q916, 6)[5]
        for x in range(5):
            assert p(q ** x) == 0

    def test_integer_values_match_q_factorials(self, ctx_q916):
        q = ctx_q916.q
        for n, p in enumerate(Basis.QFACTORIAL.elements(ctx_q916, 7)):
            for x in range(n, n + 5):
                expect = q_factorial(ctx_q916, x) / q_factorial(ctx_q916, x - n)
                assert p(q ** x) == expect

    def test_pochhammer_identity_oracle(self, ctx_q12):
        q = ctx_q12.q
        for n, p in enumerate(Basis.QFACTORIAL.elements(ctx_q12, 7)):
            for x in range(0, 9):
                assert p(q ** x) == qfactorial_pochhammer_value(ctx_q12, n, x)


class TestHahnFactorial:
    def test_low_orders(self, ctx_q14):
        w = ctx_q14.omega
        assert hahn_factorial(ctx_q14, 0) == Poly.one()
        assert hahn_factorial(ctx_q14, 1) == Poly([0, 1])
        assert hahn_factorial(ctx_q14, 2) == Poly([0, -w, 1])

    def test_methods_agree(self, ctx_q14):
        for n in range(12):
            ref = hahn_factorial(ctx_q14, n, "product")
            for method in METHODS[1:]:
                assert hahn_factorial(ctx_q14, n, method) == ref

    def test_roots_are_q_integers(self, ctx_q916):
        p = hahn_factorial(ctx_q916, 6)
        for k in range(6):
            assert p(q_int(ctx_q916, k) * ctx_q916.omega) == 0

    def test_omega_zero_gives_monomials(self, ctx_q916):
        ctx0 = ctx_q916.with_omega(0)
        for n in range(8):
            assert hahn_factorial(ctx0, n) == Poly.monomial(n)

    def test_shifted_recursion(self, ctx_q14):
        # (x - omega0) phidot_n = phidot_{n+1} - omega0 q^n phidot_n
        w0 = ctx_q14.omega0
        shift = Poly([-w0, 1])
        for n in range(10):
            phi = hahn_factorial(ctx_q14, n)
            assert shift * phi == (hahn_factorial(ctx_q14, n + 1)
                                   - w0 * ctx_q14.q_pow(n) * phi)

    def test_connection_to_qgaussian(self, ctx_q14):
        for n in range(10):
            assert connect_hahn_gaussian(ctx_q14, n) == hahn_factorial(ctx_q14, n)

    def test_connection_degenerate(self, ctx_q916):
        with pytest.raises(ValueError):
            connect_hahn_gaussian(ctx_q916.with_omega(0), 3)

    def test_connection_negative_index(self, ctx_q14):
        # qgaussian rejects the index
        with pytest.raises(ValueError, match="family index must be >= 0"):
            connect_hahn_gaussian(ctx_q14, -1)


def _inversion_references(ctx, n):
    """x^n and (x - w0)^n with their coefficients in the q-Gaussian and Hahn
    factorial bases, from the q-binomial inversion, not from any factor."""
    w0 = ctx.omega0
    return [
        (Basis.QGAUSSIAN, Poly.monomial(n),
         [q_binomial(ctx, n, k) for k in range(n + 1)]),
        (Basis.HAHN_FACTORIAL, Poly([-w0, 1]) ** n,
         [q_binomial(ctx, n, k) * (-w0) ** (n - k) for k in range(n + 1)]),
    ]


class TestBasisConversion:
    @pytest.mark.parametrize("basis", BASES)
    def test_roundtrip(self, ctx_q14, basis):
        p = Poly([F(1, 3), -2, 0, F(5, 7), 1], basis.var)
        v = expand_in_basis(ctx_q14, p, basis)
        assert vector_to_poly(ctx_q14, basis, v) == p

    @pytest.mark.parametrize("ctx_name", ["ctx_q14", "ctx_q916"])
    def test_expansion_matches_q_binomial_inversion(self, request, ctx_name):
        ctx = request.getfixturevalue(ctx_name)
        for n in range(13):
            for basis, p, expect in _inversion_references(ctx, n):
                assert expand_in_basis(ctx, p, basis) == expect

    def test_wrong_factor_fails_inversion(self, ctx_q14):
        # a wrong factor cancels in a roundtrip, since division and
        # vector_to_poly read the same factor; the inversion catches it
        wrong = {
            Basis.QGAUSSIAN: replace(
                Basis.QGAUSSIAN,
                factor=lambda ctx, k: (-ctx.q_pow(k + 1), 1)),
            Basis.HAHN_FACTORIAL: replace(
                Basis.HAHN_FACTORIAL,
                factor=lambda ctx, k: (-q_int(ctx, k + 1) * ctx.omega, 1)),
        }
        for n in (2, 5):
            for basis, p, expect in _inversion_references(ctx_q14, n):
                v = expand_in_basis(ctx_q14, p, wrong[basis])
                assert vector_to_poly(ctx_q14, wrong[basis], v) == p
                assert v != expect

    @given(coeffs=st.lists(st.fractions(-3, 3, max_denominator=7),
                           max_size=7))
    @settings(max_examples=25, deadline=None)
    def test_qfactorial_expansion_pointwise(self, coeffs):
        # sum_k c_k phihat_k(x) == g(q^x), phihat_k read from the
        # Pochhammer closed form rather than from the basis factors
        ctx = QContext(F(3, 4), F(1, 8))
        g = Poly(coeffs, VAR_U)
        v = expand_in_basis(ctx, g, Basis.QFACTORIAL)
        for x in range(9):
            assert sum((c * qfactorial_pochhammer_value(ctx, k, x)
                        for k, c in enumerate(v)), F(0)) == g(ctx.q ** x)

    def test_monomial_inversion_pointwise(self, ctx_q916):
        # x^n = sum_k [n,k]_q phi_k(x) checked as polynomials
        for n in range(9):
            v = expand_in_basis(ctx_q916, Poly.monomial(n), Basis.QGAUSSIAN)
            assert vector_to_poly(ctx_q916, Basis.QGAUSSIAN, v) == Poly.monomial(n)

    def test_expand_single_basis_element(self, ctx_q14):
        v = expand_in_basis(ctx_q14, hahn_factorial(ctx_q14, 4),
                            Basis.HAHN_FACTORIAL)
        assert v == [0, 0, 0, 0, 1]

    def test_u_polynomial_rejected(self, ctx_q14):
        with pytest.raises(ValueError):
            expand_in_basis(ctx_q14, Basis.QFACTORIAL.elements(ctx_q14, 3)[2],
                            Basis.MONOMIAL)

    def test_x_polynomial_not_expandable_in_u(self, ctx_q14):
        with pytest.raises(ValueError, match="qfactorial"):
            expand_in_basis(ctx_q14, Poly([1, 2]), Basis.QFACTORIAL)

    def test_basis_polys_match_families(self, ctx_q14):
        q = ctx_q14.q
        assert (Basis.QGAUSSIAN.elements(ctx_q14, 4)[3]
                == qgaussian(ctx_q14, 3, "recursion"))
        assert (Basis.HAHN_FACTORIAL.elements(ctx_q14, 4)[3]
                == hahn_factorial(ctx_q14, 3, "recursion"))
        assert Basis.QFACTORIAL.elements(ctx_q14, 4)[3] == (
            Poly([1, -1], VAR_U) * Poly([1, -1 / q], VAR_U)
            * Poly([1, -1 / q ** 2], VAR_U) / (1 - q) ** 3)
        assert Basis.SHIFTED_MONOMIAL.elements(ctx_q14, 3)[2] == (
            Poly([-ctx_q14.omega0, 1]) ** 2)
        assert Basis.MONOMIAL.elements(ctx_q14, 5)[4] == Poly.monomial(4)

    @pytest.mark.parametrize("basis", BASES)
    def test_element_variable_and_degree(self, ctx_q916, basis):
        for n, p in enumerate(basis.elements(ctx_q916, 7)):
            assert (p.var, p.degree) == (basis.var, n)
        assert (basis.var == VAR_U) == (basis is Basis.QFACTORIAL)

    @pytest.mark.parametrize("basis", BASES)
    def test_negative_count_rejected(self, ctx_q14, basis):
        assert basis.elements(ctx_q14, 0) == []
        with pytest.raises(ValueError, match="count must be >= 0"):
            basis.elements(ctx_q14, -1)

    def test_zero_polynomial_expands_to_nothing(self, ctx_q14):
        for basis in BASES:
            zero = Poly.zero(basis.var)
            assert expand_in_basis(ctx_q14, zero, basis) == []
            assert vector_to_poly(ctx_q14, basis, []) == zero


def per_factor_elements(ctx, basis, count):
    """Basis.elements the per-factor way: each element the previous one
    times the factor as a Poly."""
    out = [Poly.one(basis.var)][:count]
    for k in range(count - 1):
        out.append(out[-1] * Poly(basis.factor(ctx, k), basis.var))
    return out


def per_factor_rebuild(ctx, basis, coeffs):
    """vector_to_poly the per-factor way: p * f_k + c_k as Poly
    operations."""
    p = Poly.zero(basis.var)
    for k in reversed(range(len(coeffs))):
        p = p * Poly(basis.factor(ctx, k), basis.var) + coeffs[k]
    return p


def per_factor_expansion(ctx, p, basis):
    """expand_in_basis the per-factor way: one divmod_linear per factor."""
    out = []
    for k in range(p.degree + 1):
        p, c = p.divmod_linear(*basis.factor(ctx, k))
        out.append(c)
    return out


# q not a rational square, with a numerator other than 1, so that a fault
# confusing q's numerator with its powers shows; omega of either sign
WALK_CONTEXTS = st.builds(
    QContext.from_q,
    st.fractions(0, 1, max_denominator=13).filter(
        lambda q: 0 < q < 1 and q.numerator != 1 and rational_sqrt(q) is None),
    st.fractions(-2, 2, max_denominator=7))
WALK_COEFFS = st.lists(st.just(F(0)) | st.fractions(-3, 3, max_denominator=9),
                       max_size=9)


class TestIntegerWalks:
    """The integer walks equal their per-factor Poly forms in every basis,
    and normalise once per polynomial they return."""

    @pytest.mark.parametrize("basis", BASES)
    @given(ctx=WALK_CONTEXTS, coeffs=WALK_COEFFS, count=st.integers(0, 9))
    @example(ctx=QContext.from_q(F(2, 3), F(-1, 5)), coeffs=[], count=0)
    @example(ctx=QContext.from_q(F(3, 5), F(-4, 7)), coeffs=[F(-5, 6)],
             count=1)
    @example(ctx=QContext.from_q(F(5, 7), 0),
             coeffs=[F(1, 3), 0, F(-2, 9), 0, 0, F(7, 2)], count=9)
    @settings(max_examples=25, deadline=None)
    def test_walks_match_per_factor_forms(self, basis, ctx, coeffs, count):
        assert ctx.q.numerator != 1 and rational_sqrt(ctx.q) is None
        assert basis.elements(ctx, count) == per_factor_elements(
            ctx, basis, count)
        assert vector_to_poly(ctx, basis, coeffs) == per_factor_rebuild(
            ctx, basis, coeffs)
        p = Poly(coeffs, basis.var)
        expansion = expand_in_basis(ctx, p, basis)
        assert expansion == per_factor_expansion(ctx, p, basis)
        assert all(type(c) is F for c in expansion)

    @pytest.mark.parametrize("basis", BASES)
    def test_one_normalisation_per_result(self, poly_overs, basis):
        ctx = QContext.from_q(F(2, 3), F(-1, 5))
        p = Poly([F(1, 3), -2, 0, F(5, 7), 1, F(-2, 9)], basis.var)
        walks = [
            # element 0 is Poly.one, which is not normalised
            (lambda: basis.elements(ctx, 7), [basis.var] * 6),
            (lambda: vector_to_poly(ctx, basis, [F(2, 3), 0, F(-1, 4), 5]),
             [basis.var]),
            (lambda: expand_in_basis(ctx, p, basis), []),
            (lambda: p.compose_affine(F(-3, 4), F(5, 2)), [basis.var]),
            (lambda: p.compose_affine(F(-3, 4), 0), [basis.var]),
        ]
        if basis.var == VAR_X:
            walks.append((lambda: hahn_integral_closed(ctx, p, F(7, 5)),
                          [basis.var]))
        for walk, overs in walks:
            poly_overs.clear()
            walk()
            assert poly_overs == overs


class TestRebuild:
    """vector_to_poly forms the nested product c_0 + f_0 (c_1 + ...); it
    must equal the row sum, and expanding it must give the vector back."""

    @pytest.mark.parametrize("basis", BASES)
    def test_reads_only_the_factors_it_multiplies(self, ctx_q14, basis):
        # c_n, the top coefficient, is multiplied by no factor, so the
        # rebuild reads f_(n-1) .. f_0 once each, and nothing for c_0 alone
        reads = []

        def counting(ctx, k):
            reads.append(k)
            return basis.factor(ctx, k)

        counted = replace(basis, factor=counting)
        for coeffs, expect in (([F(1, 3), -2, 0, F(5, 7), 1], [3, 2, 1, 0]),
                               ([F(-2, 5)], []), ([], [])):
            reads.clear()
            p = vector_to_poly(ctx_q14, counted, coeffs)
            assert reads == expect
            assert p == vector_to_poly(ctx_q14, basis, coeffs)

    @pytest.mark.parametrize("basis", BASES)
    @given(s=st.fractions(0, 1, max_denominator=9).filter(lambda s: 0 < s < 1),
           omega=st.fractions(-2, 2, max_denominator=7),
           coeffs=st.lists(st.just(F(0))
                           | st.fractions(-3, 3, max_denominator=7),
                           max_size=8))
    @example(s=F(1, 2), omega=F(1, 8), coeffs=[])
    @example(s=F(1, 2), omega=F(1, 8), coeffs=[F(0), F(0)])
    @example(s=F(2, 3), omega=F(0), coeffs=[F(0), F(1, 3), F(0), F(-2)])
    @settings(max_examples=25, deadline=None)
    def test_nested_product_is_the_row_sum(self, basis, s, omega, coeffs):
        ctx = QContext(s, omega)
        p = vector_to_poly(ctx, basis, coeffs)
        assert p == row_sum(ctx, basis, coeffs)
        assert p.var == basis.var
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        assert expand_in_basis(ctx, p, basis) == coeffs


class TestBasisRows:
    @given(s=st.fractions(0, 1, max_denominator=9).filter(lambda s: 0 < s < 1),
           omega=st.fractions(-2, 2, max_denominator=7),
           count=st.integers(0, 8))
    @settings(max_examples=25, deadline=None)
    def test_rows_are_the_written_products(self, s, omega, count):
        ctx = QContext(s, omega)
        q = ctx.q
        x = Poly([0, 1])
        phihat = [Poly.one(VAR_U)]
        for k in range(count):
            phihat.append(phihat[-1] * Poly([1, -q ** -k], VAR_U) / (1 - q))
        expect = [
            (Basis.MONOMIAL, [x ** n for n in range(count)]),
            (Basis.SHIFTED_MONOMIAL, [(x - ctx.omega0) ** n
                                      for n in range(count)]),
            (Basis.QGAUSSIAN, [qgaussian(ctx, n, "recursion")
                               for n in range(count)]),
            (Basis.QFACTORIAL, phihat[:count]),
            (Basis.HAHN_FACTORIAL, [hahn_factorial(ctx, n, "recursion")
                                    for n in range(count)]),
        ]
        for basis, products in expect:
            row = basis.elements(ctx, count)
            assert row == products
            for n in range(count):
                assert basis.elements(ctx, n + 1) == row[:n + 1]


class TestPositionCoefficients:
    def test_low_orders(self, ctx_q916):
        q = ctx_q916.q
        cs = position_coefficients(ctx_q916, 3)
        assert cs[0] == Poly.one()
        assert cs[1] == Poly([0, 1])
        two = q_int(ctx_q916, 2)
        three = q_int(ctx_q916, 3)
        assert cs[2] == Poly([-1, 0, 1]) / two
        assert cs[3] == Poly([0, -1 / q - 1 / two, 0, 1 / two]) / three

    def test_recursion_holds(self, ctx_q14):
        x = Poly([0, 1])
        cs = position_coefficients(ctx_q14, 8)
        for n in range(1, 8):
            lhs = x * cs[n]
            rhs = q_int(ctx_q14, n + 1) * cs[n + 1] + ctx_q14.q_pow(1 - n) * cs[n - 1]
            assert lhs == rhs

    def test_even_values_at_origin(self, ctx_q916):
        # c_{2n}(0) = (-1)^n q^(n(1-n)) / [2n]_q!!
        cs = position_coefficients(ctx_q916, 12)
        for n in range(7):
            sign = -1 if n % 2 else 1
            expect = (sign * ctx_q916.q_pow(n * (1 - n))
                      / q_double_factorial_even(ctx_q916, n))
            assert cs[2 * n](0) == expect

    def test_odd_vanish_at_origin(self, ctx_q916):
        cs = position_coefficients(ctx_q916, 11)
        for n in range(1, 12, 2):
            assert cs[n](0) == 0
