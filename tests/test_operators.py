import random
from fractions import Fraction as F

import pytest

from qoscpoly import (FAMILIES, HAHN, QFACTORIAL, QGAUSSIAN, Basis, Poly,
                      difference_equation_residual, hahn_factorial,
                      jackson_derivative, ladder_apply, ladder_apply_analytic,
                      q_int, qgaussian)
from qoscpoly.operators import lowering_coeff, raising_coeff
from qoscpoly.poly import VAR_U, VAR_X
from qoscpoly.report import PASS, fmt_exact
from qoscpoly.verify import _algebra_relations, suite_operators


class TestBasicOperators:
    def test_jackson_on_monomials(self, ctx_q12):
        p = Poly([0, 0, 0, 1])  # x^3
        assert jackson_derivative(ctx_q12, p) == Poly([0, 0, q_int(ctx_q12, 3)])

    def test_jackson_difference_quotient(self, ctx_q916):
        # D_q p = (p(x) - p(qx)) / ((1-q) x) on a generic polynomial
        p = Poly([F(1, 3), -2, 0, F(5, 7), 1])
        q = ctx_q916.q
        num = p - p.scale_arg(q)
        quot, rem = num.divmod_linear(0, 1 - q)
        assert (quot, rem) == (jackson_derivative(ctx_q916, p), 0)

    def test_jackson_classical_limit_shape(self, ctx_q12):
        assert jackson_derivative(ctx_q12, Poly.one()).is_zero()

    def test_scale_and_shift(self, ctx_q12):
        p = Poly([1, 2, 3])
        q = ctx_q12.q
        assert p.scale_arg(q) == Poly([1, 2 * q, 3 * q ** 2])
        assert p.scale_arg(1 / q)(q) == p(1)
        assert p.compose_affine(1, F(1, 2))(0) == p(F(1, 2))

    def test_var_guard(self, ctx_q12):
        with pytest.raises(ValueError):
            jackson_derivative(ctx_q12, Basis.QFACTORIAL.element(ctx_q12, 2))


class TestLadderCoefficients:
    def test_ground_state_annihilated(self, ctx_q14):
        for fam in FAMILIES:
            assert lowering_coeff(ctx_q14, fam, 0) == 0

    def test_printed_values(self, ctx_q14):
        q = ctx_q14.q
        for n in range(1, 8):
            assert lowering_coeff(ctx_q14, QGAUSSIAN, n) == q_int(ctx_q14, n)
            assert lowering_coeff(ctx_q14, HAHN, n) == q_int(ctx_q14, n)
            assert (lowering_coeff(ctx_q14, QFACTORIAL, n)
                    == q ** -n * q_int(ctx_q14, n))
        for n in range(8):
            assert raising_coeff(ctx_q14, QGAUSSIAN, n) == q ** -n
            assert raising_coeff(ctx_q14, HAHN, n) == q ** -n
            assert raising_coeff(ctx_q14, QFACTORIAL, n) == 1

    def test_banded_action(self, ctx_q14):
        v = [0, 0, 1]
        lowered = ladder_apply(ctx_q14, QGAUSSIAN, "lower", v)
        assert lowered == [0, q_int(ctx_q14, 2)]
        raised = ladder_apply(ctx_q14, QGAUSSIAN, "raise", v)
        assert raised == [0, 0, 0, ctx_q14.q_pow(-2)]
        assert ladder_apply(ctx_q14, QGAUSSIAN, "lower", [5]) == []

    def test_bad_direction(self, ctx_q14):
        message = "direction must be 'lower' or 'raise', got 'sideways'"
        with pytest.raises(ValueError, match=message):
            ladder_apply(ctx_q14, HAHN, "sideways", [1])
        with pytest.raises(ValueError, match=message):
            ladder_apply_analytic(ctx_q14, HAHN, "sideways", Poly([1]))


class TestAnalyticVsBanded:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("direction", ["lower", "raise"])
    def test_agree_on_basis_elements(self, ctx_q14, family, direction):
        basis = family.basis
        for n in range(9):
            p = basis.element(ctx_q14, n)
            analytic = ladder_apply_analytic(ctx_q14, family, direction, p)
            banded = ladder_apply(ctx_q14, family, direction, [0] * n + [1])
            expect = sum((c * basis.element(ctx_q14, k)
                          for k, c in enumerate(banded) if c != 0),
                         Poly.zero(p.var))
            assert analytic == expect

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("direction", ["lower", "raise"])
    def test_wrong_variable_rejected(self, ctx_q14, family, direction):
        wrong = VAR_X if family.basis.var == VAR_U else VAR_U
        with pytest.raises(ValueError, match=f"polynomials in {family.basis.var}"):
            ladder_apply_analytic(ctx_q14, family, direction,
                                  Poly([1, 2, 3], wrong))

    def test_raising_powers_of_ground_state(self, ctx_q916):
        # (a^dag)^n 1 = q^(-n(n-1)/2) phi_n for the q-Gaussian family
        p = Poly.one()
        for n in range(1, 9):
            p = ladder_apply_analytic(ctx_q916, QGAUSSIAN, "raise", p)
            expect = ctx_q916.q_pow(-(n * (n - 1)) // 2) * qgaussian(ctx_q916, n)
            assert p == expect

    def test_hahn_raising_from_ground(self, ctx_q14):
        p = Poly.one()
        for n in range(1, 9):
            p = ladder_apply_analytic(ctx_q14, HAHN, "raise", p)
            expect = ctx_q14.q_pow(-(n * (n - 1)) // 2) * hahn_factorial(ctx_q14, n)
            assert p == expect

    def test_qfactorial_lower_then_raise(self, ctx_q14):
        q = ctx_q14.q
        phihat = Basis.QFACTORIAL.element
        for n in range(1, 7):
            p = phihat(ctx_q14, n)
            down = ladder_apply_analytic(ctx_q14, QFACTORIAL, "lower", p)
            assert down == q ** -n * q_int(ctx_q14, n) * phihat(ctx_q14, n - 1)
            up = ladder_apply_analytic(ctx_q14, QFACTORIAL, "raise", p)
            assert up == phihat(ctx_q14, n + 1)


class TestAlgebraRelations:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_all_relations_hold(self, ctx_q14, family):
        checks = _algebra_relations(ctx_q14, family, 10)
        assert checks and all(r.status == PASS for r in checks)

    def test_record_ids(self, ctx_q14):
        checks = _algebra_relations(ctx_q14, HAHN, 1)
        assert checks[0].check_id == "operators/algebra/hahn/a.adag eigenvalue/n=00"
        assert checks[0].params == {"family": "hahn", "n": 0}
        assert checks[-1].check_id == "operators/algebra/hahn/number-raising/n=01"

    def test_commutator_values(self, ctx_q916):
        q = ctx_q916.q
        got = {(r.note, r.params["n"]): r.lhs
               for r in _algebra_relations(ctx_q916, QGAUSSIAN, 5)}
        for n in range(6):
            assert got[("commutator", n)] == fmt_exact(q ** -n)
            assert got[("q-commutator", n)] == fmt_exact(1)

    def test_qfactorial_deformed_unit(self, ctx_q916):
        q = ctx_q916.q
        got = {(r.note, r.params["n"]): r.lhs
               for r in _algebra_relations(ctx_q916, QFACTORIAL, 5)}
        for n in range(6):
            assert got[("commutator", n)] == fmt_exact(q ** (-n - 1))
            assert got[("q-commutator", n)] == fmt_exact(1 / q)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_number_relations_catch_unshifted_ladder(self, ctx_q14, family,
                                                     monkeypatch):
        # a ladder action that leaves each coefficient at its own index
        # commutes with N, so [N, a] = -a and [N, a+] = a+ must fail
        def unshifted(ctx, fam, direction, coeffs):
            coeff = lowering_coeff if direction == "lower" else raising_coeff
            return [coeff(ctx, fam, k) * c for k, c in enumerate(coeffs)]

        monkeypatch.setattr("qoscpoly.operators.ladder_apply", unshifted)
        checks = _algebra_relations(ctx_q14, family, 4)
        lowering = [r for r in checks if r.note == "number-lowering"]
        raising = [r for r in checks if r.note == "number-raising"]
        assert [r.status == PASS for r in lowering] == [True] + [False] * 4
        assert not any(r.status == PASS for r in raising)

    def test_jackson_is_lowering_catches_wrong_derivative(self, ctx_q14,
                                                          monkeypatch):
        # x^n -> [n+1]_q x^(n-1): the record's rhs is the banded ladder, so
        # it must not follow the patched derivative
        def wrong(ctx, p):
            return Poly(q_int(ctx, n + 1) * p.coeff(n)
                        for n in range(1, len(p.coeffs)))

        monkeypatch.setattr("qoscpoly.operators.jackson_derivative", wrong)
        checks = suite_operators(ctx_q14, 3, 4, random.Random(0))
        status = {r.check_id: r.status for r in checks}
        assert status["operators/jackson-is-lowering"] != PASS
        assert status["operators/analytic-vs-basis/qgaussian/lower/n=02"] != PASS


class TestDifferenceEquation:
    def test_residual_vanishes(self, ctx_q14):
        for n in range(12):
            assert difference_equation_residual(ctx_q14, n).is_zero()

    def test_residual_vanishes_without_root(self, ctx_q12):
        for n in range(10):
            assert difference_equation_residual(ctx_q12, n).is_zero()

    def test_negative_index_rejected(self, ctx_q14):
        # qgaussian rejects the index
        with pytest.raises(ValueError, match="family index must be >= 0"):
            difference_equation_residual(ctx_q14, -1)

    def test_wrong_eigenvalue_does_not_vanish(self, ctx_q14):
        # sanity: the residual detects a perturbed eigenvalue
        phi = qgaussian(ctx_q14, 3)
        lhs = (Poly([-1, 1])
               * jackson_derivative(ctx_q14, phi).scale_arg(1 / ctx_q14.q))
        wrong = lhs - q_int(ctx_q14, 3) * phi
        assert not wrong.is_zero()
