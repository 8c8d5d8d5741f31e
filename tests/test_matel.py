import dataclasses
from fractions import Fraction as F

import pytest

from qoscpoly import (FAMILIES, HAHN, HALF_HALF, HALF_ZERO, QFACTORIAL,
                      QGAUSSIAN, MatElParams, QContext, basic_hyp_terminating,
                      matel_closed, matel_oracle, q_factorial,
                      special_form_checks, u_polynomial)

HALVES = (HALF_ZERO, HALF_HALF)
AB_VALUES = (F(0), F(1), F(-1, 2), F(1, 3))


class TestUPolynomial:
    def test_degree_zero(self, ctx_q14):
        assert u_polynomial(ctx_q14, HALF_ZERO, HALF_ZERO, 0, ctx_q14.q, F(7)) == 1

    def test_degree_one(self, ctx_q14):
        # 1 + (q^-1 - 1)/(1 - q^(1+theta)) * q^(mu+nu) x at n = 1
        q = ctx_q14.q
        x = F(1, 3)
        q1t = q * q
        got = u_polynomial(ctx_q14, HALF_HALF, HALF_HALF, 1, q1t, x)
        expect = 1 + (1 - 1 / q) * q * x / ((1 - q1t) * (1 - q))
        assert got == expect

    def test_depends_on_musum_only(self, ctx_q916):
        q = ctx_q916.q
        for n in range(5):
            a = u_polynomial(ctx_q916, HALF_ZERO, HALF_HALF, n, q, F(2, 5))
            b = u_polynomial(ctx_q916, HALF_HALF, HALF_ZERO, n, q, F(2, 5))
            assert a == b

    def test_vanishing_denominator_rejected(self, ctx_q14):
        with pytest.raises(ValueError):
            u_polynomial(ctx_q14, HALF_ZERO, HALF_ZERO, 3, 1, F(1, 2))


class TestBasicHyp:
    def test_requires_termination(self, ctx_q12):
        with pytest.raises(ValueError):
            basic_hyp_terminating(ctx_q12, [F(1, 3)], [F(1, 5)], F(1, 2))

    def test_2phi1_degree_one(self, ctx_q12):
        q = ctx_q12.q
        # 2phi1(q^-1, 0; q^2; q; z) = 1 + (1 - q^-1) z / ((1 - q^2)(1 - q))
        z = F(1, 3)
        got = basic_hyp_terminating(ctx_q12, [1 / q, 0], [q * q], z)
        assert got == 1 + (1 - 1 / q) * z / ((1 - q * q) * (1 - q))

    def test_q_binomial_theorem_terminating(self, ctx_q916):
        # 1phi0(q^-n; -; q; z) = (z q^-n; q)_n
        q = ctx_q916.q
        from qoscpoly import q_pochhammer
        for n in range(7):
            z = F(2, 7)
            got = basic_hyp_terminating(ctx_q916, [q ** -n], [], z)
            assert got == q_pochhammer(ctx_q916, z * q ** -n, n)

    def test_compensation_sign(self, ctx_q12):
        # 0 lower params vs 1 upper: power = 0, no compensation factor
        q = ctx_q12.q
        got = basic_hyp_terminating(ctx_q12, [1 / q], [], F(1))
        assert got == 1 + (1 - 1 / q) / (1 - q)


class TestOracleBasics:
    def test_identity_operator(self, ctx_q14):
        # alpha = beta = 0 leaves basis elements untouched
        for fam in FAMILIES:
            for n in range(5):
                for r in range(5):
                    p = MatElParams(HALF_ZERO, HALF_ZERO, 0, 0, n, r)
                    expect = 1 if n == r else 0
                    assert matel_oracle(ctx_q14, fam, p) == expect

    def test_pure_raising(self, ctx_q916):
        # beta = 0: only the j = r - n term contributes
        a = F(1, 3)
        for n in range(4):
            for r in range(n, 7):
                p = MatElParams(HALF_ZERO, HALF_ZERO, a, 0, n, r)
                d = r - n
                path = F(1)
                for t in range(d):
                    path *= ctx_q916.q_pow(-(n + t))
                expect = a ** d / q_factorial(ctx_q916, d) * path
                assert matel_oracle(ctx_q916, QGAUSSIAN, p) == expect

    def test_pure_lowering(self, ctx_q916):
        from qoscpoly.qarith import q_int
        b = F(-1, 2)
        for r in range(4):
            for n in range(r, 7):
                p = MatElParams(HALF_ZERO, HALF_ZERO, 0, b, n, r)
                d = n - r
                path = F(1)
                for t in range(d):
                    path *= q_int(ctx_q916, n - t)
                expect = b ** d / q_factorial(ctx_q916, d) * path
                assert matel_oracle(ctx_q916, QGAUSSIAN, p) == expect

    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError):
            MatElParams(HALF_ZERO, HALF_ZERO, 0, 0, -1, 0)


class TestClosedVsOracle:
    @pytest.mark.parametrize("family", [QGAUSSIAN, QFACTORIAL])
    def test_exact_match(self, ctx_q14, family):
        for mu in HALVES:
            for nu in HALVES:
                for a in AB_VALUES:
                    for b in AB_VALUES:
                        for n in range(4):
                            for r in range(4):
                                p = MatElParams(mu, nu, a, b, n, r)
                                assert (matel_closed(ctx_q14, family, p)
                                        == matel_oracle(ctx_q14, family, p))

    def test_hahn_matches_at_omega_zero(self, ctx_q916):
        ctx0 = ctx_q916.with_omega(0)
        for mu in HALVES:
            for nu in HALVES:
                for n in range(4):
                    for r in range(4):
                        p = MatElParams(mu, nu, F(1, 3), F(-1, 2), n, r)
                        assert (matel_closed(ctx0, HAHN, p)
                                == matel_oracle(ctx0, HAHN, p))

    def test_hahn_reduces_to_gaussian_at_omega_zero(self, ctx_q916):
        ctx0 = ctx_q916.with_omega(0)
        for n in range(5):
            for r in range(5):
                p = MatElParams(HALF_HALF, HALF_ZERO, F(1, 3), F(1), n, r)
                assert (matel_oracle(ctx0, HAHN, p)
                        == matel_oracle(ctx0, QGAUSSIAN, p))

    def test_hahn_closed_form_discrepancy(self, ctx_q14):
        # the published Hahn closed form disagrees with the oracle whenever
        # alpha*beta != 0 and omega != 0; this stays surfaced, not patched
        p = MatElParams(HALF_ZERO, HALF_ZERO, F(1), F(1), 2, 2)
        closed = matel_closed(ctx_q14, HAHN, p)
        oracle = matel_oracle(ctx_q14, HAHN, p)
        assert closed != oracle

    def test_hahn_kappa_variant_matches_oracle(self):
        # the README's claim: with (1 - omega0)^2 in place of the printed
        # (1 + omega0)^2 the Hahn closed form equals the oracle everywhere
        variant = dataclasses.replace(
            HAHN, kappa=lambda ctx: (1 - ctx.omega0) ** 2)
        cells = 0
        for s in (F(1, 2), F(3, 4)):
            for omega in (F(0), F(1, 8), F(1, 3)):
                ctx = QContext(s, omega)
                for mu in HALVES:
                    for nu in HALVES:
                        for a in AB_VALUES:
                            for b in AB_VALUES:
                                for n in range(7):
                                    for r in range(7):
                                        p = MatElParams(mu, nu, a, b, n, r)
                                        assert (matel_closed(ctx, variant, p)
                                                == matel_oracle(ctx, HAHN, p))
                                        cells += 1
        assert cells == 18816

    def test_hahn_oracle_scale_is_exact(self, ctx_q14):
        # single-raise element picks up exactly (1 - omega0) * alpha
        p = MatElParams(HALF_ZERO, HALF_ZERO, F(1), F(0), 0, 1)
        got = matel_oracle(ctx_q14, HAHN, p)
        assert got == 1 - ctx_q14.omega0


class TestDiagonalBranches:
    def test_branches_agree_on_diagonal(self, ctx_q14):
        for fam in FAMILIES:
            for mu in HALVES:
                for nu in HALVES:
                    p = MatElParams(mu, nu, F(1, 3), F(-1, 2), 3, 3)
                    matel_closed(ctx_q14, fam, p)  # raises on mismatch


class TestSpecialForms:
    def test_all_forms_match(self, ctx_q14):
        checks = special_form_checks(ctx_q14, 5)
        assert checks and all(c.passed for c in checks)

    def test_check_count(self, ctx_q14):
        # 3 forms x 3 points x 3 theta values per degree
        assert len(special_form_checks(ctx_q14, 2)) == 3 * 3 * 3 * 3

    def test_negative_rejected(self, ctx_q14):
        with pytest.raises(ValueError):
            special_form_checks(ctx_q14, -1)
