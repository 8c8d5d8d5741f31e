import dataclasses
from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qoscpoly import (FAMILIES, HAHN, HALF_HALF, HALF_ZERO, QFACTORIAL,
                      QGAUSSIAN, QContext, basic_hyp_terminating,
                      matel_closed, matel_oracle, q_factorial, q_int_at,
                      qhyp_terms, special_form_checks, u_polynomial)
from qoscpoly.report import PASS

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

    def test_vanishing_lower_pochhammer_rejected(self, ctx_q14):
        # (1; q)_1 = 0 in the denominator of the k = 1 term
        with pytest.raises(ValueError, match="vanishes at k = 1"):
            basic_hyp_terminating(ctx_q14, [ctx_q14.q_pow(-2)], [1], F(1, 3))

    def test_compensation_sign(self, ctx_q12):
        # 0 lower params vs 1 upper: power = 0, no compensation factor
        q = ctx_q12.q
        got = basic_hyp_terminating(ctx_q12, [1 / q], [], F(1))
        assert got == 1 + (1 - 1 / q) / (1 - q)


class TestOracleBasics:
    def test_identity_operator(self, ctx_q14):
        # alpha = beta = 0 leaves basis elements untouched
        for fam in FAMILIES:
            m = matel_oracle(ctx_q14, fam, HALF_ZERO, HALF_ZERO, 0, 0, 4)
            assert m == [[1 if n == r else 0 for r in range(5)]
                         for n in range(5)]

    def test_pure_raising(self, ctx_q916):
        # beta = 0: only the j = r - n term contributes
        a = F(1, 3)
        m = matel_oracle(ctx_q916, QGAUSSIAN, HALF_ZERO, HALF_ZERO, a, 0, 6)
        for n in range(4):
            for r in range(n, 7):
                d = r - n
                path = F(1)
                for t in range(d):
                    path *= ctx_q916.q_pow(-(n + t))
                expect = a ** d / q_factorial(ctx_q916, d) * path
                assert m[n][r] == expect

    def test_pure_lowering(self, ctx_q916):
        from qoscpoly.qarith import q_int
        b = F(-1, 2)
        m = matel_oracle(ctx_q916, QGAUSSIAN, HALF_ZERO, HALF_ZERO, 0, b, 6)
        for r in range(4):
            for n in range(r, 7):
                d = n - r
                path = F(1)
                for t in range(d):
                    path *= q_int(ctx_q916, n - t)
                expect = b ** d / q_factorial(ctx_q916, d) * path
                assert m[n][r] == expect

    def test_negative_indices_rejected(self, ctx_q14):
        for builder in (matel_closed, matel_oracle):
            with pytest.raises(ValueError):
                builder(ctx_q14, QGAUSSIAN, HALF_ZERO, HALF_ZERO, 0, 0, -1)


def path_sum(ctx, family, mu, nu, alpha, beta, n, r):
    """One matrix element as the direct sum over ladder paths.

    The i-th term lowers i times from n (coefficient q^(-e m) [m]_q at m),
    then raises j = r - n + i times (coefficient q^(-(1-e) m)), weighted by
    the series coefficients q^(h k^2) (c sigma)^k / [k]_q! of both sides.
    """
    q, e = ctx.q, family.e
    sigma = family.sigma(ctx)

    def weight(h, c, k):
        fact = prod((q_int_at(q, t) for t in range(1, k + 1)), start=F(1))
        return ctx.s ** (h.twice * k * k) * (c * sigma) ** k / fact

    total = F(0)
    for i in range(n + 1):
        j = r - n + i
        if j < 0:
            continue
        down = prod((q ** (-e * m) * q_int_at(q, m)
                     for m in range(n, n - i, -1)), start=F(1))
        up = prod((q ** (-(1 - e) * m) for m in range(n - i, n - i + j)),
                  start=F(1))
        total += weight(nu, beta, i) * down * weight(mu, alpha, j) * up
    return total


small = st.fractions(-2, 2, max_denominator=7)


class TestOracleMatrix:
    @given(s=st.fractions(0, 1, max_denominator=9).filter(lambda s: 0 < s < 1),
           omega=small, alpha=small, beta=small,
           mu=st.sampled_from(HALVES), nu=st.sampled_from(HALVES),
           nmax=st.integers(0, 6))
    @settings(max_examples=25, deadline=None)
    def test_matches_per_cell_path_sum(self, s, omega, alpha, beta, mu, nu,
                                       nmax):
        ctx = QContext(s, omega)
        for family in FAMILIES:
            m = matel_oracle(ctx, family, mu, nu, alpha, beta, nmax)
            assert m == [[path_sum(ctx, family, mu, nu, alpha, beta, n, r)
                          for r in range(nmax + 1)] for n in range(nmax + 1)]


class TestClosedVsOracle:
    @pytest.mark.parametrize("family", [QGAUSSIAN, QFACTORIAL])
    def test_exact_match(self, ctx_q14, family):
        for mu in HALVES:
            for nu in HALVES:
                for a in AB_VALUES:
                    for b in AB_VALUES:
                        args = (mu, nu, a, b, 3)
                        assert (matel_closed(ctx_q14, family, *args)
                                == matel_oracle(ctx_q14, family, *args))

    def test_hahn_matches_at_omega_zero(self, ctx_q916):
        ctx0 = ctx_q916.with_omega(0)
        for mu in HALVES:
            for nu in HALVES:
                args = (mu, nu, F(1, 3), F(-1, 2), 3)
                assert (matel_closed(ctx0, HAHN, *args)
                        == matel_oracle(ctx0, HAHN, *args))

    def test_hahn_reduces_to_gaussian_at_omega_zero(self, ctx_q916):
        ctx0 = ctx_q916.with_omega(0)
        args = (HALF_HALF, HALF_ZERO, F(1, 3), F(1), 4)
        assert (matel_oracle(ctx0, HAHN, *args)
                == matel_oracle(ctx0, QGAUSSIAN, *args))

    def test_hahn_closed_form_discrepancy(self, ctx_q14):
        # the published Hahn closed form disagrees with the oracle whenever
        # alpha*beta != 0 and omega != 0; this stays surfaced, not patched
        args = (HALF_ZERO, HALF_ZERO, F(1), F(1), 2)
        closed = matel_closed(ctx_q14, HAHN, *args)[2][2]
        oracle = matel_oracle(ctx_q14, HAHN, *args)[2][2]
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
                                args = (mu, nu, a, b, 6)
                                m = matel_closed(ctx, variant, *args)
                                assert m == matel_oracle(ctx, HAHN, *args)
                                cells += sum(map(len, m))
        assert cells == 18816

    def test_hahn_oracle_scale_is_exact(self, ctx_q14):
        # single-raise element picks up exactly (1 - omega0) * alpha
        got = matel_oracle(ctx_q14, HAHN, HALF_ZERO, HALF_ZERO, 1, 0, 1)[0][1]
        assert got == 1 - ctx_q14.omega0


class TestDegenerateHahn:
    def test_sigma_zero_rejected(self):
        # q = 1/4, omega = 3/4: omega0 = 1 and the Hahn sigma vanishes
        ctx = QContext(F(1, 2), F(3, 4))
        assert ctx.omega0 == 1 and HAHN.sigma(ctx) == 0
        with pytest.raises(ValueError, match="omega0 = 1"):
            matel_closed(ctx, HAHN, HALF_ZERO, HALF_ZERO, F(1), F(1), 2)
        args = (HALF_HALF, HALF_ZERO, F(1, 3), F(-1, 2), 3)
        for family in (QGAUSSIAN, QFACTORIAL):
            assert (matel_closed(ctx, family, *args)
                    == matel_oracle(ctx, family, *args))


class TestDiagonalBranches:
    def test_branches_agree_on_diagonal(self, ctx_q14):
        for fam in FAMILIES:
            for mu in HALVES:
                for nu in HALVES:
                    # raises on mismatch
                    matel_closed(ctx_q14, fam, mu, nu, F(1, 3), F(-1, 2), 3)


class TestSpecialForms:
    def test_all_forms_match(self, ctx_q14):
        checks = special_form_checks(ctx_q14, 5)
        assert checks and all(r.status == PASS for r in checks)

    def test_record_ids(self, ctx_q14):
        q = ctx_q14.q
        first = special_form_checks(ctx_q14, 0)[0]
        assert first.check_id == (
            f"matrixelements/special-form/u00_vs_2phi1/n=0,x=1,q1t={q}")
        assert first.params == {"n": 0, "x": 1, "q1theta": q}
        assert first.note == "u00_vs_2phi1"

    def test_check_count(self, ctx_q14):
        # 3 forms x 3 points x 3 theta values per degree
        assert len(special_form_checks(ctx_q14, 2)) == 3 * 3 * 3 * 3

    def test_negative_rejected(self, ctx_q14):
        with pytest.raises(ValueError):
            special_form_checks(ctx_q14, -1)

    def test_faulty_walker_fails(self, ctx_q14, monkeypatch):
        # U walks its terms with qhyp_terms, the reference side does not: a
        # walker with a wrong (q; q)_k must fail every record past n = 0
        def faulty(ctx, upper, lower, z, count, weight=None):
            return qhyp_terms(ctx, upper, list(lower) + [ctx.q], z, count,
                              weight)

        monkeypatch.setattr("qoscpoly.matel.qhyp_terms", faulty)
        checks = special_form_checks(ctx_q14, 3)
        assert len(checks) == 4 * 27
        assert all((r.status == PASS) == (r.params["n"] == 0) for r in checks)
