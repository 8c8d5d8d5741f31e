import dataclasses
from fractions import Fraction as F
from itertools import accumulate
from math import prod
from operator import mul

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qoscpoly import (FAMILIES, HAHN, HALF_HALF, HALF_ZERO, QFACTORIAL,
                      QGAUSSIAN, HalfInt, Poly, QContext,
                      basic_hyp_terminating, cli, emu_series, matel_at,
                      matel_closed, matel_oracle, predicted_discrepancy,
                      q_binomial, q_factorial, q_int_at, q_pochhammer,
                      qhyp_terms, u_polynomial)
from qoscpoly.matel import _u_column
from qoscpoly.operators import lowering_coeff, raising_coeff
from qoscpoly.poly import VAR_X
from qoscpoly.report import PASS
from qoscpoly.verify import _special_forms

HALVES = (HALF_ZERO, HALF_HALF)
# negative exponents too: -1, -1/2, 0, 1/2, 1
SIGNED_HALVES = tuple(HalfInt(t) for t in range(-2, 3))
roots = st.fractions(0, 1, max_denominator=9).filter(lambda s: 0 < s < 1)
small = st.fractions(-2, 2, max_denominator=7)


def _reference_column(ctx, mu, nu, q1theta, x, count):
    musum = HalfInt(mu.twice + nu.twice)
    return qhyp_terms(ctx, [q1theta], x, count,
                      lambda j: ctx.pow_half(musum, j * j))


def _reference_row(ctx, n):
    return list(accumulate((1 - ctx.q_pow(j - n) for j in range(n)), mul,
                           initial=F(1)))


def reference_closed(ctx, family, mu, nu, nmax):
    """The reference closed form: every coefficient of a cell formed as
    pref * (column_j * row_j) over Fractions and the cell built by the
    Poly constructor (the former ``qoscpoly.matel.matel_closed``)."""
    e, sigma, size = family.e, family.sigma(ctx), nmax + 1
    z = (ctx.q - 1) * family.kappa(ctx)
    rows = [_reference_row(ctx, k) for k in range(size)]
    out = [[None] * size for _ in range(size)]
    for d in range(size):
        q1d, lo_scale = ctx.q_pow(1 + d), sigma ** d
        col = _reference_column(ctx, mu, nu, q1d,
                                z * ctx.q_pow(1 - e + nu.twice * d), size - d)
        for k in range(size - d):
            pref = (lo_scale * q_binomial(ctx, k + d, k)
                    * ctx.pow_half(HALF_HALF, nu.twice * d * d
                                   - e * d * (2 * k + d + 1)))
            out[k + d][k] = Poly(pref * (c * r) for c, r in zip(col, rows[k]))
        if d == 0:
            continue
        hi_scale = lo_scale / q_factorial(ctx, d)
        col = _reference_column(ctx, mu, nu, q1d,
                                z * ctx.q_pow(1 - e + mu.twice * d), size - d)
        for k in range(size - d):
            pref = hi_scale * ctx.pow_half(HALF_HALF, mu.twice * d * d
                                           - (1 - e) * d * (2 * k + d - 1))
            out[k][k + d] = Poly(pref * (c * r) for c, r in zip(col, rows[k]))
    return out


def reference_oracle(ctx, family, mu, nu, nmax):
    """The reference oracle: weighted ladder paths as Fractions and every
    cell built by the Poly constructor from their Fraction products (the
    former ``qoscpoly.matel.matel_oracle``)."""
    sigma, size = family.sigma(ctx), nmax + 1
    lower = [lowering_coeff(ctx, family, m) for m in range(1, size)]
    raise_ = [raising_coeff(ctx, family, m) for m in range(size - 1)]

    def weighted_paths(weights, steps):
        return [weights.coeff(k) * path for k, path in
                enumerate(accumulate(steps, mul, initial=F(1)))]

    w_down = emu_series(ctx, nu, sigma, nmax)
    w_up = emu_series(ctx, mu, sigma, nmax)
    down = [weighted_paths(w_down, lower[:n][::-1]) for n in range(size)]
    up = [weighted_paths(w_up, raise_[m:]) for m in range(size)]
    return [[Poly(down[n][i] * up[n - i][r - n + i]
                  for i in range(max(n - r, 0), n + 1))
             for r in range(size)] for n in range(size)]


def normal_forms(matrix):
    return [[(p.nums, p.den, p.var) for p in row] for row in matrix]


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
        assert got.degree == 1 and got(1) == expect

    def test_terms_scale_the_argument(self, ctx_q916):
        # the polynomial of the terms at x is U(x y) as a polynomial in y
        q = ctx_q916.q
        for n in range(5):
            got = u_polynomial(ctx_q916, HALF_HALF, HALF_ZERO, n, q, F(2, 5))
            for y in (F(0), F(-3), F(1, 7)):
                assert got(y) == u_polynomial(ctx_q916, HALF_HALF, HALF_ZERO,
                                              n, q, F(2, 5) * y)(1)

    def test_depends_on_musum_only(self, ctx_q916):
        q = ctx_q916.q
        for n in range(5):
            a = u_polynomial(ctx_q916, HALF_ZERO, HALF_HALF, n, q, F(2, 5))
            b = u_polynomial(ctx_q916, HALF_HALF, HALF_ZERO, n, q, F(2, 5))
            assert a == b

    def test_vanishing_denominator_rejected(self, ctx_q14):
        with pytest.raises(ValueError):
            u_polynomial(ctx_q14, HALF_ZERO, HALF_ZERO, 3, 1, F(1, 2))

    @given(s=roots, x=small, q1theta=small, n=st.integers(0, 8),
           mu=st.sampled_from(HALVES), nu=st.sampled_from(HALVES))
    @settings(max_examples=40, deadline=None)
    def test_coefficients_from_pochhammer_products(self, s, x, q1theta, n,
                                                   mu, nu):
        # each coefficient formed directly, independent of qhyp_terms (the
        # column) and of the running product (q^-n; q)_j (the row)
        ctx = QContext(s)
        q = ctx.q
        assume(q_pochhammer(ctx, q1theta, n) != 0)
        got = u_polynomial(ctx, mu, nu, n, q1theta, x)
        assert got.degree <= n
        for j in range(n + 1):
            expect = (s ** ((mu.twice + nu.twice) * j * j)
                      * q_pochhammer(ctx, q ** -n, j) * x ** j
                      / (q_pochhammer(ctx, q1theta, j)
                         * q_pochhammer(ctx, q, j)))
            assert got.coeff(j) == expect


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
            m = matel_at(matel_oracle(ctx_q14, fam, HALF_ZERO, HALF_ZERO, 4),
                         0, 0)
            assert m == [[1 if n == r else 0 for r in range(5)]
                         for n in range(5)]

    def test_pure_raising(self, ctx_q916):
        # beta = 0: only the j = r - n term contributes
        a = F(1, 3)
        m = matel_at(matel_oracle(ctx_q916, QGAUSSIAN, HALF_ZERO, HALF_ZERO,
                                  6), a, 0)
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
        m = matel_at(matel_oracle(ctx_q916, QGAUSSIAN, HALF_ZERO, HALF_ZERO,
                                  6), 0, b)
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
                builder(ctx_q14, QGAUSSIAN, HALF_ZERO, HALF_ZERO, -1)

    def test_degree_bound(self, ctx_q14):
        # deg P_{n,r} <= min(n, r), with equality here on both sides
        for builder in (matel_closed, matel_oracle):
            for fam in FAMILIES:
                m = builder(ctx_q14, fam, HALF_HALF, HALF_ZERO, 4)
                assert all(p.degree == min(n, r)
                           for n, row in enumerate(m) for r, p in enumerate(row))


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


class TestOracleMatrix:
    @given(s=roots, omega=small, alpha=small, beta=small,
           mu=st.sampled_from(HALVES), nu=st.sampled_from(HALVES),
           nmax=st.integers(0, 6))
    @settings(max_examples=25, deadline=None)
    # a base of 1 or 0: matel_at skips every factor of 1 and multiplies by 0
    @example(s=F(1, 2), omega=F(1, 8), alpha=F(1), beta=F(-1, 2),
             mu=HALF_HALF, nu=HALF_ZERO, nmax=4)
    @example(s=F(2, 3), omega=F(-1, 3), alpha=F(2, 3), beta=F(1),
             mu=HALF_ZERO, nu=HALF_HALF, nmax=4)
    @example(s=F(1, 3), omega=F(1, 2), alpha=F(0), beta=F(-3, 2),
             mu=HALF_HALF, nu=HALF_HALF, nmax=4)
    def test_matches_per_cell_path_sum(self, s, omega, alpha, beta, mu, nu,
                                       nmax):
        ctx = QContext(s, omega)
        for family in FAMILIES:
            m = matel_at(matel_oracle(ctx, family, mu, nu, nmax), alpha, beta)
            assert m == [[path_sum(ctx, family, mu, nu, alpha, beta, n, r)
                          for r in range(nmax + 1)] for n in range(nmax + 1)]


class TestClosedVsOracle:
    """Builders compared as polynomials in alpha*beta: every (alpha, beta)."""

    @pytest.mark.parametrize("family", [QGAUSSIAN, QFACTORIAL])
    def test_exact_match(self, ctx_q14, family):
        for mu in HALVES:
            for nu in HALVES:
                assert (matel_closed(ctx_q14, family, mu, nu, 3)
                        == matel_oracle(ctx_q14, family, mu, nu, 3))

    def test_exact_match_large(self, ctx_q14):
        # twice the suite's limit of 6: the row (q^-n; q)_j reaches n = 12
        ctx0 = ctx_q14.with_omega(0)
        for ctx, family in ((ctx_q14, QGAUSSIAN), (ctx_q14, QFACTORIAL),
                            (ctx0, HAHN)):
            for mu in HALVES:
                for nu in HALVES:
                    assert (matel_closed(ctx, family, mu, nu, 12)
                            == matel_oracle(ctx, family, mu, nu, 12))

    def test_hahn_matches_at_omega_zero(self, ctx_q916):
        ctx0 = ctx_q916.with_omega(0)
        for mu in HALVES:
            for nu in HALVES:
                assert (matel_closed(ctx0, HAHN, mu, nu, 3)
                        == matel_oracle(ctx0, HAHN, mu, nu, 3))

    def test_hahn_reduces_to_gaussian_at_omega_zero(self, ctx_q916):
        ctx0 = ctx_q916.with_omega(0)
        args = (HALF_HALF, HALF_ZERO, 4)
        assert (matel_oracle(ctx0, HAHN, *args)
                == matel_oracle(ctx0, QGAUSSIAN, *args))

    def test_hahn_closed_form_discrepancy(self, ctx_q14):
        # the published Hahn closed form disagrees with the oracle whenever
        # alpha*beta != 0 and omega != 0; this stays surfaced, not patched
        args = (HALF_ZERO, HALF_ZERO, 2)
        closed = matel_at(matel_closed(ctx_q14, HAHN, *args), 1, 1)[2][2]
        oracle = matel_at(matel_oracle(ctx_q14, HAHN, *args), 1, 1)[2][2]
        assert closed != oracle

    def test_hahn_kappa_polynomial_identities(self):
        # the README's claim, for every alpha and beta: with (1 - omega0)^2
        # in place of the printed (1 + omega0)^2 the Hahn closed form equals
        # the oracle, and as printed its j-th coefficient is the oracle's
        # times (kappa / sigma^2)^j
        variant = dataclasses.replace(
            HAHN, kappa=lambda ctx: (1 - ctx.omega0) ** 2)
        polys = 0
        for s in (F(1, 2), F(3, 4)):
            for omega in (F(0), F(1, 8), F(1, 3)):
                ctx = QContext(s, omega)
                ratio = HAHN.kappa(ctx) / HAHN.sigma(ctx) ** 2
                for mu in HALVES:
                    for nu in HALVES:
                        oracle = matel_oracle(ctx, HAHN, mu, nu, 6)
                        assert matel_closed(ctx, variant, mu, nu, 6) == oracle
                        assert matel_closed(ctx, HAHN, mu, nu, 6) == [
                            [p.scale_arg(ratio) for p in row] for row in oracle]
                        polys += sum(map(len, oracle))
        assert polys == 1176

    def test_hahn_oracle_scale_is_exact(self, ctx_q14):
        # single-raise element picks up exactly (1 - omega0) * alpha
        m = matel_oracle(ctx_q14, HAHN, HALF_ZERO, HALF_ZERO, 1)
        assert matel_at(m, 1, 0)[0][1] == 1 - ctx_q14.omega0


class TestPredictedDiscrepancy:
    # a predicted cell: Hahn, omega = 1/8, min(n, r) = 1, alpha*beta = -1/6
    CELL = (1, 2, F(-1, 6))

    def test_predicted_where_all_conditions_hold(self, ctx_q14):
        assert predicted_discrepancy(ctx_q14, HAHN, *self.CELL)
        assert predicted_discrepancy(ctx_q14.with_omega(F(-1, 3)), HAHN, 3, 1,
                                     F(5))

    @pytest.mark.parametrize("family", [QGAUSSIAN, QFACTORIAL])
    def test_other_family_not_predicted(self, ctx_q14, family):
        assert not predicted_discrepancy(ctx_q14, family, *self.CELL)

    def test_omega_zero_not_predicted(self, ctx_q14):
        assert not predicted_discrepancy(ctx_q14.with_omega(0), HAHN,
                                         *self.CELL)

    @pytest.mark.parametrize("n, r", [(0, 0), (0, 2), (2, 0)])
    def test_index_zero_not_predicted(self, ctx_q14, n, r):
        assert not predicted_discrepancy(ctx_q14, HAHN, n, r, F(-1, 6))

    def test_alpha_beta_zero_not_predicted(self, ctx_q14):
        assert not predicted_discrepancy(ctx_q14, HAHN, 1, 2, F(0))

    def test_follows_a_rebound_hahn_record(self, ctx_q14, monkeypatch):
        # the Hahn record is read from operators at call time, as when
        # verify's tests rebind it, and its kappa and sigma are never read
        import qoscpoly.operators as opsmod

        def unread(ctx):
            raise AssertionError("the prediction read kappa or sigma")

        hahn = dataclasses.replace(HAHN, kappa=unread, sigma=unread)
        monkeypatch.setattr(opsmod, "HAHN", hahn)
        assert predicted_discrepancy(ctx_q14, hahn, *self.CELL)
        assert not predicted_discrepancy(ctx_q14, HAHN, *self.CELL)

    @pytest.mark.parametrize("s, omega", [(F(1, 2), F(1, 8)), (F(3, 4), F(0)),
                                          (F(2, 3), F(-1, 5))])
    def test_names_exactly_the_mismatches(self, s, omega):
        # at a generic point the closed form and the oracle differ on the
        # predicted cells and nowhere else
        ctx = QContext(s, omega)
        alpha, beta = F(1, 3), F(-1, 2)
        for family in FAMILIES:
            for mu in HALVES:
                closed, oracle = (matel_at(build(ctx, family, mu, HALF_HALF, 4),
                                           alpha, beta)
                                  for build in (matel_closed, matel_oracle))
                assert {(n, r) for n in range(5) for r in range(5)
                        if closed[n][r] != oracle[n][r]} == {
                    (n, r) for n in range(5) for r in range(5)
                    if predicted_discrepancy(ctx, family, n, r, alpha * beta)}


class TestDegenerateHahn:
    def test_sigma_zero_rejected(self):
        # q = 1/4, omega = 3/4: omega0 = 1 and the Hahn sigma vanishes
        ctx = QContext(F(1, 2), F(3, 4))
        assert ctx.omega0 == 1 and HAHN.sigma(ctx) == 0
        with pytest.raises(ValueError, match="omega0 = 1"):
            matel_closed(ctx, HAHN, HALF_ZERO, HALF_ZERO, 2)
        args = (HALF_HALF, HALF_ZERO, 3)
        for family in (QGAUSSIAN, QFACTORIAL):
            assert (matel_closed(ctx, family, *args)
                    == matel_oracle(ctx, family, *args))


class TestDiagonalBranches:
    def test_branches_agree_on_diagonal(self, ctx_q14):
        # the n = r cells are built once, by the r <= n branch at d = 0: they
        # must equal the reference's, and at omega = 0, where the Hahn form
        # holds too, the oracle's diagonal
        ctx0 = ctx_q14.with_omega(0)

        def diagonal(m):
            return [m[n][n] for n in range(len(m))]

        for fam in FAMILIES:
            for mu in HALVES:
                for nu in HALVES:
                    args = (fam, mu, nu, 3)
                    assert (diagonal(matel_closed(ctx_q14, *args))
                            == diagonal(reference_closed(ctx_q14, *args)))
                    assert (diagonal(matel_closed(ctx0, *args))
                            == diagonal(matel_oracle(ctx0, *args)))


class TestIntegerCells:
    """The cells built as integer numerators over one denominator are, in
    their normal form, the cells of the Fraction reference builders."""

    @given(s=roots, omega=small, mu=st.sampled_from(SIGNED_HALVES),
           nu=st.sampled_from(SIGNED_HALVES), nmax=st.integers(0, 8))
    @settings(max_examples=30, deadline=None)
    # the two sides of each diagonal share one U column at mu = nu only
    @example(s=F(2, 3), omega=F(1, 8), mu=HALF_HALF, nu=HALF_HALF, nmax=8)
    @example(s=F(3, 5), omega=F(-1, 3), mu=HalfInt(-1), nu=HalfInt(2), nmax=8)
    def test_cells_equal_reference(self, s, omega, mu, nu, nmax):
        ctx = QContext(s, omega)
        # the Hahn closed form is rejected at omega0 = 1
        assume(ctx.omega0 != 1)
        for family in FAMILIES:
            for build, reference in ((matel_closed, reference_closed),
                                     (matel_oracle, reference_oracle)):
                assert (normal_forms(build(ctx, family, mu, nu, nmax))
                        == normal_forms(reference(ctx, family, mu, nu, nmax)))

    def test_sigma_zero_oracle_equals_reference(self):
        # omega0 = 1: the Hahn weights past k = 0 are zero and trimmed
        ctx = QContext(F(1, 2), F(3, 4))
        for mu in SIGNED_HALVES:
            assert (normal_forms(matel_oracle(ctx, HAHN, mu, HALF_HALF, 4))
                    == normal_forms(reference_oracle(ctx, HAHN, mu, HALF_HALF,
                                                     4)))


class TestColumnWalks:
    """matel_closed walks each distinct U column once per matrix: the two
    sides of a diagonal share theirs at mu = nu."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("mu, nu", [(mu, nu) for mu in HALVES
                                        for nu in HALVES])
    def test_walks_per_matrix(self, monkeypatch, ctx_q14, family, mu, nu):
        walks = []

        def counted(*args):
            walks.append(args)
            return _u_column(*args)

        monkeypatch.setattr("qoscpoly.matel._u_column", counted)
        nmax = 6
        matel_closed(ctx_q14, family, mu, nu, nmax)
        assert len(walks) == (nmax + 1 if mu == nu else 2 * nmax + 1)


class TestRightSizedCells:
    """A cell is handed to Poly.over over the denominators it reads alone,
    so a larger matrix hands over its common cells unchanged."""

    @staticmethod
    def handed_over(monkeypatch, build, ctx, family, nmax):
        """The (nums, den) each cell of the matrix was handed over with."""
        over, seen = Poly.over.__func__, {}

        def record(cls, nums, den, var=VAR_X):
            args = (tuple(nums), den)
            p = over(cls, nums, den, var)
            seen[id(p)] = args
            return p

        with monkeypatch.context() as m:
            m.setattr(Poly, "over", classmethod(record))
            matrix = build(ctx, family, HALF_HALF, HALF_ZERO, nmax)
        return [[seen[id(p)] for p in row] for row in matrix]

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("build", [matel_closed, matel_oracle])
    def test_cells_do_not_grow_with_nmax(self, monkeypatch, ctx_q14, family,
                                         build):
        small = self.handed_over(monkeypatch, build, ctx_q14, family, 6)
        large = self.handed_over(monkeypatch, build, ctx_q14, family, 10)
        assert [row[:7] for row in large[:7]] == small


class TestSpecialForms:
    def test_all_forms_match(self, ctx_q14):
        checks = _special_forms(ctx_q14, 5)
        assert checks and all(r.status == PASS for r in checks)

    def test_record_ids(self, ctx_q14):
        q = ctx_q14.q
        first = _special_forms(ctx_q14, 0)[0]
        assert first.check_id == (
            f"matrixelements/special-form/u00_vs_2phi1/n=0,x=1,q1t={q}")
        assert first.params == {"n": 0, "x": 1, "q1theta": q}
        assert first.note == "u00_vs_2phi1"

    def test_check_count(self, ctx_q14):
        # 3 forms x 3 points x 3 theta values per degree
        assert len(_special_forms(ctx_q14, 2)) == 3 * 3 * 3 * 3

    def test_faulty_walker_fails(self, ctx_q14, monkeypatch):
        # U walks its terms with qhyp_terms, the reference side does not: a
        # walker with a wrong (q; q)_k must fail every record past n = 0
        def faulty(ctx, lower, z, count, weight=None):
            return qhyp_terms(ctx, list(lower) + [ctx.q], z, count, weight)

        monkeypatch.setattr("qoscpoly.matel.qhyp_terms", faulty)
        checks = _special_forms(ctx_q14, 3)
        assert len(checks) == 4 * 27
        assert all((r.status == PASS) == (r.params["n"] == 0) for r in checks)

    def test_faulty_row_fails(self, ctx_q14, monkeypatch, capsys):
        # U and matel_closed share the row (q^-n; q)_j: built from q^(1-n)
        # it must fail every record past n = 0 and the suite's verify run
        def faulty(ctx, n):
            return Poly(q_pochhammer(ctx, ctx.q_pow(1 - n), j)
                        for j in range(n + 1))

        monkeypatch.setattr("qoscpoly.matel._u_row", faulty)
        checks = _special_forms(ctx_q14, 3)
        assert len(checks) == 4 * 27
        assert all((r.status == PASS) == (r.params["n"] == 0) for r in checks)
        code = cli.main(["verify", "--suite", "matrixelements", "--nmax", "3"])
        capsys.readouterr()
        assert code == cli.EXIT_VERIFICATION_FAILED
