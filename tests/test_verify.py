import dataclasses
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qoscpoly import Poly, QContext, cli
from qoscpoly import operators as opsmod
from qoscpoly import series as seriesmod
from qoscpoly.poly import VAR_U
from qoscpoly.report import (DISCREPANCY, FAIL, PASS, VerificationReport,
                             fmt_exact)
from qoscpoly.verify import (LIMITS, SUITE_NAMES, SUITES, TOL, RunConfig,
                             _exact, _near, run_suites)


class TestRandomContexts:
    # hahncalc is left out: its exp-functional-equation check uses a fixed
    # 40-factor product, which is too short near q = 1
    @given(s=st.fractions(0, 1, max_denominator=9).filter(lambda s: 0 < s < 1),
           omega=st.fractions(-2, 2, max_denominator=7))
    @example(s=F(1, 9), omega=F(1, 8))  # Euler sums past 4300 digits
    @settings(max_examples=5, deadline=None)
    def test_exact_identities_hold(self, s, omega):
        ctx = QContext(s, omega)
        report = VerificationReport({}, 0)
        for name in ("qkernel", "qseries", "polyfamilies", "operators"):
            report.records.extend(SUITES[name](ctx, 3, 4, random.Random(0)))
        assert [r.check_id for r in report.records if r.status == FAIL] == []
        assert report.to_json()

    @given(s=st.fractions(0, 1, max_denominator=9).filter(lambda s: 0 < s < 1),
           omega=st.fractions(-2, 2, max_denominator=7))
    @example(s=F(1, 2), omega=F(-3, 4))  # omega0 = -1: kappa = 0
    @settings(max_examples=5, deadline=None)
    def test_matrix_elements_hold(self, s, omega):
        # no cell fails: every Hahn mismatch is predicted and is the printed
        # factor; the published Hahn closed form is degenerate at omega0 = 1
        ctx = QContext(s, omega)
        assume(ctx.omega0 != 1)
        records = SUITES["matrixelements"](ctx, 3, 4, random.Random(0))
        assert [r.check_id for r in records if r.status == FAIL] == []


class TestDocumentedDiscrepancies:
    @pytest.mark.parametrize("kappa", [lambda ctx: (1 + ctx.omega0) ** 3,
                                       lambda ctx: (1 - ctx.omega0) ** 2],
                             ids=["cubed", "vanishing"])
    def test_other_hahn_kappa_fails(self, capsys, monkeypatch, kappa):
        # a Hahn closed form that differs from the oracle other than by the
        # printed factor, or not at all, fails on every predicted cell:
        # alpha*beta != 0 and min(n, r) >= 1, at the default omega = 1/8
        hahn = dataclasses.replace(opsmod.HAHN, kappa=kappa)
        monkeypatch.setattr(opsmod, "HAHN", hahn)
        monkeypatch.setattr(opsmod, "FAMILIES",
                            (opsmod.QGAUSSIAN, opsmod.QFACTORIAL, hahn))
        code = cli.main(["verify", "--suite", "matrixelements",
                         "--format", "json"])
        assert code == cli.EXIT_VERIFICATION_FAILED
        records = json.loads(capsys.readouterr().out)["records"]
        predicted = {
            r["check_id"] for r in records
            if r["check_id"].startswith("matrixelements/closed-vs-oracle/hahn/")
            and F(r["params"]["alpha"]) * F(r["params"]["beta"]) != 0
            and min(int(r["params"]["n"]), int(r["params"]["r"])) >= 1}
        assert len(predicted) == 4 * 9 * 36
        assert {r["check_id"] for r in records
                if r["status"] == FAIL} == predicted
        assert not any(r["status"] == DISCREPANCY for r in records)

    def test_equal_constant_hahn_cells_fail(self, monkeypatch):
        # a predicted cell whose closed form equals the oracle fails even
        # where the oracle has no alpha*beta term, so that the printed
        # factor cannot tell the two apart
        import qoscpoly.matel as matelmod

        def constant(build):
            def built(ctx, family, *args):
                m = build(ctx, family, *args)
                if family is not opsmod.HAHN:
                    return m
                return [[Poly([p.coeff(0)]) for p in row] for row in m]
            return built

        for name in ("matel_closed", "matel_oracle"):
            monkeypatch.setattr(matelmod, name,
                                constant(getattr(matelmod, name)))
        records = SUITES["matrixelements"](
            QContext(F(1, 2), F(1, 8)), 2, 4, random.Random(0))
        # hahn-reduces fails too: the constant omega = 0 Hahn matrix is no
        # longer the q-Gaussian one
        cells = [r for r in records
                 if r.check_id.startswith("matrixelements/closed-vs-oracle/")]
        failed = [r for r in cells if r.status == FAIL]
        assert len(failed) == 4 * 9 * 4
        assert all(r.params["family"] == "hahn" and r.params["n"] >= 1
                   and r.params["r"] >= 1 for r in failed)
        assert not any(r.status == DISCREPANCY for r in cells)

    def test_vanishing_alternate_pairing_fails(self, monkeypatch):
        # the alternate pairing is predicted not to vanish: a residual that
        # does vanish (here the identity pairing's) fails
        residual = seriesmod.exp_pair_residual
        monkeypatch.setattr(seriesmod, "exp_pair_residual", lambda ctx, c, order:
                            residual(ctx, -1 / ctx.s, order))
        records = {r.check_id: r for r in SUITES["qseries"](
            QContext(F(1, 2), F(1, 8)), 3, 4, random.Random(0))}
        assert records["qseries/exp-pair-identity"].status == PASS
        alternate = records["qseries/exp-pair-alternate"]
        assert alternate.status == FAIL
        assert alternate.note == "predicted nonzero residual vanished"
        assert [r for r in records.values() if r.status != PASS] == [alternate]


class TestCheckLimits:
    def test_checks_read_their_caps(self, monkeypatch):
        # the check caps are the entries named suite/check
        checks = [name for name in LIMITS if "/" in name]
        for name in checks:
            monkeypatch.setitem(LIMITS, name, 1)
        ctx = QContext(F(1, 2), F(1, 8))
        seen = {name: set() for name in checks}
        for suite in ("polyfamilies", "matrixelements"):
            for r in SUITES[suite](ctx, 2, 4, random.Random(0)):
                name = "/".join(r.check_id.split("/")[:2])
                if name in seen:
                    seen[name].add(r.params["n"])
        assert seen == {name: {0, 1} for name in checks}

    def test_help_names_every_cap(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["verify", "--help"])
        out = "".join(capsys.readouterr().out.split())
        for name, cap in LIMITS.items():
            assert f"{name}{cap}" in out


class TestRunSuites:
    @pytest.mark.parametrize("size", ["nmax", "order"])
    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_negative_size_rejected(self, suite, size):
        with pytest.raises(ValueError, match=f"{size} must be >= 0, got -1"):
            run_suites(RunConfig(suites=(suite,), **{size: -1}))

    @pytest.mark.parametrize("suite", ["qkernel", "qseries", "matrixelements"])
    def test_rootless_context_rejected(self, suite):
        # q = 1/2 has no rational square root, so q^(1/2) is not exact
        ctx = QContext.from_q(F(1, 2), F(1, 8))
        with pytest.raises(ValueError, match="base root"):
            SUITES[suite](ctx, 2, 4, random.Random(0))


class TestPassRules:
    def test_exact_passes_iff_equal(self):
        assert _exact("a", {}, F(1, 3), F(2, 6)).status == PASS
        assert _exact("a", {}, F(1, 3), F(1, 4)).status == FAIL
        assert _exact("a", {}, Poly([1, 2]), Poly([1, 2])).status == PASS
        assert _exact("a", {}, Poly([1, 2]), Poly([1, 3])).status == FAIL
        assert _exact("a", {}, Poly.zero(), 0).status == PASS
        assert _exact("a", {}, Poly([0, 1]), 0).status == FAIL

    def test_exact_shows_poly_coefficients(self):
        p, r = Poly([F(1, 2), 0, 3]), Poly([F(-1, 3)])
        rec = _exact("a", {"n": 1}, p, r, "note")
        assert (rec.lhs, rec.rhs) == (fmt_exact(list(p.coeffs)),
                                      fmt_exact(list(r.coeffs)))
        assert (rec.params, rec.note) == ({"n": 1}, "note")
        assert _exact("a", {}, Poly([1, 1]), 0).rhs == "0"

    def test_near_is_strict(self):
        assert _near("a", {}, TOL, 0).status == FAIL
        assert _near("a", {}, 1 + TOL, 1).status == FAIL
        assert _near("a", {}, 0, TOL).status == FAIL
        assert _near("a", {}, TOL / 2, 0).status == PASS
        assert _near("a", {}, -TOL / 2, 0).status == PASS

    def test_near_adds_tol(self):
        rec = _near("a", {"x": F(1, 2)}, F(1, 3), F(1, 3))
        assert rec.params == {"x": F(1, 2), "tol": TOL}
        assert (rec.lhs, rec.rhs) == ("1/3", "1/3")


class TestFaultContainment:
    def test_hahn_fault_becomes_raised_records(self, capsys, monkeypatch):
        # a Hahn step off by one leaves a remainder in every Hahn difference;
        # the operators suite meets it in the Hahn lowering
        import qoscpoly.hahn as hahn
        monkeypatch.setattr(hahn, "_hahn_step", lambda ctx, p:
                            p.compose_affine(ctx.q, ctx.omega) + 1)
        code = cli.main(["verify", "--format", "json"])
        assert code == cli.EXIT_VERIFICATION_FAILED
        records = json.loads(capsys.readouterr().out)["records"]
        failed = {r["check_id"]: r for r in records if r["status"] == FAIL}
        assert set(failed) == {"hahncalc/raised", "operators/raised"}
        raised = failed["hahncalc/raised"]
        assert raised["lhs"].startswith(
            "AssertionError: Hahn difference leaves remainder")
        assert raised["note"].startswith(
            "raised in hahn_derivative_poly at hahn.py:")
        suites = {r["check_id"].split("/")[0] for r in records}
        assert {"qkernel", "qseries", "polyfamilies",
                "matrixelements"} <= suites

    @pytest.fixture
    def hahn_step_in_u(self, monkeypatch):
        # a Hahn step that returns a polynomial in u meets one in x in every
        # Hahn difference, so Poly raises ValueError: a fault, not usage
        import qoscpoly.hahn as hahn
        monkeypatch.setattr(hahn, "_hahn_step", lambda ctx, p:
                            Poly(p.compose_affine(ctx.q, ctx.omega).coeffs,
                                 VAR_U))

    def test_value_error_fault_becomes_raised_records(self, capsys,
                                                      hahn_step_in_u):
        code = cli.main(["verify", "--format", "json"])
        assert code == cli.EXIT_VERIFICATION_FAILED
        records = json.loads(capsys.readouterr().out)["records"]
        failed = {r["check_id"]: r["lhs"] for r in records
                  if r["status"] == FAIL}
        assert set(failed) == {"hahncalc/raised", "operators/raised"}
        assert all(lhs.startswith("ValueError: variable mismatch")
                   for lhs in failed.values())

    def test_value_error_fault_in_table_raises(self, hahn_step_in_u):
        with pytest.raises(ValueError, match="variable mismatch"):
            cli.main(["table", "hahn", "--nmax", "2"])

    def test_singular_hahn_exponential_is_one_record(self, capsys):
        # one of the 40 factors of the hahncalc exponential vanishes at
        # x = 1/4; the other suites still report
        code = cli.main(["verify", "--omega=-13/16", "--format", "json"])
        assert code == cli.EXIT_VERIFICATION_FAILED
        records = json.loads(capsys.readouterr().out)["records"]
        assert [(r["check_id"], r["lhs"]) for r in records
                if r["status"] == FAIL] == [
            ("hahncalc/raised",
             "ValueError: ((1-q)x - w; q)_40 vanishes at x = 1/4")]
        assert {r["check_id"].split("/")[0] for r in records} == set(
            SUITE_NAMES)


class TestHahnReduces:
    def test_closed_form_fault_fails(self, monkeypatch):
        # a cell with twice its prefactor's numerator is wrong for every
        # family alike, so the Hahn closed form at omega = 0 still equals
        # the q-Gaussian closed form; against the q-Gaussian oracle every
        # cell with a nonzero value fails
        import qoscpoly.matel as matelmod
        cell = matelmod._cell
        monkeypatch.setattr(matelmod, "_cell", lambda pref, col, row:
                            cell(2 * pref, col, row))
        records = [r for r in SUITES["matrixelements"](
            QContext(F(1, 2), F(1, 8)), 4, 4, random.Random(0))
            if r.check_id.startswith("matrixelements/hahn-reduces/")]
        failed = [r for r in records if r.status == FAIL]
        assert len(records) == 4 * 16 * 25
        assert failed == [r for r in records if r.rhs != "0"] != []


class TestNearQOne:
    # correct code fails the Hahn exponential's functional equation at
    # x = -1/3, 1/4 and 2/5 in these contexts
    @pytest.mark.xfail(strict=True,
                       reason="ROADMAP item 5: fixed 40-factor truncation")
    @pytest.mark.parametrize("context", [["--s", "9/10"],
                                         ["--s", "8/9", "--omega", "1/5"]],
                             ids=["s=9/10", "s=8/9,omega=1/5"])
    def test_hahncalc_passes(self, capsys, context):
        code = cli.main(["verify", "--suite", "hahncalc", *context,
                         "--format", "json"])
        records = json.loads(capsys.readouterr().out)["records"]
        assert [r["check_id"] for r in records if r["status"] == FAIL] == []
        assert code == cli.EXIT_OK
