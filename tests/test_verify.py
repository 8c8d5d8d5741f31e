import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qoscpoly import Poly, QContext, cli
from qoscpoly.report import (DISCREPANCY, FAIL, PASS, VerificationReport,
                             fmt_exact)
from qoscpoly.verify import (CHECK_LIMITS, SUITE_LIMITS, SUITE_NAMES, SUITES,
                             TOL, RunConfig, _exact, _near, run_suites)


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
            report.extend(SUITES[name](ctx, 3, 4, random.Random(0)))
        assert [r.check_id for r in report.records if r.status == FAIL] == []
        assert report.to_json()


class TestCheckLimits:
    def test_checks_read_their_caps(self, monkeypatch):
        for name in CHECK_LIMITS:
            monkeypatch.setitem(CHECK_LIMITS, name, 1)
        ctx = QContext(F(1, 2), F(1, 8))
        seen = {name: set() for name in CHECK_LIMITS}
        for suite in ("polyfamilies", "matrixelements"):
            for r in SUITES[suite](ctx, 2, 4, random.Random(0)):
                name = "/".join(r.check_id.split("/")[:2])
                if name in seen:
                    seen[name].add(r.params["n"])
        assert seen == {name: {0, 1} for name in CHECK_LIMITS}

    def test_help_names_every_cap(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["verify", "--help"])
        out = "".join(capsys.readouterr().out.split())
        for name, cap in {**SUITE_LIMITS, **CHECK_LIMITS}.items():
            assert f"{name}{cap}" in out


class TestRunSuites:
    @pytest.mark.parametrize("size", ["nmax", "order"])
    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_negative_size_rejected(self, suite, size):
        with pytest.raises(ValueError, match=f"{size}=-1"):
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

    def test_exact_discrepancy(self):
        assert _exact("a", {}, 1, 2, discrepancy=True).status == DISCREPANCY
        assert _exact("a", {}, 1, 1, discrepancy=True).status == PASS

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
