import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qoscpoly import QContext, cli
from qoscpoly.report import FAIL, VerificationReport
from qoscpoly.verify import CHECK_LIMITS, SUITE_LIMITS, SUITES


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
