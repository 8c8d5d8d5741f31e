import random
from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qoscpoly import QContext
from qoscpoly.report import FAIL, VerificationReport
from qoscpoly.verify import SUITES


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
