from fractions import Fraction

import pytest

from qoscpoly import Basis, Family, Poly, QContext
from qoscpoly.poly import VAR_X


def pytest_make_parametrize_id(config, val, argname):
    # Family and Basis parameters keep the test ids they had as members of
    # the former LadderFamily and Basis enums, so results stay comparable
    # across versions.
    if isinstance(val, Family):
        return f"LadderFamily.{val.name.upper()}"
    if isinstance(val, Basis):
        return f"Basis.{val.name.upper()}"
    return None


@pytest.fixture
def ctx_q14():
    """q = 1/4 (s = 1/2), omega = 1/8, omega0 = 1/6."""
    return QContext(Fraction(1, 2), Fraction(1, 8))


@pytest.fixture
def ctx_q12():
    """q = 1/2 built directly from q (no rational base root)."""
    return QContext.from_q(Fraction(1, 2))


@pytest.fixture
def ctx_q916():
    """q = 9/16 (s = 3/4), omega = 1/8."""
    return QContext(Fraction(3, 4), Fraction(1, 8))


@pytest.fixture
def poly_overs(monkeypatch):
    """The variables of the Poly.over calls made while the test runs; clear
    it to count the calls of one step."""
    over, calls = Poly.over.__func__, []

    def counted(cls, nums, den, var=VAR_X):
        calls.append(var)
        return over(cls, nums, den, var)

    monkeypatch.setattr(Poly, "over", classmethod(counted))
    return calls
