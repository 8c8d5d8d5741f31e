"""The one size contract and the one tolerance contract, at every entry point.

Every function that takes a size (a degree, index, count or order) checks
it through ``context.nonnegative``: -1 raises ValueError naming the size,
0 is accepted.  Both truncated sums check their tolerance through
``context.tolerance``.
"""

from fractions import Fraction as F

import pytest

from qoscpoly import hahn, matel, operators, qarith, series
from qoscpoly import families as fam
from qoscpoly.context import HALF_ZERO, QContext, nonnegative, tolerance
from qoscpoly.poly import Poly

CTX = QContext(F(1, 2), F(1, 8))
G = operators.QGAUSSIAN

# (name the message gives, call with the size)
SIZED = [
    ("q-factorial index", lambda n: qarith.q_factorial(CTX, n)),
    ("q-Pochhammer length", lambda n: qarith.q_pochhammer(CTX, F(1, 3), n)),
    ("term count", lambda n: qarith.qhyp_terms(CTX, [], 5, n)),
    ("double factorial index",
     lambda n: qarith.q_double_factorial_even(CTX, n)),
    ("monomial degree", lambda n: Poly.monomial(n)),
    ("polynomial power", lambda n: Poly([1, 1]) ** n),
    ("family index", lambda n: fam.qgaussian(CTX, n)),
    ("family index", lambda n: fam.hahn_factorial(CTX, n)),
    ("family index", lambda n: fam.qfactorial_pochhammer_value(CTX, n, 2)),
    ("family index", lambda n: fam.Basis.QFACTORIAL.element(CTX, n)),
    ("family index", lambda n: fam.qgaussian_via_qexp_operator(CTX, n)),
    ("family index", lambda n: fam.connect_hahn_gaussian(CTX, n)),
    ("family index",
     lambda n: operators.difference_equation_residual(CTX, n)),
    ("element count", lambda n: fam.Basis.HAHN_FACTORIAL.elements(CTX, n)),
    ("nmax", lambda n: fam.position_coefficients(CTX, n)),
    ("U-polynomial degree",
     lambda n: matel.u_polynomial(CTX, HALF_ZERO, HALF_ZERO, n, CTX.q, 1)),
    ("nmax", lambda n: matel.matel_oracle(CTX, G, HALF_ZERO, HALF_ZERO, n)),
    ("nmax", lambda n: matel.matel_closed(CTX, G, HALF_ZERO, HALF_ZERO, n)),
    ("order", lambda n: series.emu_series(CTX, HALF_ZERO, 2, n)),
    ("order", lambda n: series.eqw_eval(CTX, HALF_ZERO, F(1, 3), n)),
    ("order", lambda n: series.e_type_series(CTX, 2, n)),
    ("order", lambda n: series.recip_poch_series(CTX, 2, n)),
    ("order", lambda n: series.gaussian_genfun_lhs(CTX, 2, n)),
    ("order", lambda n: series.exp_pair_residual(CTX, -2, n)),
    ("q-Pochhammer length",
     lambda n: hahn.hahn_exp_normalized(CTX, F(1, 3), n)),
    ("order", lambda n: series.genfun_terms(CTX, (), n)),
]


@pytest.mark.parametrize("name, call", SIZED,
                         ids=[f"{i:02d}-{name}" for i, (name, _) in
                              enumerate(SIZED)])
def test_size_contract(name, call):
    call(0)
    with pytest.raises(ValueError) as info:
        call(-1)
    assert str(info.value) == f"{name} must be >= 0, got -1"


TRUNCATED = [
    tolerance,
    lambda tol: qarith.q_pochhammer_inf(CTX, F(1, 3), tol),
    lambda tol: hahn.hahn_integral_numeric(CTX, lambda x: x, 1, tol),
]


@pytest.mark.parametrize("call", TRUNCATED,
                         ids=["tolerance", "q_pochhammer_inf",
                              "hahn_integral_numeric"])
@pytest.mark.parametrize("tol", [0, F(-1, 3)])
def test_tolerance_contract(call, tol):
    call(F(1, 10**6))
    with pytest.raises(ValueError) as info:
        call(tol)
    assert str(info.value) == f"tolerance must be positive, got {tol}"


def test_helpers_return_the_value():
    assert nonnegative("n", 0) == 0 and nonnegative("n", 7) == 7
    assert tolerance("1/3") == F(1, 3) and type(tolerance(1)) is F
