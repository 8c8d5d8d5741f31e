"""Exact-arithmetic library for three q-oscillator polynomial families.

The q-Gaussian, q-factorial and Hahn factorial polynomials with their
ladder operators, closed-form matrix elements (plus an independent
whole-matrix ladder-path oracle), generating functions, and the Hahn
difference and integral calculus.  Everything rational in, rational out.
"""

from .context import HALF_HALF, HALF_ZERO, HalfInt, QContext, frac
from .families import (Basis, connect_hahn_gaussian, expand_in_basis,
                       hahn_factorial, position_coefficients,
                       qfactorial_pochhammer_value, qgaussian,
                       qgaussian_via_qexp_operator, vector_to_poly)
from .hahn import (hahn_antiderivative, hahn_derivative_poly,
                   hahn_exp_normalized, hahn_integral_closed,
                   hahn_integral_numeric, leibniz_residuals)
from .matel import (basic_hyp_terminating, matel_at, matel_closed,
                    matel_oracle, predicted_discrepancy, u_polynomial)
from .operators import (FAMILIES, HAHN, QFACTORIAL, QGAUSSIAN, Family,
                        difference_equation_residual, jackson_derivative,
                        ladder_apply, ladder_apply_analytic)
from .poly import VAR_T, Poly
from .qarith import (q_binomial, q_double_factorial_even, q_factorial, q_int,
                     q_int_at, q_pochhammer, q_pochhammer_inf, qhyp_terms)
from .report import VerificationReport
from .series import (emu_series, eqw_eval, exp_pair_residual,
                     gaussian_genfun_lhs, hahn_genfun_lhs)
from .verify import RunConfig, run_suites

__version__ = "0.1.0"
