"""Truncated formal power series and the deformed exponential functions.

A series is a Poly in the formal variable t that holds the exact
coefficients of powers 0..order, and ``Poly.mul_trunc`` forms the product of
two series only up to that order.  Poly trims trailing zero coefficients, so
a term is read with ``coeff(n)``, which is 0 past the last stored one.
The generating-function left-hand sides are ``euler_ratio`` products of
the two Euler-type expansions of (z;q)_infty and 1/(z;q)_infty, so every
coefficient is exact: no infinite product is ever truncated numerically.
Those expansions and the omega-exponential are basic hypergeometric series
with no parameters, walked by ``qarith.qhyp_terms``.  ``emu_series`` keeps
its own [n]_q! loop: through the walker it would be the very call that
``eqw_eval`` makes at omega = 0, and the check that compares the two would
compare a computation with itself.
"""

from __future__ import annotations

from fractions import Fraction

from .context import HALF_HALF, HALF_ZERO, HalfInt, QContext, frac, nonnegative
from .families import Basis
from .poly import VAR_T, Poly
from .qarith import q_factorial, qhyp_terms


def emu_series(ctx: QContext, mu: HalfInt, c, order: int) -> Poly:
    """(q,mu)-exponential of c*t: sum of q^(mu n^2) (c t)^n / [n]_q!."""
    c = frac(c)
    coeffs = []
    cpow = Fraction(1)
    for n in range(nonnegative("order", order) + 1):
        coeffs.append(ctx.pow_half(mu, n * n) * cpow / q_factorial(ctx, n))
        cpow *= c
    return Poly(coeffs, VAR_T)


def eqw_eval(ctx: QContext, mu: HalfInt, x, order: int) -> Fraction:
    """Partial sum of the (q,omega,mu)-exponential at the point x.

    Sums q^(mu n^2) ((1-q)x - omega)^n / (q;q)_n for n = 0..order, walked
    by ``qhyp_terms``.
    """
    arg = (1 - ctx.q) * frac(x) - ctx.omega
    return sum(qhyp_terms(ctx, [], arg, nonnegative("order", order) + 1,
                          lambda n: ctx.pow_half(mu, n * n)), Fraction(0))


def e_type_series(ctx: QContext, c, order: int) -> Poly:
    """Series of (c*t; q)_infty: sum of (-1)^n q^(n(n-1)/2) (c t)^n/(q;q)_n."""
    return Poly(qhyp_terms(ctx, [], c, nonnegative("order", order) + 1,
                           lambda n: (-1 if n % 2 else 1)
                           * ctx.q_pow(n * (n - 1) // 2)), VAR_T)


def recip_poch_series(ctx: QContext, c, order: int) -> Poly:
    """Series of 1/(c*t; q)_infty: sum of (c t)^n/(q;q)_n."""
    return Poly(qhyp_terms(ctx, [], c, nonnegative("order", order) + 1),
                VAR_T)


def euler_ratio(ctx: QContext, a, b, order: int) -> Poly:
    """Series in t of (a t; q)_infty / (b t; q)_infty, exact to order."""
    return e_type_series(ctx, a, order).mul_trunc(
        recip_poch_series(ctx, b, order), order)


def gaussian_genfun_lhs(ctx: QContext, x, order: int) -> Poly:
    """Series in t of (t(1-q); q)_infty / (t x (1-q); q)_infty, exact.

    Its t^n coefficient equals phi_n(x)/[n]_q! for the q-Gaussian family.
    """
    return euler_ratio(ctx, 1 - ctx.q, frac(x) * (1 - ctx.q), order)


def hahn_genfun_lhs(ctx: QContext, x, order: int) -> Poly:
    """Series in t of (-t w; q)_infty / (-t((q-1)x + w); q)_infty, exact.

    Its t^n coefficient equals the Hahn factorial polynomial value over
    [n]_q! at the point x.
    """
    return euler_ratio(ctx, -ctx.omega, (1 - ctx.q) * frac(x) - ctx.omega,
                       order)


def genfun_terms(ctx: QContext, xs, order: int) -> list[tuple]:
    """(family, x, n, t^n coefficient of the generating function at x, the
    family polynomial at x over [n]_q!) for x in xs and n <= order."""
    out = []
    phis = Basis.QGAUSSIAN.elements(ctx, nonnegative("order", order) + 1)
    phidots = Basis.HAHN_FACTORIAL.elements(ctx, order + 1)
    for x in xs:
        g = gaussian_genfun_lhs(ctx, x, order)
        h = hahn_genfun_lhs(ctx, x, order)
        for n in range(order + 1):
            fact = q_factorial(ctx, n)
            out.append(("qgaussian", x, n, g.coeff(n), phis[n](x) / fact))
            out.append(("hahn", x, n, h.coeff(n), phidots[n](x) / fact))
    return out


def exp_pair_residual(ctx: QContext, c, order: int) -> Poly:
    """Residual of the pairing E^(0)(t) * E^(1/2)(c t) - 1.

    It vanishes exactly at c = -q^(-1/2).  The alternate pairing
    c = -q^(1/2) circulates alongside it but does not vanish; the
    verification report surfaces it as a documented discrepancy.
    """
    e0 = emu_series(ctx, HALF_ZERO, 1, order)
    e_half = emu_series(ctx, HALF_HALF, c, order)
    return e0.mul_trunc(e_half, order) - 1
