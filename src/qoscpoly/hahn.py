"""Hahn difference calculus: derivative, integral, Leibniz rules, exponential.

The Hahn derivative is (f(qx+w) - f(x)) / ((q-1)x + w); its fixed point is
omega0 = w/(1-q).  On polynomials everything here is exact and rests on
division by a linear factor: the derivative divides by (q-1)x + w, the
antiderivative expands in the Hahn factorial basis and the closed integral
in powers of x - omega0.  The sampled-function integral stops on a
look-ahead tail estimate, and the exponential is the reciprocal of a
fixed number of factors of a q-Pochhammer product.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .context import QContext, frac, tolerance
from .families import Basis, expand_in_basis, vector_to_poly
from .poly import VAR_X, Poly
from .qarith import q_int, q_pochhammer


def _hahn_step(ctx: QContext, p: Poly) -> Poly:
    """p(qx + w)."""
    return p.compose_affine(ctx.q, ctx.omega)


def hahn_derivative_poly(ctx: QContext, p: Poly) -> Poly:
    """Exact Hahn derivative of a polynomial.

    The numerator p(qx+w) - p(x) is always divisible by (q-1)x + w (both
    vanish at x = omega0), so a nonzero remainder is an internal fault.
    """
    if p.var != VAR_X:
        raise ValueError("Hahn derivative acts on polynomials in x")
    quot, rem = (_hahn_step(ctx, p) - p).divmod_linear(ctx.omega, ctx.q - 1)
    if rem != 0:
        raise AssertionError(f"Hahn difference leaves remainder {rem}")
    return quot


def leibniz_residuals(ctx: QContext, f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Residual polynomials of the deformed product and quotient rules.

    Product rule: D(fg) = (Df) g + f(qx+w) (Dg).
    Quotient rule, cleared of denominators:
        f(qx+w) g - f g(qx+w) = ((Df) g - f (Dg)) ((q-1)x + w).
    Both residuals are identically zero.
    """
    if g.is_zero():
        raise ValueError("quotient rule needs a nonzero denominator")
    df = hahn_derivative_poly(ctx, f)
    dg = hahn_derivative_poly(ctx, g)
    f_step = _hahn_step(ctx, f)
    g_step = _hahn_step(ctx, g)
    product_res = hahn_derivative_poly(ctx, f * g) - (df * g + f_step * dg)
    divisor = Poly([ctx.omega, ctx.q - 1])
    quotient_res = (f_step * g - f * g_step) - (df * g - f * dg) * divisor
    return product_res, quotient_res


def hahn_antiderivative(ctx: QContext, p: Poly) -> Poly:
    """F with D_{q,w} F = p exactly and F(omega0) = 0.

    Built through the Hahn factorial basis, where the derivative lowers the
    index: the antiderivative of phidot_n is phidot_{n+1}/[n+1]_q.
    """
    coeffs = expand_in_basis(ctx, p, Basis.HAHN_FACTORIAL)
    out = vector_to_poly(ctx, Basis.HAHN_FACTORIAL, [0] + [
        c / q_int(ctx, n + 1) for n, c in enumerate(coeffs)])
    return out - out(ctx.omega0)


def hahn_integral_closed(ctx: QContext, p: Poly, x) -> Fraction:
    """Exact value of the Hahn integral of p from omega0 to x.

    The node x q^k + w [k]_q equals omega0 + (x - omega0) q^k, so after
    expanding p around omega0 each power contributes a geometric series:
    sum_k q^(k(j+1)) = 1/(1 - q^(j+1)).
    """
    x = frac(x)
    q = ctx.q
    y = x - ctx.omega0
    total = Fraction(0)
    ypow = Fraction(1)
    # b_j, the coefficient of (x - omega0)^j
    for j, b in enumerate(expand_in_basis(ctx, p, Basis.SHIFTED_MONOMIAL)):
        total += b * ypow / (1 - ctx.q_pow(j + 1))
        ypow *= y
    return ((1 - q) * x - ctx.omega) * total


def hahn_integral_numeric(ctx: QContext, f: Callable, x, tol) -> tuple[Fraction, int]:
    """Tail-bounded partial sum of the Hahn integral of a function f(x).

    Sums prefactor * q^k f(node_k) until the geometric tail bound
    |prefactor| * M * q^K/(1-q) drops below tol, where M is the largest
    |f| at omega0 and at the next 8 nodes (the nodes converge monotonically
    to omega0, so bounded f makes this a valid bound for continuous
    integrands).  f is called K + 9 times.  Returns (value, number of terms K).
    """
    x = frac(x)
    tol = tolerance(tol)
    q = ctx.q
    omega0 = ctx.omega0
    prefactor = (1 - q) * x - ctx.omega
    if prefactor == 0:
        return Fraction(0), 0
    y = x - omega0
    # f at the nodes omega0 + y q^j, j = k..k+8, each computed once
    window = [frac(f(omega0 + y * q ** j)) for j in range(9)]
    at_omega0 = abs(frac(f(omega0)))
    total, qpow, k = Fraction(0), Fraction(1), 0
    while True:
        total += qpow * window.pop(0)
        qpow *= q
        k += 1
        m = max(at_omega0, *map(abs, window))
        if abs(prefactor) * m * qpow / (1 - q) < tol:
            return prefactor * total, k
        window.append(frac(f(omega0 + y * qpow * q ** 8)))


def hahn_exp_normalized(ctx: QContext, x, terms: int) -> Fraction:
    """e_{q,w}(x)/e_{q,w}(omega0) as a truncated reciprocal product.

    Computes 1/((1-q)x - w; q)_terms by ``q_pochhammer``, that is
    1 / prod_{k<terms} (1 + q^k ((q-1)x + w)) (Gasper & Rahman 2004, 1.3);
    the infinite product satisfies D_{q,w} e = e, and the truncation error
    is geometric in q.  Raises ValueError when the product vanishes, and
    ``q_pochhammer`` raises it for terms < 0.
    """
    prod = q_pochhammer(ctx, (1 - ctx.q) * frac(x) - ctx.omega, terms)
    if prod == 0:
        raise ValueError(f"((1-q)x - w; q)_{terms} vanishes at x = {x}")
    return 1 / prod
