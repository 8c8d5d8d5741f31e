"""Truncated formal power series and the deformed exponential functions.

A TruncSeries stores exact coefficients for powers 0..order of a formal
variable t.  Products of two truncations are valid to the smaller order.
The generating-function left-hand sides are built from the two Euler-type
expansions of (z;q)_infty and 1/(z;q)_infty, so every coefficient is an
exact rational: no infinite product is ever truncated numerically here.
"""

from __future__ import annotations

from fractions import Fraction

from .context import HalfInt, QContext, frac
from .qarith import q_factorial, q_pochhammer


class TruncSeries:
    """Formal power series in t, exact coefficients, explicit order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(frac(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("a truncated series needs at least the constant term")

    @classmethod
    def constant(cls, c, order: int) -> "TruncSeries":
        return cls([c] + [0] * order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> Fraction:
        return self.coeffs[n]

    def truncate(self, order: int) -> "TruncSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncSeries(self.coeffs[: order + 1])

    def __add__(self, other):
        if not isinstance(other, TruncSeries):
            other = TruncSeries.constant(other, self.order)
        n = min(self.order, other.order)
        return TruncSeries([self.coeffs[i] + other.coeffs[i] for i in range(n + 1)])

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, TruncSeries):
            other = TruncSeries.constant(other, self.order)
        return self + (-other)

    def __rsub__(self, other):
        return TruncSeries.constant(other, self.order) - self

    def __mul__(self, other):
        """Scalar multiple, or the Cauchy product valid to the smaller order."""
        if not isinstance(other, TruncSeries):
            c = frac(other)
            return TruncSeries([c * a for a in self.coeffs])
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i in range(n + 1):
            for k in range(i + 1):
                out[i] += self.coeffs[k] * other.coeffs[i - k]
        return TruncSeries(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, TruncSeries):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __repr__(self):
        return f"TruncSeries({list(self.coeffs)!r})"


def series_recip(a: TruncSeries) -> TruncSeries:
    """Multiplicative inverse of a series with nonzero constant term."""
    if a.coeffs[0] == 0:
        raise ValueError("series reciprocal needs a nonzero constant term")
    inv0 = 1 / a.coeffs[0]
    out = [inv0]
    for n in range(1, a.order + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            acc += a.coeffs[k] * out[n - k]
        out.append(-inv0 * acc)
    return TruncSeries(out)


def emu_series(ctx: QContext, mu: HalfInt, c, order: int) -> TruncSeries:
    """(q,mu)-exponential of c*t: sum of q^(mu n^2) (c t)^n / [n]_q!."""
    if order < 0:
        raise ValueError("order must be >= 0")
    c = frac(c)
    coeffs = []
    cpow = Fraction(1)
    for n in range(order + 1):
        coeffs.append(ctx.pow_half(mu, n * n) * cpow / q_factorial(ctx, n))
        cpow *= c
    return TruncSeries(coeffs)


def eqw_eval(ctx: QContext, mu: HalfInt, x, order: int) -> Fraction:
    """Partial sum of the (q,omega,mu)-exponential at the point x.

    Sums q^(mu n^2) ((1-q)x - omega)^n / (q;q)_n for n = 0..order.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    x = frac(x)
    arg = (1 - ctx.q) * x - ctx.omega
    total = Fraction(0)
    argpow = Fraction(1)
    for n in range(order + 1):
        total += ctx.pow_half(mu, n * n) * argpow / q_pochhammer(ctx, ctx.q, n)
        argpow *= arg
    return total


def e_type_series(ctx: QContext, c, order: int) -> TruncSeries:
    """Series of (c*t; q)_infty: sum of (-1)^n q^(n(n-1)/2) (c t)^n/(q;q)_n."""
    c = frac(c)
    coeffs = []
    cpow = Fraction(1)
    for n in range(order + 1):
        sign = -1 if n % 2 else 1
        coeffs.append(sign * ctx.q_pow(n * (n - 1) // 2) * cpow
                      / q_pochhammer(ctx, ctx.q, n))
        cpow *= c
    return TruncSeries(coeffs)


def recip_poch_series(ctx: QContext, c, order: int) -> TruncSeries:
    """Series of 1/(c*t; q)_infty: sum of (c t)^n/(q;q)_n."""
    c = frac(c)
    coeffs = []
    cpow = Fraction(1)
    for n in range(order + 1):
        coeffs.append(cpow / q_pochhammer(ctx, ctx.q, n))
        cpow *= c
    return TruncSeries(coeffs)


def gaussian_genfun_lhs(ctx: QContext, x, order: int) -> TruncSeries:
    """Series in t of (t(1-q); q)_infty / (t x (1-q); q)_infty, exact.

    Its t^n coefficient equals phi_n(x)/[n]_q! for the q-Gaussian family.
    """
    x = frac(x)
    num = e_type_series(ctx, 1 - ctx.q, order)
    den = recip_poch_series(ctx, x * (1 - ctx.q), order)
    return num * den


def hahn_genfun_lhs(ctx: QContext, x, order: int) -> TruncSeries:
    """Series in t of (-t w; q)_infty / (-t((q-1)x + w); q)_infty, exact.

    Its t^n coefficient equals the Hahn factorial polynomial value over
    [n]_q! at the point x.
    """
    x = frac(x)
    num = e_type_series(ctx, -ctx.omega, order)
    den = recip_poch_series(ctx, (1 - ctx.q) * x - ctx.omega, order)
    return num * den


def exp_pair_identity_residual(ctx: QContext, order: int) -> TruncSeries:
    """Residual of E^(0)(t) * E^(1/2)(-q^(-1/2) t) - 1; exactly zero."""
    e0 = emu_series(ctx, HalfInt(0), 1, order)
    e_half = emu_series(ctx, HalfInt(1), Fraction(-1) / ctx.s, order)
    return e0 * e_half - 1


def exp_pair_alternate_residual(ctx: QContext, order: int) -> TruncSeries:
    """Residual of the alternate pairing E^(0)(t) * E^(1/2)(-q^(1/2) t) - 1.

    This variant circulates alongside the one above but does not vanish;
    it is surfaced by the verification report as a documented discrepancy
    rather than silently dropped.
    """
    e0 = emu_series(ctx, HalfInt(0), 1, order)
    e_half = emu_series(ctx, HalfInt(1), -ctx.s, order)
    return e0 * e_half - 1
