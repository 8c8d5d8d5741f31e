"""Exact q-arithmetic primitives: q-integers, factorials, binomials, Pochhammer.

Everything returns Fractions and is a pure function of its inputs.
"""

from __future__ import annotations

from fractions import Fraction

from .context import QContext, frac


def q_int_at(q: Fraction, n: int) -> Fraction:
    """[n]_q = (1 - q^n)/(1 - q) at an arbitrary rational q != 1."""
    q = frac(q)
    if q == 1:
        raise ValueError("q = 1 is excluded")
    return (1 - q ** n) / (1 - q)


def q_int(ctx: QContext, n: int) -> Fraction:
    """The q-integer [n]_q; defined for negative n as well."""
    return q_int_at(ctx.q, n)


def q_int_recip(ctx: QContext, n: int) -> Fraction:
    """[n] evaluated at base 1/q; equals q^(1-n) * [n]_q."""
    return q_int_at(1 / ctx.q, n)


def q_factorial(ctx: QContext, n: int) -> Fraction:
    """[n]_q! = product of [k]_q for k = 1..n, with [0]_q! = 1."""
    if n < 0:
        raise ValueError(f"q-factorial needs n >= 0, got {n}")
    out = Fraction(1)
    for k in range(1, n + 1):
        out *= q_int(ctx, k)
    return out


def q_binomial(ctx: QContext, n: int, k: int) -> Fraction:
    """Gaussian binomial [n choose k]_q; exactly 0 outside 0 <= k <= n."""
    if k < 0 or k > n or n < 0:
        return Fraction(0)
    return q_factorial(ctx, n) / (q_factorial(ctx, n - k) * q_factorial(ctx, k))


def q_pochhammer(ctx: QContext, z, n: int) -> Fraction:
    """(z; q)_n = product of (1 - z*q^k) for k = 0..n-1, empty product 1."""
    if n < 0:
        raise ValueError(f"q-Pochhammer needs n >= 0, got {n}")
    z = frac(z)
    out = Fraction(1)
    power = Fraction(1)
    for _ in range(n):
        out *= 1 - z * power
        power *= ctx.q
    return out


def q_pochhammer_inf(ctx: QContext, z, tol) -> tuple[Fraction, int]:
    """Truncation of (z; q)_infty with a geometric tail bound.

    Stops after K factors once |z| q^K / (1-q) < tol, so the omitted tail
    multiplier deviates from 1 by less than tol.  Returns (value, K).
    """
    z = frac(z)
    tol = frac(tol)
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    q = ctx.q
    value = Fraction(1)
    power = Fraction(1)  # q^k
    k = 0
    while abs(z) * power / (1 - q) >= tol:
        factor = 1 - z * power
        value *= factor
        power *= q
        k += 1
        if factor == 0:
            return Fraction(0), k
    return value, k


def q_double_factorial_even(ctx: QContext, n: int) -> Fraction:
    """[2n]_q!! = [2n]_q [2n-2]_q ... [2]_q, empty product 1."""
    if n < 0:
        raise ValueError(f"double factorial needs n >= 0, got {n}")
    out = Fraction(1)
    for k in range(1, n + 1):
        out *= q_int(ctx, 2 * k)
    return out
