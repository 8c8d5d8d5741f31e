"""Exact q-arithmetic primitives: q-integers, factorials, binomials, Pochhammer.

Everything returns Fractions and depends only on its inputs.  ``q_int_at``
computes from a raw q.  ``q_int``, ``q_factorial`` and ``q_binomial`` read
the context's tables (see :class:`QContext`): [k]_q, [k]_q! and the rows of
[n choose k]_q are each computed once per q, on first use, and the tables
grow only as far as they are read.  The ``with_omega`` copies of a context
share its tables, since none of these values depends on omega.
``qhyp_terms`` walks the terms of the package's basic hypergeometric sums;
``q_pochhammer`` builds its product directly, as integer products made one
Fraction at the end, and is the reference the walker is tested against.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .context import QContext, frac, nonnegative, tolerance


def q_int_at(q: Fraction, n: int) -> Fraction:
    """[n]_q = (1 - q^n)/(1 - q) at an arbitrary rational q != 1."""
    q = frac(q)
    if q == 1:
        raise ValueError("q = 1 is excluded")
    return (1 - q ** n) / (1 - q)


def q_int(ctx: QContext, n: int) -> Fraction:
    """The q-integer [n]_q; defined for negative n as well."""
    ints = ctx.ints
    value = ints.get(n)
    if value is None:
        value = ints[n] = (1 - ctx.q_pow(n)) / (1 - ctx.q)
    return value


def _factorials(ctx: QContext, n: int) -> list[Fraction]:
    """The context's table of [0]_q! .. [m]_q!, grown to m >= n."""
    facts = ctx.factorials
    while len(facts) <= n:
        facts.append(facts[-1] * q_int(ctx, len(facts)))
    return facts


def q_factorial(ctx: QContext, n: int) -> Fraction:
    """[n]_q! = product of [k]_q for k = 1..n, with [0]_q! = 1."""
    return _factorials(ctx, nonnegative("q-factorial index", n))[n]


def q_binomial(ctx: QContext, n: int, k: int) -> Fraction:
    """Gaussian binomial [n choose k]_q; exactly 0 outside 0 <= k <= n.

    Row m of the context's table holds [m]_q! / ([m-k]_q! [k]_q!) for
    k = 0..m/2, read off the factorial table, never by the Pascal rule it is
    checked against; k and m - k share an entry.
    """
    if k < 0 or k > n:
        return Fraction(0)
    rows = ctx.binomials
    while len(rows) <= n:
        m = len(rows)
        fact = _factorials(ctx, m)
        top = fact[m]
        rows.append([Fraction(top.numerator * a.denominator * b.denominator,
                              top.denominator * a.numerator * b.numerator)
                     for a, b in zip(fact[m::-1], fact[:m // 2 + 1])])
    return rows[n][min(k, n - k)]


def q_pochhammer(ctx: QContext, z, n: int) -> Fraction:
    """(z; q)_n = product of (1 - z*q^k) for k = 0..n-1, empty product 1.

    With z = zn/zd and q = qn/qd, factor k is (a - b)/a for a = zd qd^k and
    b = zn qn^k: the numerators and denominators are multiplied as integers
    and normalised once.
    """
    nonnegative("q-Pochhammer length", n)
    z = frac(z)
    qn, qd = ctx.q.numerator, ctx.q.denominator
    a, b = z.denominator, z.numerator
    num = den = 1
    for _ in range(n):
        num *= a - b
        den *= a
        a *= qd
        b *= qn
    return Fraction(num, den)


def qhyp_terms(ctx: QContext, lower: list, z, count: int,
               weight=None) -> list[Fraction]:
    """The first count terms of a basic hypergeometric series.

    Term k is weight(k) z^k / ((lower; q)_k (q; q)_k), where the list of
    parameters stands for the product of their Pochhammer symbols and no
    weight means weight 1.  Each term is the previous one times one ratio,
    so no Pochhammer prefix is ever rebuilt.  Raises ValueError for
    count < 0 and when a term needs a vanishing lower Pochhammer.
    """
    nonnegative("term count", count)
    lower = [frac(b) for b in lower]
    z = frac(z)
    terms, term = [], Fraction(1)
    for k in range(count):
        if k:
            qk = ctx.q_pow(k - 1)
            den = prod((1 - b * qk for b in lower), start=1 - ctx.q_pow(k))
            if den == 0:
                raise ValueError(
                    f"lower-parameter Pochhammer vanishes at k = {k}")
            term = term * z / den
        terms.append(term if weight is None else weight(k) * term)
    return terms


def q_pochhammer_inf(ctx: QContext, z, tol) -> tuple[Fraction, int]:
    """Truncation of (z; q)_infty with a geometric tail bound.

    Stops after K factors once |z| q^K / (1-q) < tol, so the omitted tail
    multiplier deviates from 1 by less than tol.  Returns (value, K).
    """
    z = frac(z)
    tol = tolerance(tol)
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
    out = Fraction(1)
    for k in range(1, nonnegative("double factorial index", n) + 1):
        out *= q_int(ctx, 2 * k)
    return out
