"""Exact q-arithmetic primitives: q-integers, factorials, binomials, Pochhammer.

Everything returns Fractions and depends only on its inputs.  ``q_int_at``
computes from a raw q.  ``q_int``, ``q_factorial`` and ``q_binomial`` read
the context's tables (see :class:`QContext`): [k]_q, [k]_q! and the rows of
[n choose k]_q are each computed once per q, on first use, and the tables
grow only as far as they are read.  The ``with_omega`` copies of a context
share its tables, since none of these values depends on omega.
``qhyp_terms`` walks the terms of the package's basic hypergeometric sums;
``q_pochhammer`` builds its product directly, as integer products made one
Fraction at the end, and is the reference the walker is tested against.  It
is the one (z; q)_n product: ``q_pochhammer_inf`` only picks n by its tail
bound.
"""

from __future__ import annotations

from fractions import Fraction

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
    (b, a), (qn, qd) = frac(z).as_integer_ratio(), ctx.q.as_integer_ratio()
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
    so no Pochhammer prefix is ever rebuilt.  The ratio z / ((1 - q^k)
    prod (1 - b q^(k-1))) is formed from the integer parts of z, q and each
    b and made one Fraction.  Raises ValueError for count < 0 and when a
    term needs a vanishing lower Pochhammer.
    """
    nonnegative("term count", count)
    lower = [frac(b).as_integer_ratio() for b in lower]
    (zn, zd), (qn, qd) = frac(z).as_integer_ratio(), ctx.q.as_integer_ratio()
    terms, term, pn, pd = [], Fraction(1), 1, 1
    for k in range(count):
        if k:
            num, den = zn * pd * qd, zd * (pd * qd - pn * qn)
            for bn, bd in lower:  # pn/pd is q^(k-1)
                num, den = num * bd * pd, den * (bd * pd - bn * pn)
            if den == 0:
                raise ValueError(
                    f"lower-parameter Pochhammer vanishes at k = {k}")
            term *= Fraction(num, den)
            pn, pd = pn * qn, pd * qd
        terms.append(term if weight is None else weight(k) * term)
    return terms


def q_pochhammer_inf(ctx: QContext, z, tol) -> tuple[Fraction, int]:
    """(z; q)_K, the truncation of (z; q)_infty, and K.

    K is the least k with |z| q^k / (1-q) < tol.  The omitted factors are
    1 + a_k, k >= K, with sum |a_k| = e = |z| q^K / (1-q), so their product
    lies within prod(1 + |a_k|) - 1 <= exp(e) - 1 of 1.  Returns (value, K).
    """
    ratio = abs(frac(z)) / ((1 - ctx.q) * tolerance(tol))  # e / tol at k
    k = 0
    while ratio >= 1:
        ratio *= ctx.q
        k += 1
    return q_pochhammer(ctx, z, k), k


def q_double_factorial_even(ctx: QContext, n: int) -> Fraction:
    """[2n]_q!! = [2n]_q [2n-2]_q ... [2]_q, empty product 1."""
    out = Fraction(1)
    for k in range(1, nonnegative("double factorial index", n) + 1):
        out *= q_int(ctx, 2 * k)
    return out
