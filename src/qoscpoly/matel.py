"""Matrix elements of the deformed exponential-operator products.

The operator E^(mu)(alpha * adag) E^(nu)(beta * a) acting on the n-th family
polynomial expands again in the family basis; the expansion coefficients are
computed two independent ways, both with the signature
``(ctx, family, mu, nu, alpha, beta, nmax)`` and both returning the whole
matrix [n][r] for n, r <= nmax:

  * ``matel_closed``  evaluates the closed-form expressions through the
    U-polynomials (terminating sums walked by ``qarith.qhyp_terms``),
    diagonal by diagonal, sharing each diagonal's powers and U argument;
  * ``matel_oracle``  applies the two truncating operator series directly via
    the exact ladder coefficients, with no reference to the closed forms.
    Each series weight is computed once per index, each lowering and
    raising path grows by one ladder factor per step, and the cells are
    sums over these, so one parameter set costs O(N^3) multiplications.

The oracle is the ground truth; any exact mismatch with a closed form is
reported as a documented discrepancy, never patched.  The q-powers and
q-factorials of both sides come from the context's kernel tables.

One closed form serves all three families.  With d = |n - r| and
(c, h) = (beta, nu) for r <= n, (alpha, mu) for n < r:

  closed = (c sigma)^d q^(h d^2) * { r <= n: q^(-e d(n+r+1)/2) [n,r]_q
                                     n <  r: q^(-(1-e) d(n+r-1)/2) / [d]_q! }
           * U^(mu,nu)_min(n,r)(alpha beta (q-1) kappa q^(1-e+2hd); q^(1+d))

and each printed formula is read off from its family's (e, sigma, kappa):

  q-Gaussian   (0, 1,          1)
  q-factorial  (1, 1,          1)
  Hahn         (0, 1 - omega0, (1 + omega0)^2)
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod

from .context import HALF_HALF, HALF_ZERO, HalfInt, QContext, frac
from .operators import Family, lowering_coeff, raising_coeff
from .qarith import q_binomial, q_factorial, q_pochhammer, qhyp_terms
from .report import CheckRecord, record


def u_polynomial(ctx: QContext, mu: HalfInt, nu: HalfInt, n: int,
                 q1theta, x) -> Fraction:
    """The terminating sum U_n^(mu,nu)(x; q^(1+theta) | q).

    Sum over k = 0..n of q^(k^2 (mu+nu)) (q^-n; q)_k x^k
    / ((q^(1+theta); q)_k (q; q)_k), walked by ``qhyp_terms``; the second
    argument is passed as the rational value q^(1+theta) itself.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    musum = HalfInt(mu.twice + nu.twice)
    return sum(qhyp_terms(ctx, [ctx.q_pow(-n)], [q1theta], x, n + 1,
                          lambda k: ctx.pow_half(musum, k * k)), Fraction(0))


def _termination_index(ctx: QContext, a: Fraction) -> int | None:
    """m >= 0 with a = q^-m, or None."""
    if a < 1:
        return None
    q = ctx.q
    v = a
    m = 0
    while v > 1:
        v *= q
        m += 1
    return m if v == 1 else None


def basic_hyp_terminating(ctx: QContext, upper: list, lower: list, z) -> Fraction:
    """Terminating basic hypergeometric series r_phi_s(upper; lower; q; z).

    Requires some upper parameter of the form q^-n; the sum then stops at
    k = n.  Each term carries the standard compensation factor
    ((-1)^k q^(k(k-1)/2))^(1+s-r).  Every term is formed from its own
    ``q_pochhammer`` products, not by ``qhyp_terms``, so this stays a
    reference the U-polynomials are checked against.
    """
    upper = [frac(a) for a in upper]
    indices = [m for m in (_termination_index(ctx, a) for a in upper)
               if m is not None]
    if not indices:
        raise ValueError("series does not terminate: no upper parameter q^-n")
    z, power, total = frac(z), 1 + len(lower) - len(upper), Fraction(0)
    for k in range(min(indices) + 1):
        den = prod((q_pochhammer(ctx, b, k) for b in lower),
                   start=q_pochhammer(ctx, ctx.q, k))
        if den == 0:
            raise ValueError(f"lower-parameter Pochhammer vanishes at k = {k}")
        num = prod((q_pochhammer(ctx, a, k) for a in upper), start=z ** k)
        sign = -1 if k * power % 2 else 1
        total += sign * num * ctx.q_pow(k * (k - 1) // 2 * power) / den
    return total


def _series_weight(ctx: QContext, half: HalfInt, c: Fraction,
                   k: int) -> Fraction:
    """k-th coefficient of the exponential operator series in the ladder op."""
    return ctx.pow_half(half, k * k) * c ** k / q_factorial(ctx, k)


def matel_oracle(ctx: QContext, family: Family, mu: HalfInt, nu: HalfInt,
                 alpha, beta, nmax: int) -> list[list[Fraction]]:
    """All matrix elements [n][r], n, r <= nmax, from the ladder coefficients.

    Applies the lowering series (index i, truncating at i = n) followed by
    the raising series (index j pinned to r - n + i); no closed form and no
    analytic operator realization is involved.  ``down[n][i]`` is the i-th
    lowering weight times the path n -> n - i and ``up[m][j]`` the j-th
    raising weight times the path m -> m + j; each path grows by one ladder
    factor per step, and cell (n, r) sums down[n][i] * up[n - i][r - n + i].
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    sigma = family.sigma(ctx)
    alpha, beta = frac(alpha) * sigma, frac(beta) * sigma
    size = nmax + 1
    w_down = [_series_weight(ctx, nu, beta, i) for i in range(size)]
    w_up = [_series_weight(ctx, mu, alpha, j) for j in range(size)]
    down = []
    for n in range(size):
        path = Fraction(1)
        row = [w_down[0]]
        for i in range(1, n + 1):
            path *= lowering_coeff(ctx, family, n - i + 1)
            row.append(w_down[i] * path)
        down.append(row)
    up = []
    for m in range(size):
        path = Fraction(1)
        row = [w_up[0]]
        for j in range(1, size - m):
            path *= raising_coeff(ctx, family, m + j - 1)
            row.append(w_up[j] * path)
        up.append(row)
    return [[sum(down[n][i] * up[n - i][r - n + i]
                 for i in range(max(n - r, 0), n + 1))
             for r in range(size)] for n in range(size)]


def matel_closed(ctx: QContext, family: Family, mu: HalfInt, nu: HalfInt,
                 alpha, beta, nmax: int) -> list[list[Fraction]]:
    """All closed-form matrix elements [n][r], n, r <= nmax, as published.

    Walks the diagonals d = |n - r|.  Each side of a diagonal shares
    (c sigma)^d, the U argument and q^(1+d), so a cell costs its prefactor
    and one U-polynomial.  The n = r diagonal is evaluated from both sides,
    which must agree (the U-polynomial depends on mu+nu only).  A family
    with sigma = 0 (Hahn at omega0 = 1) is rejected: its published form
    degenerates there.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    alpha, beta = frac(alpha), frac(beta)
    e, sigma, size = family.e, family.sigma(ctx), nmax + 1
    if sigma == 0:
        raise ValueError(f"the {family.name} closed form is degenerate at "
                         f"omega0 = 1 (sigma = 1 - omega0 = 0)")
    ab = alpha * beta * (ctx.q - 1) * family.kappa(ctx)
    out = [[None] * size for _ in range(size)]
    for d in range(size):
        q1d = ctx.q_pow(1 + d)
        lo_scale = (beta * sigma) ** d
        hi_scale = (alpha * sigma) ** d / q_factorial(ctx, d)
        lo_arg = ab * ctx.q_pow(1 - e + nu.twice * d)
        hi_arg = ab * ctx.q_pow(1 - e + mu.twice * d)
        for k in range(size - d):
            # cells (k + d, k) and (k, k + d); d(n+r+1) and d(n+r-1) are
            # even, so each side's q-powers are one power of s = q^(1/2)
            lo = (lo_scale * q_binomial(ctx, k + d, k)
                  * ctx.pow_half(HALF_HALF, nu.twice * d * d
                                 - e * d * (2 * k + d + 1))
                  * u_polynomial(ctx, mu, nu, k, q1d, lo_arg))
            hi = (hi_scale
                  * ctx.pow_half(HALF_HALF, mu.twice * d * d
                                 - (1 - e) * d * (2 * k + d - 1))
                  * u_polynomial(ctx, mu, nu, k, q1d, hi_arg))
            if d == 0 and lo != hi:
                raise AssertionError(
                    f"diagonal branch mismatch at n = r = {k}: {lo} vs {hi}")
            out[k + d][k], out[k][k + d] = lo, hi
    return out


def special_form_checks(ctx: QContext, nmax: int) -> list[CheckRecord]:
    """Verify the named q-hypergeometric forms of U for special (mu, nu).

    U^(0,0)   = 2phi1(q^-n, 0; q^(1+theta); q; x)
    U^(0,1/2) = 1phi1(q^-n; q^(1+theta); q; -x q^(1/2))
    U^(1/2,1/2) = 1phi2(q^-n; q^(1+theta), 0; q; q x)
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    q = ctx.q
    # name, (mu, nu), the parameters after q^-n and after q^(1+theta), and
    # the factor that multiplies x in the series argument
    forms = (("u00_vs_2phi1", HALF_ZERO, HALF_ZERO, [0], [], 1),
             ("u0h_vs_1phi1", HALF_ZERO, HALF_HALF, [], [], -ctx.s),
             ("uhh_vs_1phi2", HALF_HALF, HALF_HALF, [], [0], q))
    checks = []
    for n, x, q1t in product(range(nmax + 1),
                             (Fraction(1), Fraction(1, 3), Fraction(-1, 5)),
                             (q, q * q, q ** 3)):
        for name, mu, nu, top, bottom, scale in forms:
            u = u_polynomial(ctx, mu, nu, n, q1t, x)
            h = basic_hyp_terminating(ctx, [q ** (-n)] + top, [q1t] + bottom,
                                      scale * x)
            checks.append(record(
                f"matrixelements/special-form/{name}/n={n},x={x},q1t={q1t}",
                {"n": n, "x": x, "q1theta": q1t}, u == h, u, h, name))
    return checks
