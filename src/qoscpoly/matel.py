"""Matrix elements of the deformed exponential-operator products.

The operator E^(mu)(alpha * adag) E^(nu)(beta * a) acting on the n-th family
polynomial expands again in the family basis; the expansion coefficients are
computed two independent ways:

  * ``matel_closed``  evaluates the closed-form expressions through the
    U-polynomials (a terminating q-hypergeometric sum);
  * ``matel_oracle``  applies the two truncating operator series directly via
    the exact ladder coefficients, with no reference to the closed forms.

The oracle is the ground truth; any exact mismatch with a closed form is
reported as a documented discrepancy, never patched.

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

from dataclasses import dataclass
from fractions import Fraction

from .context import HALF_HALF, HalfInt, QContext, frac
from .operators import Family, lowering_coeff, raising_coeff
from .qarith import q_binomial, q_factorial


@dataclass(frozen=True)
class MatElParams:
    """Parameters (mu, nu, alpha, beta) and the matrix indices (n, r)."""

    mu: HalfInt
    nu: HalfInt
    alpha: Fraction
    beta: Fraction
    n: int
    r: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", frac(self.alpha))
        object.__setattr__(self, "beta", frac(self.beta))
        if self.n < 0 or self.r < 0:
            raise ValueError("matrix indices must be >= 0")


def u_polynomial(ctx: QContext, mu: HalfInt, nu: HalfInt, n: int,
                 q1theta, x) -> Fraction:
    """The terminating sum U_n^(mu,nu)(x; q^(1+theta) | q).

    Sum over k = 0..n of q^(k^2 (mu+nu)) (q^-n; q)_k x^k
    / ((q^(1+theta); q)_k (q; q)_k); the second argument is passed as the
    rational value q^(1+theta) itself.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    q = ctx.q
    q1theta = frac(q1theta)
    x = frac(x)
    musum = HalfInt(mu.twice + nu.twice)
    total = Fraction(0)
    num = Fraction(1)      # (q^-n; q)_k
    den_theta = Fraction(1)  # (q^(1+theta); q)_k
    den_q = Fraction(1)    # (q; q)_k
    xpow = Fraction(1)
    for k in range(n + 1):
        if den_theta == 0:
            raise ValueError(
                f"denominator factor (q^(1+theta); q)_k vanishes at k = {k}")
        total += ctx.pow_half(musum, k * k) * num * xpow / (den_theta * den_q)
        num *= 1 - q ** (-n) * q ** k
        den_theta *= 1 - q1theta * q ** k
        den_q *= 1 - q ** (k + 1)
        xpow *= x
    return total


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
    ((-1)^k q^(k(k-1)/2))^(1+s-r).
    """
    upper = [frac(a) for a in upper]
    lower = [frac(b) for b in lower]
    z = frac(z)
    q = ctx.q
    indices = [m for m in (_termination_index(ctx, a) for a in upper)
               if m is not None]
    if not indices:
        raise ValueError("series does not terminate: no upper parameter q^-n")
    n = min(indices)
    power = 1 + len(lower) - len(upper)
    total = Fraction(0)
    num = [Fraction(1)] * len(upper)
    den = [Fraction(1)] * len(lower)
    den_q = Fraction(1)
    zpow = Fraction(1)
    for k in range(n + 1):
        if any(d == 0 for d in den):
            raise ValueError(f"lower-parameter Pochhammer vanishes at k = {k}")
        term = zpow / den_q
        for v in num:
            term *= v
        for v in den:
            term /= v
        sign = -1 if (k * power) % 2 else 1
        comp = ctx.q_pow(k * (k - 1) // 2 * power)
        total += sign * comp * term
        qk = q ** k
        num = [v * (1 - a * qk) for v, a in zip(num, upper)]
        den = [v * (1 - b * qk) for v, b in zip(den, lower)]
        den_q *= 1 - q ** (k + 1)
        zpow *= z
    return total


def _series_weight(ctx: QContext, half: HalfInt, c: Fraction,
                   k: int) -> Fraction:
    """k-th coefficient of the exponential operator series in the ladder op."""
    return ctx.pow_half(half, k * k) * c ** k / q_factorial(ctx, k)


def matel_oracle(ctx: QContext, family: Family, p: MatElParams) -> Fraction:
    """Brute-force matrix element from the exact ladder coefficients.

    Applies the lowering series (index i, truncating at i = n) followed by
    the raising series (index j pinned to r - n + i); no closed form and no
    analytic operator realization is involved.
    """
    sigma = family.sigma(ctx)
    alpha, beta = p.alpha * sigma, p.beta * sigma
    total = Fraction(0)
    for i in range(p.n + 1):
        j = p.r - p.n + i
        if j < 0:
            continue
        lower_path = Fraction(1)
        for t in range(i):
            lower_path *= lowering_coeff(ctx, family, p.n - t)
        raise_path = Fraction(1)
        for t in range(j):
            raise_path *= raising_coeff(ctx, family, p.n - i + t)
        total += (_series_weight(ctx, p.nu, beta, i) * lower_path
                  * _series_weight(ctx, p.mu, alpha, j) * raise_path)
    return total


def matel_closed(ctx: QContext, family: Family, p: MatElParams) -> Fraction:
    """Closed-form matrix element, exactly as the published branch formulas.

    Evaluates the r <= n branch or the n < r branch; at n = r the formula
    is evaluated from both sides, which must agree (the U-polynomial
    depends on mu+nu only).
    """
    if p.n == p.r:
        lo = _closed(ctx, family, p, True)
        hi = _closed(ctx, family, p, False)
        if lo != hi:
            raise AssertionError(
                f"diagonal branch mismatch at n = r = {p.n}: {lo} vs {hi}")
        return lo
    return _closed(ctx, family, p, p.r < p.n)


def _closed(ctx: QContext, family: Family, p: MatElParams,
            lower: bool) -> Fraction:
    """The closed form on the r <= n side (lower) or the n <= r side."""
    e, n, r = family.e, p.n, p.r
    # the q-powers q^(h d^2) and q^(-e d(n+r+1)/2) or q^(-(1-e) d(n+r-1)/2)
    # as one power of s = q^(1/2); d(n+r+1) and d(n+r-1) are always even
    if lower:
        d, c, h = n - r, p.beta, p.nu
        pref = (ctx.pow_half(HALF_HALF, h.twice * d * d - e * d * (n + r + 1))
                * q_binomial(ctx, n, r))
    else:
        d, c, h = r - n, p.alpha, p.mu
        pref = (ctx.pow_half(HALF_HALF,
                             h.twice * d * d - (1 - e) * d * (n + r - 1))
                / q_factorial(ctx, d))
    uarg = (p.alpha * p.beta * (ctx.q - 1) * family.kappa(ctx)
            * ctx.q_pow(1 - e + h.twice * d))
    return ((c * family.sigma(ctx)) ** d * pref
            * u_polynomial(ctx, p.mu, p.nu, min(n, r), ctx.q_pow(1 + d), uarg))


@dataclass(frozen=True)
class FormCheck:
    """Result of comparing a printed series form with the U-polynomial."""

    name: str
    n: int
    x: Fraction
    q1theta: Fraction
    passed: bool
    lhs: Fraction
    rhs: Fraction


def special_form_checks(ctx: QContext, nmax: int) -> list[FormCheck]:
    """Verify the named q-hypergeometric forms of U for special (mu, nu).

    U^(0,0)   = 2phi1(q^-n, 0; q^(1+theta); q; x)
    U^(0,1/2) = 1phi1(q^-n; q^(1+theta); q; -x q^(1/2))
    U^(1/2,1/2) = 1phi2(q^-n; q^(1+theta), 0; q; q x)
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    q = ctx.q
    h0, h1 = HalfInt(0), HalfInt(1)
    checks = []
    xs = [Fraction(1), Fraction(1, 3), Fraction(-1, 5)]
    q1thetas = [q, q * q, q ** 3]
    for n in range(nmax + 1):
        qmn = q ** (-n)
        for x in xs:
            for q1t in q1thetas:
                u = u_polynomial(ctx, h0, h0, n, q1t, x)
                h = basic_hyp_terminating(ctx, [qmn, 0], [q1t], x)
                checks.append(FormCheck("u00_vs_2phi1", n, x, q1t, u == h, u, h))
                u = u_polynomial(ctx, h0, h1, n, q1t, x)
                h = basic_hyp_terminating(ctx, [qmn], [q1t], -x * ctx.s)
                checks.append(FormCheck("u0h_vs_1phi1", n, x, q1t, u == h, u, h))
                u = u_polynomial(ctx, h1, h1, n, q1t, x)
                h = basic_hyp_terminating(ctx, [qmn], [q1t, 0], q * x)
                checks.append(FormCheck("uhh_vs_1phi2", n, x, q1t, u == h, u, h))
    return checks
