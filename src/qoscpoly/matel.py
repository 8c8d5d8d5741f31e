"""Matrix elements of the deformed exponential-operator products.

The operator E^(mu)(alpha * adag) E^(nu)(beta * a) acting on the n-th family
polynomial expands again in the family basis.  Element (n, r) depends on
alpha and beta only as alpha^(r-n)+ beta^(n-r)+ P_{n,r}(alpha beta), with
deg P_{n,r} <= min(n, r).  Both builders have the signature
``(ctx, family, mu, nu, nmax)`` and return the matrix [n][r], n, r <= nmax,
of the polynomials P_{n,r} in alpha*beta, computed two independent ways:

  * ``matel_closed``  evaluates the closed form below through the
    U-polynomials, cell by cell: coefficient j of U_n is a column
    q^(j^2(mu+nu)) x^j / ((q^(1+d); q)_j (q; q)_j), walked once per
    distinct (d, h d), times a row (q^-n; q)_j, built once per matrix;
  * ``matel_oracle``  applies the two truncating operator series directly via
    the exact ladder coefficients, with no reference to the closed forms.
    A cell's coefficients are products of two weighted ladder paths, so
    one matrix costs O(N^3) multiplications.

Both hold a cell's factors as integer numerators over the lcm of just the
denominators the cell reads: its column's terms up to its U degree, its
row, the lowering paths from n and the raising paths into r.  A
closed-form coefficient is the integer product prefactor_num * column_j *
row_j, an oracle one the product of two path numerators, and each cell is
normalised once, by ``Poly.over``; no Fraction is built per coefficient.

``matel_at`` evaluates either matrix at one (alpha, beta).  The oracle is
the ground truth; a mismatch is never patched, and ``predicted_discrepancy``
names the cells where it is documented.  The q-powers and q-factorials of
both sides come from the context's kernel tables.

One closed form serves all three families.  With d = |n - r| and
h = nu for r <= n, mu for n < r:

  P = sigma^d q^(h d^2) * { r <= n: q^(-e d(n+r+1)/2) [n,r]_q
                            n <  r: q^(-(1-e) d(n+r-1)/2) / [d]_q! }
      * U^(mu,nu)_min(n,r)(alpha beta (q-1) kappa q^(1-e+2hd); q^(1+d))

and each printed formula is read off from its family's (e, sigma, kappa):

  q-Gaussian   (0, 1,          1)
  q-factorial  (1, 1,          1)
  Hahn         (0, 1 - omega0, (1 + omega0)^2)
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, product, repeat
from math import lcm
from operator import mul

from . import operators as opsmod
from .context import HALF_HALF, HalfInt, QContext, frac, nonnegative
from .operators import Family, lowering_coeff, raising_coeff
from .poly import Poly
from .qarith import q_binomial, q_factorial, q_pochhammer, qhyp_terms
from .series import emu_series


def u_polynomial(ctx: QContext, mu: HalfInt, nu: HalfInt, n: int,
                 q1theta, x) -> Poly:
    """The terms of U_n^(mu,nu)(x; q^(1+theta) | q) as one polynomial.

    Coefficient j is q^(j^2 (mu+nu)) (q^-n; q)_j x^j / ((q^(1+theta); q)_j
    (q; q)_j): the column ``_u_column`` times the row ``_u_row``, as in
    ``matel_closed``; at y the polynomial is U_n(x y).  The second argument
    is passed as the rational value q^(1+theta) itself.
    """
    nonnegative("U-polynomial degree", n)
    return _cell(1, _u_column(ctx, mu, nu, q1theta, x, n + 1), _u_row(ctx, n))


def _u_column(ctx: QContext, mu: HalfInt, nu: HalfInt, q1theta, x,
              count: int) -> tuple:
    """q^(j^2 (mu+nu)) x^j / ((q^(1+theta); q)_j (q; q)_j) for j < count,
    the part of U's coefficient j free of the degree n, walked by
    ``qhyp_terms``: numerators, denominators and the lcms of dens[:j+1]."""
    musum = HalfInt(mu.twice + nu.twice)
    terms = qhyp_terms(ctx, [q1theta], x, count,
                       lambda j: ctx.pow_half(musum, j * j))
    dens = [t.denominator for t in terms]
    return [t.numerator for t in terms], dens, list(accumulate(dens, lcm))


def _u_row(ctx: QContext, n: int) -> Poly:
    """(q^-n; q)_j for j = 0..n as the coefficients of one Poly: the part of
    U's coefficients set by n."""
    return Poly(accumulate((1 - ctx.q_pow(j - n) for j in range(n)), mul,
                           initial=Fraction(1)))


def _cell(pref, col: tuple, row: Poly) -> Poly:
    """pref times col and row coefficient by coefficient.  A cell of U
    degree k reads column terms j <= k over their own lcm: integer
    products over the one denominator the cell reads, normalised once."""
    nums, dens, lcms = col
    p, den = pref.numerator, lcms[len(row.nums) - 1]
    return Poly.over([p * c * (den // d) * r
                      for c, d, r in zip(nums, dens, row.nums)],
                     pref.denominator * den * row.den)


def _termination_index(ctx: QContext, a) -> int | None:
    """m >= 0 with a = q^-m, or None; a q^m is held as two integers."""
    (num, den), m = frac(a).as_integer_ratio(), 0
    while num > den:
        num, den, m = num * ctx.q.numerator, den * ctx.q.denominator, m + 1
    return m if num == den else None


def basic_hyp_terminating(ctx: QContext, upper: list, lower: list, z) -> Fraction:
    """Terminating basic hypergeometric series r_phi_s(upper; lower; q; z).

    Requires some upper parameter of the form q^-n; the sum then stops at
    k = n.  Each term carries the standard compensation factor
    ((-1)^k q^(k(k-1)/2))^(1+s-r).  Every term is formed from its own
    ``q_pochhammer`` products, not by ``qhyp_terms``, so this stays a
    reference the U-polynomials are checked against.  The factors and
    terms are multiplied and added as integers; the sum is normalised once.
    """
    indices = [m for m in (_termination_index(ctx, a) for a in upper)
               if m is not None]
    if not indices:
        raise ValueError("series does not terminate: no upper parameter q^-n")
    z, power, num, den = frac(z), 1 + len(lower) - len(upper), 0, 1
    for k in range(min(indices) + 1):
        below = [q_pochhammer(ctx, b, k) for b in [ctx.q, *lower]]
        if not all(below):
            raise ValueError(f"lower-parameter Pochhammer vanishes at k = {k}")
        tn, td = z.numerator ** k, z.denominator ** k
        for f in [ctx.q_pow(k * (k - 1) // 2 * power),
                  *(q_pochhammer(ctx, a, k) for a in upper)]:
            tn, td = tn * f.numerator, td * f.denominator
        for f in below:
            tn, td = tn * f.denominator, td * f.numerator
        num, den = num * td + (-tn if k * power % 2 else tn) * den, den * td
    return Fraction(num, den)


def predicted_discrepancy(ctx: QContext, family: Family, n: int, r: int,
                          alpha_beta) -> bool:
    """Whether the printed closed form of cell (n, r) is predicted to differ
    from the oracle at alpha*beta (the README's documented discrepancy): the
    Hahn family at omega != 0, min(n, r) >= 1 and alpha*beta != 0.  It reads
    neither kappa nor sigma, and ``operators.HAHN`` at call time."""
    return (family is opsmod.HAHN and ctx.omega != 0 and min(n, r) >= 1
            and alpha_beta != 0)


def matel_at(polys: list[list[Poly]], alpha, beta) -> list[list[Fraction]]:
    """The elements alpha^(r-n)+ beta^(n-r)+ P_{n,r}(alpha beta) of a square
    matrix, as the builders return it.

    The powers of alpha and beta are tabulated once per call, by d = |n - r|;
    None stands for a factor of 1 (d = 0, or a base of 1), which is not
    multiplied in.
    """
    alpha, beta = frac(alpha), frac(beta)
    x, size = alpha * beta, len(polys)
    up, down = ([None] * size if base == 1
                else [None, *accumulate(repeat(base, size - 1), mul)]
                for base in (alpha, beta))
    # row n reads beta^n .. beta^1 left of the diagonal, then alpha^0 ..
    # alpha^(size-1-n) from it on
    return [[p(x) if f is None else p(x) * f
             for p, f in zip(row, down[n:0:-1] + up[:size - n])]
            for n, row in enumerate(polys)]


def _path_row(weights: list, steps: list) -> tuple[list[int], int]:
    """Weight k times the product of steps[:k], k = 0..len(steps), as
    integer numerators over the lcm of their own denominators."""
    row = [w * path for w, path in
           zip(weights, accumulate(steps, mul, initial=Fraction(1)))]
    den = lcm(*(v.denominator for v in row))
    return [v.numerator * (den // v.denominator) for v in row], den


def matel_oracle(ctx: QContext, family: Family, mu: HalfInt, nu: HalfInt,
                 nmax: int) -> list[list[Poly]]:
    """All P_{n,r}, n, r <= nmax, from the ladder coefficients.

    Applies the lowering series (index i, truncating at i = n) followed by
    the raising series (index j pinned to r - n + i); no closed form and no
    analytic operator realization is involved.  At alpha = beta = 1 the
    series weights are those of ``emu_series`` at sigma; ``down[n][i]`` is
    the i-th lowering weight times the path n -> n - i and ``up[r][j]`` the
    j-th raising weight times the path r - j -> r, which arrives at r.  The
    i-th path of cell (n, r) carries (alpha beta)^(i - (n-r)+), so its
    product down[n][i] * up[r][r - n + i] is that coefficient of P_{n,r}.
    Each ``down[n]`` and ``up[r]`` is integer numerators over the lcm of its
    own entries, so a cell is integer products over the one denominator it
    reads, normalised once.
    """
    sigma, size = family.sigma(ctx), nonnegative("nmax", nmax) + 1
    lower = [lowering_coeff(ctx, family, m) for m in range(1, size)]
    raise_ = [raising_coeff(ctx, family, m) for m in range(size - 1)]
    w_down, w_up = ([w.coeff(k) for k in range(size)] for w in (
        emu_series(ctx, nu, sigma, nmax), emu_series(ctx, mu, sigma, nmax)))
    down = [_path_row(w_down, lower[:n][::-1]) for n in range(size)]
    up = [_path_row(w_up, raise_[:r][::-1]) for r in range(size)]
    return [[Poly.over([dn[i] * ur[r - n + i]
                        for i in range(max(n - r, 0), n + 1)], dd * ud)
             for r, (ur, ud) in enumerate(up)]
            for n, (dn, dd) in enumerate(down)]


def closed_form_sigma(ctx: QContext, family: Family) -> Fraction:
    """The family's sigma; ValueError where it is 0 (Hahn at omega0 = 1),
    as the published closed form degenerates there."""
    if (sigma := family.sigma(ctx)) == 0:
        raise ValueError(f"the {family.name} closed form is degenerate at "
                         f"omega0 = 1 (sigma = 1 - omega0 = 0)")
    return sigma


def matel_closed(ctx: QContext, family: Family, mu: HalfInt, nu: HalfInt,
                 nmax: int) -> list[list[Poly]]:
    """All closed-form P_{n,r}, n, r <= nmax, as published.

    One pass over the cells reads the module's formula, with d = |n - r|
    and (h, f) = (nu, e) for r <= n, (mu, 1 - e) for n < r.  The q-power
    is s^(2h d^2 - f d(n+r+-1)), one power of s = q^(1/2), since
    d(n+r+-1) is even.  The scale, sigma^d [n,r]_q or sigma^d / [d]_q!,
    comes from per-d lists.  A U column is keyed by d and h d and walked
    once per call, so at mu = nu both sides of a diagonal share it.  Every
    cell reads the row (q^-k; q)_j of its U degree k = min(n, r).
    """
    size = nonnegative("nmax", nmax) + 1
    e, sigma = family.e, closed_form_sigma(ctx, family)
    z = (ctx.q - 1) * family.kappa(ctx)
    rows = [_u_row(ctx, k) for k in range(size)]
    lo_scales = [sigma ** d for d in range(size)]
    hi_scales = [t / q_factorial(ctx, d) for d, t in enumerate(lo_scales)]
    cols, out = {}, [[None] * size for _ in range(size)]
    for n, r in product(range(size), repeat=2):
        d, lower = abs(n - r), r <= n
        h, f, side = (nu, e, 1) if lower else (mu, 1 - e, -1)
        if (key := (h.twice * d, d)) not in cols:
            cols[key] = _u_column(ctx, mu, nu, ctx.q_pow(1 + d),
                                  z * ctx.q_pow(1 - e + h.twice * d), size - d)
        scale = lo_scales[d] * q_binomial(ctx, n, r) if lower else hi_scales[d]
        pref = scale * ctx.pow_half(HALF_HALF, h.twice * d * d
                                    - f * d * (n + r + side))
        out[n][r] = _cell(pref, cols[key], rows[min(n, r)])
    return out
