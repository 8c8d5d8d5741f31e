"""Matrix elements of the deformed exponential-operator products.

The operator E^(mu)(alpha * adag) E^(nu)(beta * a) acting on the n-th family
polynomial expands again in the family basis.  Element (n, r) depends on
alpha and beta only as alpha^(r-n)+ beta^(n-r)+ P_{n,r}(alpha beta), with
deg P_{n,r} <= min(n, r).  Both builders have the signature
``(ctx, family, mu, nu, nmax)`` and return the matrix [n][r], n, r <= nmax,
of the polynomials P_{n,r} in alpha*beta, computed two independent ways:

  * ``matel_closed``  evaluates the closed-form expressions through the
    U-polynomials, diagonal by diagonal: coefficient j of U_n is a column
    q^(j^2(mu+nu)) x^j / ((q^(1+d); q)_j (q; q)_j), walked once per
    diagonal and side, times a row (q^-n; q)_j, built once per matrix;
  * ``matel_oracle``  applies the two truncating operator series directly via
    the exact ladder coefficients, with no reference to the closed forms.
    A cell's coefficients are products of two weighted ladder paths, so
    one matrix costs O(N^3) multiplications.

Both keep their factors as ``Poly`` keeps its coefficients, integer
numerators over one denominator: each column and row, each list of
lowering paths and all raising paths together.  A closed-form coefficient
is then the integer product prefactor_num * column_j * row_j, an oracle
coefficient the integer product of two path numerators, and each cell is
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
from itertools import accumulate, repeat
from math import lcm, prod
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
              count: int) -> Poly:
    """q^(j^2 (mu+nu)) x^j / ((q^(1+theta); q)_j (q; q)_j) for j < count as
    the coefficients of one Poly: the part of U's coefficient j free of the
    degree n, walked by ``qhyp_terms``."""
    musum = HalfInt(mu.twice + nu.twice)
    return Poly(qhyp_terms(ctx, [q1theta], x, count,
                           lambda j: ctx.pow_half(musum, j * j)))


def _u_row(ctx: QContext, n: int) -> Poly:
    """(q^-n; q)_j for j = 0..n as the coefficients of one Poly: the part of
    U's coefficients set by n."""
    return Poly(accumulate((1 - ctx.q_pow(j - n) for j in range(n)), mul,
                           initial=Fraction(1)))


def _cell(pref, col: Poly, row: Poly) -> Poly:
    """pref times col and row coefficient by coefficient: the numerators are
    integer products over one denominator, normalised once.  A column that
    Poly trimmed of its zero terms (x = 0) ends the products early, where
    the coefficients are zero."""
    p = pref.numerator
    return Poly.over([p * c * r for c, r in zip(col.nums, row.nums)],
                     pref.denominator * col.den * row.den)


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


def _weighted_paths(weights: Poly, steps: list) -> tuple[list[int], int]:
    """Weight k times the product of steps[:k], k = 0..len(steps), as
    integer numerators over one denominator.

    Poly trims the zero weights that sigma = 0 gives; they come back as
    zero numerators.
    """
    paths = list(accumulate(steps, mul, initial=Fraction(1)))
    den = lcm(*(path.denominator for path in paths))
    nums = [w * path.numerator * (den // path.denominator)
            for w, path in zip(weights.nums, paths)]
    return nums + [0] * (len(paths) - len(nums)), weights.den * den


def matel_oracle(ctx: QContext, family: Family, mu: HalfInt, nu: HalfInt,
                 nmax: int) -> list[list[Poly]]:
    """All P_{n,r}, n, r <= nmax, from the ladder coefficients.

    Applies the lowering series (index i, truncating at i = n) followed by
    the raising series (index j pinned to r - n + i); no closed form and no
    analytic operator realization is involved.  At alpha = beta = 1 the
    series weights are those of ``emu_series`` at sigma; ``down[n][i]`` is
    the i-th lowering weight times the path n -> n - i and ``up[m][j]`` the
    j-th raising weight times the path m -> m + j.  The i-th path of cell
    (n, r) carries (alpha beta)^(i - (n-r)+), so its product
    down[n][i] * up[n - i][r - n + i] is that coefficient of P_{n,r}.
    Each ``down[n]`` is kept as integer numerators over its own denominator
    and all of ``up`` over one shared denominator, so a cell is integer
    products over one denominator, normalised once.
    """
    sigma, size = family.sigma(ctx), nonnegative("nmax", nmax) + 1
    lower = [lowering_coeff(ctx, family, m) for m in range(1, size)]
    raise_ = [raising_coeff(ctx, family, m) for m in range(size - 1)]
    w_down = emu_series(ctx, nu, sigma, nmax)
    w_up = emu_series(ctx, mu, sigma, nmax)
    down = [_weighted_paths(w_down, lower[:n][::-1]) for n in range(size)]
    up = [_weighted_paths(w_up, raise_[m:]) for m in range(size)]
    up_den = lcm(*(den for _, den in up))
    up = [[u * (up_den // den) for u in nums] for nums, den in up]
    return [[Poly.over([dn[i] * up[n - i][r - n + i]
                        for i in range(max(n - r, 0), n + 1)], dd * up_den)
             for r in range(size)] for n, (dn, dd) in enumerate(down)]


def matel_closed(ctx: QContext, family: Family, mu: HalfInt, nu: HalfInt,
                 nmax: int) -> list[list[Poly]]:
    """All closed-form P_{n,r}, n, r <= nmax, as published.

    Walks the diagonals d = |n - r|.  Each side of a diagonal shares
    sigma^d and the U column at its argument and q^(1+d); every cell reads
    the row (q^-k; q)_j of its U degree k = min(n, r).  The coefficient of
    (alpha beta)^j is the cell's prefactor times column_j * row_j.  The
    n = r diagonal has one side.  A family with sigma = 0 (Hahn at
    omega0 = 1) is rejected: its published form degenerates there.
    """
    e, sigma, size = family.e, family.sigma(ctx), nonnegative("nmax", nmax) + 1
    if sigma == 0:
        raise ValueError(f"the {family.name} closed form is degenerate at "
                         f"omega0 = 1 (sigma = 1 - omega0 = 0)")
    z = (ctx.q - 1) * family.kappa(ctx)
    rows = [_u_row(ctx, k) for k in range(size)]
    out = [[None] * size for _ in range(size)]
    for d in range(size):
        q1d, lo_scale = ctx.q_pow(1 + d), sigma ** d
        # cells (k + d, k); d(n+r+1) is even, so the q-power is one power
        # of s = q^(1/2)
        col = _u_column(ctx, mu, nu, q1d,
                        z * ctx.q_pow(1 - e + nu.twice * d), size - d)
        for k in range(size - d):
            pref = (lo_scale * q_binomial(ctx, k + d, k)
                    * ctx.pow_half(HALF_HALF, nu.twice * d * d
                                   - e * d * (2 * k + d + 1)))
            out[k + d][k] = _cell(pref, col, rows[k])
        if d == 0:
            continue
        # cells (k, k + d); likewise d(n+r-1) is even
        hi_scale = lo_scale / q_factorial(ctx, d)
        col = _u_column(ctx, mu, nu, q1d,
                        z * ctx.q_pow(1 - e + mu.twice * d), size - d)
        for k in range(size - d):
            pref = hi_scale * ctx.pow_half(HALF_HALF, mu.twice * d * d
                                           - (1 - e) * d * (2 * k + d - 1))
            out[k][k + d] = _cell(pref, col, rows[k])
    return out
