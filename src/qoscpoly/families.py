"""The three polynomial families, basis conversions, and related expansions.

Families:
  * q-Gaussian      phi_n(x)    = prod_{k<n} (x - q^k)
  * q-factorial     phihat_n    = prod_{k<n} [x-k]_q, a polynomial in u = q^x
  * Hahn factorial  phidot_n(x) = prod_{k<n} (x - [k]_q * omega)

Each family admits a product, a recursion, and an explicit-sum construction;
all three are implemented and must agree coefficientwise.  Each of the five
polynomial bases is a product of linear factors, so a ``Basis`` record is
its k-th factor, and a row of its elements grows one factor at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .context import QContext
from .poly import VAR_U, VAR_X, Poly
from .qarith import q_binomial, q_factorial, q_int, q_pochhammer


def _check_n(n: int) -> int:
    if n < 0:
        raise ValueError(f"family index must be >= 0, got {n}")
    return n


def qgaussian(ctx: QContext, n: int, method: str = "product") -> Poly:
    """phi_n(x), by 'product', 'recursion', or 'explicit_sum'."""
    _check_n(n)
    if method == "product":
        return Basis.QGAUSSIAN.elements(ctx, n + 1)[n]
    if method == "recursion":
        # phi_{m+1} = (x - q^m) phi_m
        p = Poly.one()
        for m in range(n):
            p = Poly([0, 1]) * p - ctx.q_pow(m) * p
        return p
    if method == "explicit_sum":
        coeffs = [Fraction(0)] * (n + 1)
        for k in range(n + 1):
            sign = -1 if k % 2 else 1
            coeffs[n - k] = (q_binomial(ctx, n, k)
                             * ctx.q_pow(k * (k - 1) // 2) * sign)
        return Poly(coeffs)
    raise ValueError(f"unknown construction method {method!r}")


def qfactorial_pochhammer_value(ctx: QContext, n: int, x: int) -> Fraction:
    """phihat_n at integer x via the (q^-x; q)_n product identity.

    Independent of Basis.QFACTORIAL: evaluates
    (-1)^n q^(n x - n(n-1)/2) (q^-x; q)_n / (1-q)^n directly.
    """
    _check_n(n)
    q = ctx.q
    sign = -1 if n % 2 else 1
    return (sign * q ** (n * x - n * (n - 1) // 2)
            * q_pochhammer(ctx, q ** (-x), n) / (1 - q) ** n)


def hahn_factorial(ctx: QContext, n: int, method: str = "product") -> Poly:
    """phidot_n(x), by 'product', 'recursion', or 'explicit_sum'."""
    _check_n(n)
    if method == "product":
        return Basis.HAHN_FACTORIAL.elements(ctx, n + 1)[n]
    if method == "recursion":
        # phidot_{m+1} = (x - omega [m]_q) phidot_m
        p = Poly.one()
        for m in range(n):
            p = Poly([0, 1]) * p - ctx.omega * q_int(ctx, m) * p
        return p
    if method == "explicit_sum":
        # sum over k of [n,k]_q q^(k(k-1)/2) omega0^k (x - omega0)^(n-k)
        omega0 = ctx.omega0
        p = Poly.zero()
        shifted = Poly([-omega0, 1])  # x - omega0
        powers = [Poly.one()]
        for _ in range(n):
            powers.append(powers[-1] * shifted)
        for k in range(n + 1):
            p = p + (q_binomial(ctx, n, k) * ctx.q_pow(k * (k - 1) // 2)
                     * omega0 ** k) * powers[n - k]
        return p
    raise ValueError(f"unknown construction method {method!r}")


def _invert(ctx: QContext, coeffs, c) -> list:
    """Re-expand sum_n a_n y^n through y^n = sum_k [n,k]_q c^(n-k) basis_k.

    With c = 1 this is x^n = sum_k [n,k]_q phi_k(x); with c = -omega0 it is
    (x - omega0)^n = sum_k [n,k]_q (-omega0)^(n-k) phidot_k(x).
    """
    out = [Fraction(0)] * len(coeffs)
    for n, a in enumerate(coeffs):
        if a == 0:
            continue
        for k in range(n + 1):
            out[k] += a * q_binomial(ctx, n, k) * c ** (n - k)
    return out


@dataclass(frozen=True)
class Basis:
    """A basis of products of linear factors, and the expansion into it.

    ``name`` labels record ids; element n is the product over k < n of the
    factors a + b var, where ``factor(ctx, k)`` gives (a, b); ``expand(ctx,
    p)`` lists the coefficients of an x-polynomial in the basis, and is None
    for the q-factorial basis, which lives in u = q^x.
    """

    name: str
    var: str
    factor: Callable[[QContext, int], tuple]
    expand: Callable[[QContext, Poly], list] | None

    def elements(self, ctx: QContext, count: int) -> list[Poly]:
        """Elements 0..count-1, each the previous one times one factor."""
        if count < 0:
            raise ValueError(f"element count must be >= 0, got {count}")
        out = [Poly.one(self.var)][:count]
        for k in range(count - 1):
            a, b = self.factor(ctx, k)
            c = out[-1].coeffs
            out.append(Poly([a * x + b * y for x, y in zip(c + (0,), (0,) + c)],
                            self.var))
        return out

    def element(self, ctx: QContext, n: int) -> Poly:
        """Element n alone; a caller walking n reads one row of elements."""
        return self.elements(ctx, _check_n(n) + 1)[n]


# The factors look up q_int and ctx.q_pow at call time, so a rebinding of
# those names (bench/tracer.py does this) also reaches these calls.
Basis.MONOMIAL = Basis("monomial", VAR_X, lambda ctx, k: (0, 1),
                       lambda ctx, p: list(p.coeffs))
Basis.SHIFTED_MONOMIAL = Basis("shifted_monomial", VAR_X,
                               lambda ctx, k: (-ctx.omega0, 1),
                               lambda ctx, p: list(p.shift(ctx.omega0).coeffs))
Basis.QGAUSSIAN = Basis("qgaussian", VAR_X, lambda ctx, k: (-ctx.q_pow(k), 1),
                        lambda ctx, p: _invert(ctx, p.coeffs, 1))
# [x-k]_q = (1 - q^-k u)/(1-q) in u = q^x
Basis.QFACTORIAL = Basis(
    "qfactorial", VAR_U,
    lambda ctx, k: (1 / (1 - ctx.q), -ctx.q_pow(-k) / (1 - ctx.q)), None)
Basis.HAHN_FACTORIAL = Basis(
    "hahn_factorial", VAR_X, lambda ctx, k: (-q_int(ctx, k) * ctx.omega, 1),
    lambda ctx, p: _invert(ctx, p.shift(ctx.omega0).coeffs, -ctx.omega0))


def vector_to_poly(ctx: QContext, basis: Basis, coeffs) -> Poly:
    """The polynomial with the given coefficients in the basis."""
    p = Poly.zero(basis.var)
    for c, element in zip(coeffs, basis.elements(ctx, len(coeffs))):
        if c != 0:
            p = p + c * element
    return p


def expand_in_basis(ctx: QContext, p: Poly, basis: Basis) -> list:
    """The exact coefficients of the x-polynomial p in the basis."""
    if p.var != VAR_X:
        raise ValueError("basis expansion is defined for polynomials in x")
    if basis.expand is None:
        raise ValueError(f"cannot expand an x-polynomial in basis {basis.name!r}")
    return basis.expand(ctx, p)


def connect_hahn_gaussian(ctx: QContext, n: int) -> Poly:
    """phidot_n built from the q-Gaussian side of the connection formula.

    Computes (-1)^n omega0^n phi_n(1 - x/omega0); requires omega0 != 0.
    """
    _check_n(n)
    omega0 = ctx.omega0
    if omega0 == 0:
        raise ValueError("connection formula is degenerate at omega0 = 0")
    phi = qgaussian(ctx, n)
    mapped = phi.compose_affine(-1 / omega0, 1)
    sign = -1 if n % 2 else 1
    return (sign * omega0 ** n) * mapped


def qgaussian_via_qexp_operator(ctx: QContext, n: int) -> Poly:
    """phi_n as the terminating operator series E^(1/2)(-q^(-1/2) D_q) x^n.

    The k-th term carries q^(k^2/2) (-q^(-1/2))^k / [k]_q! times the k-fold
    Jackson derivative of x^n; the q-exponents combine to the integer power
    q^(k(k-1)/2), and the series stops at k = n.
    """
    _check_n(n)
    out = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        falling = Fraction(1)
        for j in range(k):
            falling *= q_int(ctx, n - j)
        sign = -1 if k % 2 else 1
        coeff = (sign * ctx.q_pow(k * (k - 1) // 2) / q_factorial(ctx, k)
                 * falling)
        out[n - k] += coeff
    return Poly(out)


def position_coefficients(ctx: QContext, nmax: int) -> list[Poly]:
    """Coefficient polynomials c_0..c_nmax of the position-operator eigenvector.

    Three-term recursion: x c_n = [n+1]_q c_{n+1} + q^(1-n) c_{n-1}, c_0 = 1.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    cs = [Poly.one()]
    prev = Poly.zero()
    for n in range(nmax):
        nxt = (Poly([0, 1]) * cs[-1] - ctx.q_pow(1 - n) * prev) / q_int(ctx, n + 1)
        prev = cs[-1]
        cs.append(nxt)
    return cs
