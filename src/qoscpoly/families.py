"""The three polynomial families, basis conversions, and related expansions.

Families:
  * q-Gaussian      phi_n(x)    = prod_{k<n} (x - q^k)
  * q-factorial     phihat_n    = prod_{k<n} [x-k]_q, a polynomial in u = q^x
  * Hahn factorial  phidot_n(x) = prod_{k<n} (x - [k]_q * omega)

Each family admits a product, a recursion, and an explicit-sum construction;
all three are implemented and must agree coefficientwise.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .context import QContext, frac
from .poly import VAR_U, VAR_X, Poly
from .qarith import q_binomial, q_factorial, q_int, q_pochhammer


class Basis(enum.Enum):
    MONOMIAL = "monomial"
    SHIFTED_MONOMIAL = "shifted_monomial"  # powers of (x - omega0)
    QGAUSSIAN = "qgaussian"
    QFACTORIAL = "qfactorial"
    HAHN_FACTORIAL = "hahn_factorial"


@dataclass(frozen=True)
class FamilyVector:
    """Finite coefficient vector relative to a named polynomial basis."""

    basis: Basis
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(frac(c) for c in self.coeffs))

    def coeff(self, n: int) -> Fraction:
        return self.coeffs[n] if 0 <= n < len(self.coeffs) else Fraction(0)

    def trimmed(self) -> "FamilyVector":
        coeffs = list(self.coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return FamilyVector(self.basis, coeffs)


def _check_n(n: int):
    if n < 0:
        raise ValueError(f"family index must be >= 0, got {n}")


def qgaussian(ctx: QContext, n: int, method: str = "product") -> Poly:
    """phi_n(x), by 'product', 'recursion', or 'explicit_sum'."""
    _check_n(n)
    if method == "product":
        p = Poly.one()
        node = Fraction(1)
        for _ in range(n):
            p = p * Poly([-node, 1])
            node *= ctx.q
        return p
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


def qfactorial_u(ctx: QContext, n: int) -> Poly:
    """phihat_n as a polynomial in u = q^x, via [x-k]_q = (1 - q^-k u)/(1-q)."""
    _check_n(n)
    q = ctx.q
    p = Poly.one(VAR_U)
    for k in range(n):
        p = p * (Poly([1, -(q ** -k)], VAR_U) / (1 - q))
    return p


def qfactorial_pochhammer_value(ctx: QContext, n: int, x: int) -> Fraction:
    """phihat_n at integer x via the (q^-x; q)_n product identity.

    Independent of qfactorial_u: evaluates
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
    omega = ctx.omega
    if method == "product":
        p = Poly.one()
        for k in range(n):
            p = p * Poly([-q_int(ctx, k) * omega, 1])
        return p
    if method == "recursion":
        # phidot_{m+1} = (x - omega [m]_q) phidot_m
        p = Poly.one()
        for m in range(n):
            p = Poly([0, 1]) * p - omega * q_int(ctx, m) * p
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


def family_basis_poly(ctx: QContext, basis: Basis, n: int) -> Poly:
    """The n-th basis polynomial for any of the supported bases."""
    _check_n(n)
    if basis is Basis.MONOMIAL:
        return Poly.monomial(n)
    if basis is Basis.SHIFTED_MONOMIAL:
        p = Poly.one()
        for _ in range(n):
            p = p * Poly([-ctx.omega0, 1])
        return p
    if basis is Basis.QGAUSSIAN:
        return qgaussian(ctx, n)
    if basis is Basis.QFACTORIAL:
        return qfactorial_u(ctx, n)
    if basis is Basis.HAHN_FACTORIAL:
        return hahn_factorial(ctx, n)
    raise ValueError(f"unknown basis {basis!r}")


def vector_to_poly(ctx: QContext, v: FamilyVector) -> Poly:
    """Reconstruct the polynomial a FamilyVector represents."""
    var = VAR_U if v.basis is Basis.QFACTORIAL else VAR_X
    p = Poly.zero(var)
    for n, c in enumerate(v.coeffs):
        if c != 0:
            p = p + c * family_basis_poly(ctx, v.basis, n)
    return p


def expand_in_basis(ctx: QContext, p: Poly, basis: Basis) -> FamilyVector:
    """Exact expansion of p in the target basis.

    Monomials expand into the q-Gaussian basis through the inversion
    formula x^n = sum_k [n,k]_q phi_k(x); shifted monomials expand into
    the Hahn factorial basis through
    (x-omega0)^n = sum_k [n,k]_q (-omega0)^(n-k) phidot_k(x).
    """
    if p.var != VAR_X:
        raise ValueError("basis expansion is defined for polynomials in x")
    if basis is Basis.MONOMIAL:
        return FamilyVector(basis, p.coeffs or (0,))
    if basis is Basis.SHIFTED_MONOMIAL:
        return FamilyVector(basis, p.shift(ctx.omega0).coeffs or (0,))
    if basis is Basis.QGAUSSIAN:
        out = [Fraction(0)] * (len(p.coeffs) or 1)
        for n, a in enumerate(p.coeffs):
            if a == 0:
                continue
            for k in range(n + 1):
                out[k] += a * q_binomial(ctx, n, k)
        return FamilyVector(basis, out)
    if basis is Basis.HAHN_FACTORIAL:
        shifted = p.shift(ctx.omega0).coeffs  # coefficients of (x-omega0)^n
        out = [Fraction(0)] * (len(shifted) or 1)
        omega0 = ctx.omega0
        for n, a in enumerate(shifted):
            if a == 0:
                continue
            for k in range(n + 1):
                out[k] += (a * q_binomial(ctx, n, k)
                           * (-omega0) ** (n - k))
        return FamilyVector(basis, out)
    raise ValueError(f"cannot expand an x-polynomial in basis {basis!r}")


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
