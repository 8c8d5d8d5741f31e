"""The three polynomial families, basis conversions, and related expansions.

Families:
  * q-Gaussian      phi_n(x)    = prod_{k<n} (x - q^k)
  * q-factorial     phihat_n    = prod_{k<n} [x-k]_q, a polynomial in u = q^x
  * Hahn factorial  phidot_n(x) = prod_{k<n} (x - [k]_q * omega)

Each family admits a product, a recursion, and an explicit-sum construction;
all three are implemented and must agree coefficientwise.  Each of the five
polynomial bases is a product of linear factors, so a ``Basis`` record is
its k-th factor: a row of its elements grows one factor at a time, and
expanding into it divides by the factors in turn.
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
            coeffs[n - k] = ((-1) ** k * q_binomial(ctx, n, k)
                             * ctx.q_pow(k * (k - 1) // 2))
        return Poly(coeffs)
    raise ValueError(f"unknown construction method {method!r}")


def qfactorial_pochhammer_value(ctx: QContext, n: int, x: int) -> Fraction:
    """phihat_n at integer x via the (q^-x; q)_n product identity.

    Independent of Basis.QFACTORIAL: evaluates
    (-1)^n q^(n x - n(n-1)/2) (q^-x; q)_n / (1-q)^n directly.
    """
    _check_n(n)
    q = ctx.q
    return ((-1) ** n * q ** (n * x - n * (n - 1) // 2)
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


@dataclass(frozen=True)
class Basis:
    """A basis of products of linear factors.

    ``name`` labels record ids; element n is the product over k < n of the
    factors a + b var, where ``factor(ctx, k)`` gives (a, b).
    """

    name: str
    var: str
    factor: Callable[[QContext, int], tuple]

    def elements(self, ctx: QContext, count: int) -> list[Poly]:
        """Elements 0..count-1, each the previous one times one factor."""
        if count < 0:
            raise ValueError(f"element count must be >= 0, got {count}")
        out = [Poly.one(self.var)][:count]
        for k in range(count - 1):
            out.append(out[-1] * Poly(self.factor(ctx, k), self.var))
        return out

    def element(self, ctx: QContext, n: int) -> Poly:
        """Element n alone; a caller walking n reads one row of elements."""
        return self.elements(ctx, _check_n(n) + 1)[n]


# The factors look up q_int and ctx.q_pow at call time, so a rebinding of
# those names (bench/tracer.py does this) also reaches these calls.
Basis.MONOMIAL = Basis("monomial", VAR_X, lambda ctx, k: (0, 1))
Basis.SHIFTED_MONOMIAL = Basis("shifted_monomial", VAR_X,
                               lambda ctx, k: (-ctx.omega0, 1))
Basis.QGAUSSIAN = Basis("qgaussian", VAR_X, lambda ctx, k: (-ctx.q_pow(k), 1))
# [x-k]_q = (1 - q^-k u)/(1-q) in u = q^x
Basis.QFACTORIAL = Basis(
    "qfactorial", VAR_U,
    lambda ctx, k: (1 / (1 - ctx.q), -ctx.q_pow(-k) / (1 - ctx.q)))
Basis.HAHN_FACTORIAL = Basis(
    "hahn_factorial", VAR_X, lambda ctx, k: (-q_int(ctx, k) * ctx.omega, 1))


def vector_to_poly(ctx: QContext, basis: Basis, coeffs) -> Poly:
    """The polynomial with the given coefficients in the basis.

    The expansion read backwards: c_0 + f_0 (c_1 + f_1 (...)) from the
    inside out, one factor at a time."""
    p = Poly.zero(basis.var)
    for k in reversed(range(len(coeffs))):
        p = p * Poly(basis.factor(ctx, k), basis.var) + coeffs[k]
    return p


def expand_in_basis(ctx: QContext, p: Poly, basis: Basis) -> list:
    """The exact coefficients c_0..c_deg of p in the basis.

    With f_k the k-th factor, p = c_0 + f_0 (c_1 + f_1 (c_2 + ...)), so each
    division by the next factor leaves the next coefficient as remainder;
    ``vector_to_poly`` reads the same formula backwards.
    """
    if p.var != basis.var:
        raise ValueError(f"cannot expand a polynomial in {p.var} in basis "
                         f"{basis.name!r}, which is in {basis.var}")
    out = []
    for k in range(p.degree + 1):
        p, c = p.divmod_linear(*basis.factor(ctx, k))
        out.append(c)
    return out


def connect_hahn_gaussian(ctx: QContext, n: int) -> Poly:
    """phidot_n built from the q-Gaussian side of the connection formula.

    Computes (-1)^n omega0^n phi_n(1 - x/omega0); requires omega0 != 0.
    """
    omega0 = ctx.omega0
    if omega0 == 0:
        raise ValueError("connection formula is degenerate at omega0 = 0")
    return (-omega0) ** n * qgaussian(ctx, n).compose_affine(-1 / omega0, 1)


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
        out[n - k] += ((-1) ** k * ctx.q_pow(k * (k - 1) // 2)
                       / q_factorial(ctx, k) * falling)
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
