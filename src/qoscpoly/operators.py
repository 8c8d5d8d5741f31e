"""Difference/scaling operators and the ladder families.

A ``Family`` record holds the few constants that tell the three ladder
families apart; one formula then gives every family's coefficients and
eigen-relations.  Every ladder pair is realized twice: as a banded action
on family-basis coefficient vectors (the printed lowering/raising
coefficients) and as an analytic operator acting exactly on polynomial
coefficients.  The two realizations agreeing on basis elements is one of
the core checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .context import QContext
from .families import Basis, qgaussian
from .hahn import hahn_derivative_poly
from .poly import VAR_U, VAR_X, Poly
from .qarith import q_int, q_int_at


def jackson_derivative(ctx: QContext, p: Poly) -> Poly:
    """D_q p: monomial action x^n -> [n]_q x^(n-1)."""
    if p.var != VAR_X:
        raise ValueError("Jackson derivative acts on polynomials in x")
    return Poly((q_int(ctx, n) * p.coeff(n) for n in range(1, p.degree + 1)))


# the analytic operators without a public name; see ladder_apply_analytic
def _qgaussian_raise(ctx: QContext, p: Poly) -> Poly:
    return Poly([-1, 1]) * p.scale_arg(1 / ctx.q)


def _qfactorial_lower(ctx: QContext, p: Poly) -> Poly:
    # (g(qu) - g(u)) / (q u); the numerator always vanishes at u = 0
    quot, rem = (p.scale_arg(ctx.q) - p).divmod_linear(0, ctx.q)
    if rem != 0:
        raise AssertionError("lowering numerator not divisible by u")
    return quot


def _qfactorial_raise(ctx: QContext, p: Poly) -> Poly:
    return (Poly([1, -1], VAR_U) / (1 - ctx.q)) * p.scale_arg(1 / ctx.q)


def _hahn_raise(ctx: QContext, p: Poly) -> Poly:
    return Poly([0, 1]) * p.compose_affine(1 / ctx.q, -ctx.omega / ctx.q)


def _one(ctx: QContext) -> Fraction:
    return Fraction(1)


@dataclass(frozen=True)
class Family:
    """What distinguishes one ladder family; everything else is shared.

    ``name`` labels record ids and table rows; ``lower`` and ``raise_`` are
    the analytic operators (ctx, poly) -> poly.  ``e`` says which ladder
    operator carries the q^-n factor: the lowering coefficient is
    q^(-e n) [n]_q and the raising one q^(-(1-e) n).  ``sigma`` scales the
    ladder argument of the exponential series and ``kappa`` the argument of
    the closed-form U-polynomial.
    """

    name: str
    basis: Basis
    lower: Callable[[QContext, Poly], Poly]
    raise_: Callable[[QContext, Poly], Poly]
    e: int
    sigma: Callable[[QContext], Fraction]
    kappa: Callable[[QContext], Fraction]


# Public operators are looked up by name at call time, so a rebinding of the
# module name (bench/tracer.py does this) also reaches calls through a record.
QGAUSSIAN = Family("qgaussian", Basis.QGAUSSIAN,
                   lambda ctx, p: jackson_derivative(ctx, p), _qgaussian_raise,
                   e=0, sigma=_one, kappa=_one)
QFACTORIAL = Family("qfactorial", Basis.QFACTORIAL, _qfactorial_lower,
                    _qfactorial_raise, e=1, sigma=_one, kappa=_one)
# (1 - q - w)/(1 - q) = 1 - omega0 rides on each ladder power; kappa is the
# printed (1 + omega0)^2, see the README's documented discrepancies
HAHN = Family("hahn", Basis.HAHN_FACTORIAL,
              lambda ctx, p: hahn_derivative_poly(ctx, p), _hahn_raise,
              e=0, sigma=lambda ctx: 1 - ctx.omega0,
              kappa=lambda ctx: (1 + ctx.omega0) ** 2)
FAMILIES = (QGAUSSIAN, QFACTORIAL, HAHN)


def lowering_coeff(ctx: QContext, family: Family, n: int) -> Fraction:
    """c = q^(-e n) [n]_q with  a . basis_n = c * basis_{n-1}; [0]_q = 0."""
    return ctx.q_pow(-family.e * n) * q_int(ctx, n)


def raising_coeff(ctx: QContext, family: Family, n: int) -> Fraction:
    """c = q^((e - 1) n) with  a^dag . basis_n = c * basis_{n+1}."""
    return ctx.q_pow((family.e - 1) * n)


def ladder_apply(ctx: QContext, family: Family, direction: str, coeffs) -> list:
    """Banded ladder action on coefficients in the family basis."""
    if direction == "lower":
        return [lowering_coeff(ctx, family, k) * coeffs[k]
                for k in range(1, len(coeffs))]
    if direction == "raise":
        return [Fraction(0)] + [raising_coeff(ctx, family, k) * c
                                for k, c in enumerate(coeffs)]
    raise ValueError(f"direction must be 'lower' or 'raise', got {direction!r}")


def ladder_apply_analytic(ctx: QContext, family: Family, direction: str,
                          p: Poly) -> Poly:
    """Analytic operator realization applied exactly on coefficients.

    q-Gaussian: a = D_q, a^dag : p -> (x-1) p(x/q).
    q-factorial (in u = q^x): a : g -> (g(qu) - g(u))/(q u),
                              a^dag : g -> (1-u)/(1-q) * g(u/q).
    Hahn: a = D_{q,w}, a^dag : p -> x * p((x-w)/q).
    """
    if p.var != family.basis.var:
        raise ValueError(f"{family.name} operators act on polynomials in "
                         f"{family.basis.var}")
    if direction == "lower":
        return family.lower(ctx, p)
    if direction == "raise":
        return family.raise_(ctx, p)
    raise ValueError(f"direction must be 'lower' or 'raise', got {direction!r}")


def difference_equation_residual(ctx: QContext, n: int) -> Poly:
    """Residual of ((x-1) q^{-x d/dx} D_q - [n]_{1/q}) applied to phi_n.

    The zero polynomial for every n.
    """
    phi = qgaussian(ctx, n)
    lhs = Poly([-1, 1]) * jackson_derivative(ctx, phi).scale_arg(1 / ctx.q)
    # the eigenvalue [n]_(1/q) is 0 at n = 0, so no branch is needed
    return lhs - q_int_at(1 / ctx.q, n) * phi
