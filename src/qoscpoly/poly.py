"""Dense univariate polynomials over exact rationals.

The variable is ``x`` (the default), ``u`` or ``t``.  ``u`` marks
polynomials in u = q^x, where the q-factorial family lives; ``t`` marks the
truncated power series of the generating functions, whose products
``mul_trunc`` cuts at a given order.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .context import frac

VAR_X = "x"
VAR_U = "u"
VAR_T = "t"


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class Poly:
    """Immutable dense polynomial with Fraction coefficients (ascending)."""

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs, var: str = VAR_X):
        self.coeffs = _trim(frac(c) for c in coeffs)
        self.var = var

    @classmethod
    def zero(cls, var: str = VAR_X) -> "Poly":
        return cls((), var)

    @classmethod
    def one(cls, var: str = VAR_X) -> "Poly":
        return cls((1,), var)

    @classmethod
    def const(cls, c, var: str = VAR_X) -> "Poly":
        return cls((c,), var)

    @classmethod
    def monomial(cls, n: int, c=1, var: str = VAR_X) -> "Poly":
        if n < 0:
            raise ValueError(f"monomial degree must be >= 0, got {n}")
        return cls([0] * n + [c], var)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reporting -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, n: int) -> Fraction:
        return self.coeffs[n] if 0 <= n < len(self.coeffs) else Fraction(0)

    def _check_var(self, other: "Poly"):
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var} vs {other.var}")

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other, self.var)
        self._check_var(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly((self.coeff(i) + other.coeff(i) for i in range(n)), self.var)

    __radd__ = __add__

    def __neg__(self):
        return Poly((-c for c in self.coeffs), self.var)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other, self.var)
        return self + (-other)

    def __rsub__(self, other):
        return Poly.const(other, self.var) - self

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = frac(other)
            return Poly((c * a for a in self.coeffs), self.var)
        self._check_var(other)
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.var)
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out, self.var)

    __rmul__ = __mul__

    def mul_trunc(self, other: "Poly", order: int) -> "Poly":
        """The product with only its terms of degree <= order formed."""
        self._check_var(other)
        a, b = self.coeffs, other.coeffs
        out = []
        for i in range(min(order, len(a) + len(b) - 2) + 1):
            acc = Fraction(0)
            for k in range(max(0, i - len(b) + 1), min(i, len(a) - 1) + 1):
                acc += a[k] * b[i - k]
            out.append(acc)
        return Poly(out, self.var)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial powers are undefined")
        out = Poly.one(self.var)
        for _ in range(n):
            out = out * self
        return out

    def __truediv__(self, scalar):
        return self * (1 / frac(scalar))

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs and self.var == other.var
        return self.coeffs == _trim([frac(other)])

    def __hash__(self):
        return hash((self.coeffs, self.var))

    def __call__(self, value) -> Fraction:
        out = Fraction(0)
        v = frac(value)
        for c in reversed(self.coeffs):
            out = out * v + c
        return out

    def compose_affine(self, a, b) -> "Poly":
        """p(a*var + b), expanded exactly."""
        a, b = frac(a), frac(b)
        out = [Fraction(0)] * (len(self.coeffs) or 1)
        for n, c in enumerate(self.coeffs):
            if c == 0:
                continue
            # (a v + b)^n term by binomial expansion
            for k in range(n + 1):
                out[k] += c * comb(n, k) * a ** k * b ** (n - k)
        return Poly(out, self.var)

    def shift(self, h) -> "Poly":
        """p(var + h)."""
        return self.compose_affine(1, h)

    def scale_arg(self, a) -> "Poly":
        """p(a*var)."""
        a = frac(a)
        return Poly((c * a ** n for n, c in enumerate(self.coeffs)), self.var)

    def divexact(self, divisor: "Poly") -> "Poly":
        """Exact polynomial division; raises if the remainder is nonzero."""
        self._check_var(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        d = list(divisor.coeffs)
        if len(rem) < len(d):
            if any(rem):
                raise ValueError("inexact polynomial division")
            return Poly.zero(self.var)
        qlen = len(rem) - len(d) + 1
        quot = [Fraction(0)] * qlen
        lead = d[-1]
        for i in range(qlen - 1, -1, -1):
            quot[i] = rem[i + len(d) - 1] / lead
            if quot[i] == 0:
                continue
            for j, dc in enumerate(d):
                rem[i + j] -= quot[i] * dc
        if any(rem):
            raise ValueError("inexact polynomial division")
        return Poly(quot, self.var)

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for n, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if n == 0:
                terms.append(str(c))
            elif n == 1:
                terms.append(f"{c}*{self.var}")
            else:
                terms.append(f"{c}*{self.var}^{n}")
        return "Poly(" + " + ".join(terms) + ")"
