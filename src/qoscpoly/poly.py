"""Dense univariate polynomials over exact rationals.

The variable is ``x`` (the default), ``u`` or ``t``.  ``u`` marks
polynomials in u = q^x, where the q-factorial family lives; ``t`` marks the
truncated power series of the generating functions, whose products
``mul_trunc`` cuts at a given order; a full product is ``mul_trunc`` at the
sum of the degrees.  Division by a linear factor, ``divmod_linear``, is the
one division, and substitution of a*var + b is division too: the
remainders by var - b are the coefficients in powers of var - b.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational

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
        return self.mul_trunc(other, len(self.coeffs) + len(other.coeffs) - 2)

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
        if isinstance(other, Rational):
            return self.coeffs == _trim([other])
        return NotImplemented

    def __hash__(self):
        # a constant equals its value, so it hashes as that value
        if self.degree <= 0:
            return hash(self.coeff(0))
        return hash((self.coeffs, self.var))

    def __call__(self, value) -> Fraction:
        out = Fraction(0)
        v = frac(value)
        if v == 1:
            # Horner's multiplications by 1 would each build a Fraction
            return sum(self.coeffs, out)
        for c in reversed(self.coeffs):
            out = out * v + c
        return out

    def compose_affine(self, a, b) -> "Poly":
        """p(a*var + b), expanded exactly.

        Dividing p by var - b leaves p = c_0 + (var - b) p_1, so the
        successive remainders c_0, c_1, ... of ``divmod_linear`` are the
        coefficients of p in powers of var - b, and scaling var by a in
        them gives p(a*var + b).
        """
        rest, shifted, b = self, [], frac(b)
        for _ in self.coeffs:
            rest, rem = rest.divmod_linear(-b, 1)
            shifted.append(rem)
        return Poly(shifted, self.var).scale_arg(a)

    def scale_arg(self, a) -> "Poly":
        """p(a*var)."""
        a = frac(a)
        return Poly((c * a ** n for n, c in enumerate(self.coeffs)), self.var)

    def divmod_linear(self, a, b) -> tuple["Poly", Fraction]:
        """(quotient, remainder) of the division by a + b var, b nonzero.

        Synthetic division from the top coefficient down; the remainder is
        p(-a/b).
        """
        a, b = frac(a), frac(b)
        if b == 0:
            raise ZeroDivisionError("division by a + b var needs b != 0")
        quot = []
        carry = Fraction(0)
        for c in reversed(self.coeffs[1:]):
            carry = (c - a * carry) / b
            quot.append(carry)
        return Poly(reversed(quot), self.var), self.coeff(0) - a * carry

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
