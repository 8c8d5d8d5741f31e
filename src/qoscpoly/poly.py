"""Dense univariate polynomials over exact rationals.

A polynomial is stored as FLINT's ``fmpq_poly`` stores it: integer
numerators ``nums`` (ascending) over one positive denominator ``den``.  The
form is normal: no trailing zero numerator, ``gcd(content(nums), den) = 1``,
and the zero polynomial is ``((), 1)``.  It is unique, so ``==`` and
``hash`` read it directly, and a constant equals and hashes as its value.
Every operation works on integers and normalises its result once, through
``Poly.over``, the one normaliser; the Fraction coefficients ``coeffs`` are
built when read.

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
from itertools import zip_longest
from math import gcd, lcm
from numbers import Rational

from .context import frac

VAR_X = "x"
VAR_U = "u"
VAR_T = "t"


class Poly:
    """Immutable dense polynomial: integer numerators over one denominator."""

    __slots__ = ("nums", "den", "var")

    def __init__(self, coeffs, var: str = VAR_X):
        coeffs = [frac(c) for c in coeffs]
        den = 1
        for c in coeffs:
            den = lcm(den, c.denominator)
        # over the lcm of reduced denominators the content is already
        # coprime to den: each prime of den divides some c's denominator
        # to its full power, so it does not divide that c's numerator
        nums = [c.numerator * (den // c.denominator) for c in coeffs]
        while nums and not nums[-1]:
            nums.pop()
        self.nums, self.den, self.var = tuple(nums), den, var

    @classmethod
    def over(cls, nums: list, den: int, var: str = VAR_X) -> "Poly":
        """The polynomial nums/den, integer numerators over a nonzero
        denominator of any sign, brought to the normal form.

        The one normaliser: every operation builds its integer result and
        ends here.  The list nums is divided in place.
        """
        while nums and not nums[-1]:
            nums.pop()
        # pairwise, stopping at 1: a gcd over all of nums at once would
        # build an argument tuple per call
        g = abs(den)
        for n in nums:
            if g == 1:
                break
            g = gcd(g, n)
        if den < 0:
            g = -g
        if g != 1:
            for k in range(len(nums)):
                nums[k] //= g
            den //= g
        p = object.__new__(cls)
        p.nums, p.den, p.var = tuple(nums), den, var
        return p

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
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, ascending, built on each read."""
        den = self.den
        return tuple([Fraction(n, den) for n in self.nums])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reporting -1."""
        return len(self.nums) - 1

    def is_zero(self) -> bool:
        return not self.nums

    def coeff(self, n: int) -> Fraction:
        if 0 <= n < len(self.nums):
            return Fraction(self.nums[n], self.den)
        return Fraction(0)

    def _check_var(self, other: "Poly"):
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var} vs {other.var}")

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other, self.var)
        self._check_var(other)
        # both sides over the lcm of the denominators
        g = gcd(self.den, other.den)
        sa, so = other.den // g, self.den // g
        return Poly.over([a * sa + b * so for a, b in
                          zip_longest(self.nums, other.nums, fillvalue=0)],
                         self.den * sa, self.var)

    __radd__ = __add__

    def __neg__(self):
        return Poly.over([-n for n in self.nums], self.den, self.var)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other, self.var)
        return self + (-other)

    def __rsub__(self, other):
        return Poly.const(other, self.var) - self

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = frac(other)
            return Poly.over([n * c.numerator for n in self.nums],
                             self.den * c.denominator, self.var)
        return self.mul_trunc(other, len(self.nums) + len(other.nums) - 2)

    __rmul__ = __mul__

    def mul_trunc(self, other: "Poly", order: int) -> "Poly":
        """The product with only its terms of degree <= order formed."""
        self._check_var(other)
        a, b = self.nums, other.nums
        out = [sum(a[k] * b[i - k]
                   for k in range(max(0, i - len(b) + 1), min(i, len(a) - 1) + 1))
               for i in range(min(order, len(a) + len(b) - 2) + 1)]
        return Poly.over(out, self.den * other.den, self.var)

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
            return (self.nums == other.nums and self.den == other.den
                    and self.var == other.var)
        if isinstance(other, Rational):
            if len(self.nums) > 1:
                return False
            n = self.nums[0] if self.nums else 0
            return n * other.denominator == other.numerator * self.den
        return NotImplemented

    def __hash__(self):
        # a constant equals its value, so it hashes as that value
        if len(self.nums) <= 1:
            return hash(self.coeff(0))
        return hash((self.nums, self.den, self.var))

    def __call__(self, value) -> Fraction:
        """p(value) by Horner's rule on the numerators, one Fraction at the end."""
        v = frac(value)
        vn, vd = v.numerator, v.denominator
        # acc collects sum nums[k] vn^k vd^(deg - k) from the top term down
        acc, scale = 0, 1
        for n in reversed(self.nums):
            acc = acc * vn + n * scale
            scale *= vd
        # scale ends one factor of vd past vd^deg
        return Fraction(acc * vd, self.den * scale)

    def compose_affine(self, a, b) -> "Poly":
        """p(a*var + b), expanded exactly.

        Dividing p by var - b leaves p = c_0 + (var - b) p_1, so the
        successive remainders c_0, c_1, ... of ``divmod_linear`` are the
        coefficients of p in powers of var - b, and scaling var by a in
        them gives p(a*var + b).
        """
        rest, shifted, b = self, [], frac(b)
        for _ in self.nums:
            rest, rem = rest.divmod_linear(-b, 1)
            shifted.append(rem)
        return Poly(shifted, self.var).scale_arg(a)

    def scale_arg(self, a) -> "Poly":
        """p(a*var): nums[k] times a_num^k a_den^(deg - k) over den a_den^deg."""
        a = frac(a)
        out = list(self.nums)
        power = 1
        for k in range(1, len(out)):
            power *= a.numerator
            out[k] *= power
        power = 1
        for k in range(len(out) - 2, -1, -1):
            power *= a.denominator
            out[k] *= power
        return Poly.over(out, self.den * power, self.var)

    def divmod_linear(self, a, b) -> tuple["Poly", Fraction]:
        """(quotient, remainder) of the division by a + b var, b nonzero.

        Synthetic division from the top coefficient down, kept in integers.
        With A = a_num b_den and B = b_num a_den, the carries
        t_j = nums[deg - j] B^j - A t_(j-1) divide nums by A + B var: the
        quotient's coefficient k is t_(deg-1-k) B^k / B^deg and the
        remainder t_deg / B^deg.  Since a + b var = (A + B var)/(a_den b_den),
        p's quotient is that quotient times a_den b_den / den, and its
        remainder, p(-a/b), is that remainder over den.
        """
        a, b = frac(a), frac(b)
        if b == 0:
            raise ZeroDivisionError("division by a + b var needs b != 0")
        big_a = a.numerator * b.denominator
        big_b = b.numerator * a.denominator
        carries, carry, power = [], 0, 1
        for n in reversed(self.nums):
            carry = n * power - big_a * carry
            carries.append(carry)
            power *= big_b
        if not carries:
            return Poly.zero(self.var), Fraction(0)
        power //= big_b  # B^deg
        rem = Fraction(carries.pop(), self.den * power)
        carries.reverse()
        scale = a.denominator * b.denominator
        for k in range(len(carries)):
            carries[k] *= scale
            scale *= big_b
        return Poly.over(carries, self.den * power, self.var), rem

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
