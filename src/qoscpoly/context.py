"""Deformation-parameter context and exact half-integer exponents.

All arithmetic in this package is exact over the rationals.  A context is
normally built from a base root ``s`` with ``q = s**2`` so that half-integer
powers of ``q`` (which occur as ``q**(mu*n**2)`` with ``mu`` in
``{0, 1/2, 1, ...}``) are themselves rational.  A context may also be built
directly from ``q`` via :meth:`QContext.from_q`; if ``q`` happens to be a
perfect rational square the base root is recovered, otherwise operations
needing a genuine ``q**(1/2)`` are unavailable and raise.

A context is one frozen value.  Its kernel tables (``q^(t/2)`` for every
integer t, odd t included, ``[k]_q``, ``[k]_q!`` and the rows of
``[n choose k]_q``) are made with it and grow as they are read, so each
value is computed once per ``q``.  They depend on ``q`` alone, so the
:meth:`QContext.with_omega` copies of a context share them, and they take
no part in equality, hashing or repr.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from numbers import Rational


def frac(value) -> Fraction:
    """Coerce ints, strings like "3/4", and Fractions to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, Rational):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot coerce {value!r} to an exact rational")


def rational_sqrt(value: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    value = frac(value)
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


# no slots, as for QContext below
@dataclass(frozen=True)
class HalfInt:
    """A half-integer mu = twice/2, stored by its doubled value.

    Used for the deformation exponents mu, nu so that q**(mu*e) can be
    evaluated exactly as s**(twice*e).
    """

    twice: int

    def __post_init__(self):
        if not isinstance(self.twice, int):
            raise TypeError("HalfInt stores the doubled value as an int")

    @property
    def value(self) -> Fraction:
        return Fraction(self.twice, 2)


HALF_ZERO = HalfInt(0)
HALF_HALF = HalfInt(1)


# no slots: with them, assigning a name that is not a field (s, omega0)
# raises TypeError instead of FrozenInstanceError on Python 3.10-3.13
@dataclass(frozen=True, init=False)
class QContext:
    """Deformation parameters: base q in (0, 1) and the Hahn shift omega.

    ``omega0 = omega/(1-q)`` is the fixed point of the Hahn step
    ``x -> qx + omega``.  ``root`` is the base root ``s`` (with ``q = s**2``),
    which makes half-integer powers of ``q`` exact, or None when ``q`` is not
    a rational square.  ``tables`` is ``(powers, ints, factorials,
    binomials)``: q^(t/2) by the exponent t of s, [k]_q by k, the list of
    [0]_q! .. [n]_q!, and the list of rows [m choose 0]_q ..
    [m choose m/2]_q for m = 0..n (the other half by symmetry).  They
    depend on ``q`` alone and are not part of the context's value.
    """

    q: Fraction
    omega: Fraction
    root: Fraction | None
    tables: tuple = field(compare=False, repr=False)

    def __init__(self, s, omega=0):
        s = frac(s)
        if not (0 < s < 1):
            raise ValueError(f"base root s must satisfy 0 < s < 1, got {s}")
        self._fill(s * s, omega, s)

    def _fill(self, q, omega, root, tables=None) -> "QContext":
        """Set the fields of this frozen value; returns self."""
        if tables is None:
            tables = ({}, {}, [Fraction(1)], [])
        for name, value in (("q", q), ("omega", frac(omega)), ("root", root),
                            ("tables", tables)):
            object.__setattr__(self, name, value)
        return self

    @classmethod
    def from_q(cls, q, omega=0) -> "QContext":
        """Build a context from q itself; recovers s when q is a square."""
        q = frac(q)
        if not (0 < q < 1):
            raise ValueError(f"q must satisfy 0 < q < 1, got {q}")
        return object.__new__(cls)._fill(q, omega, rational_sqrt(q))

    @property
    def omega0(self) -> Fraction:
        return self.omega / (1 - self.q)

    @property
    def s(self) -> Fraction:
        if self.root is None:
            raise ValueError(
                f"q = {self.q} is not a rational square; exact q**(1/2) "
                "needs a context built from its base root s")
        return self.root

    def _power(self, t: int) -> Fraction:
        """q**(t/2) = s**t, computed once per t; odd t needs the base root."""
        powers = self.tables[0]
        value = powers.get(t)
        if value is None:
            value = powers[t] = self.q ** (t // 2) if t % 2 == 0 else self.s ** t
        return value

    def q_pow(self, e: int) -> Fraction:
        """q**e for integer e (possibly negative)."""
        return self._power(2 * e)

    def pow_half(self, mu: HalfInt, e: int) -> Fraction:
        """q**(mu*e) = s**(twice*e), exact for any half-integer mu."""
        return self._power(mu.twice * e)

    def with_omega(self, omega) -> "QContext":
        """The same q with another omega; shares this context's tables."""
        return object.__new__(QContext)._fill(self.q, omega, self.root,
                                              self.tables)
