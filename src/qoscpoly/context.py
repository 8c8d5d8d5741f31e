"""Deformation-parameter context and exact half-integer exponents.

All arithmetic in this package is exact over the rationals.  A context is
normally built from a base root ``s`` with ``q = s**2`` so that half-integer
powers of ``q`` (which occur as ``q**(mu*n**2)`` with ``mu`` in
``{0, 1/2, 1, ...}``) are themselves rational.  A context may also be built
directly from ``q`` via :meth:`QContext.from_q`; if ``q`` happens to be a
perfect rational square the base root is recovered, otherwise operations
needing a genuine ``q**(1/2)`` are unavailable and raise.

A context is one frozen value, with four kernel tables that its
:meth:`QContext.with_omega` copies share.  ``nonnegative`` is the one rule
for sizes (degrees, indices, counts, orders), called with the size's name,
and ``tolerance`` the one rule for the tolerance of a truncated sum.
"""

from __future__ import annotations

from copy import copy
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


def nonnegative(name: str, value: int) -> int:
    """value, or ValueError("<name> must be >= 0, got <value>")."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def tolerance(value) -> Fraction:
    """value as a Fraction, or ValueError unless it is positive."""
    value = frac(value)
    if value <= 0:
        raise ValueError(f"tolerance must be positive, got {value}")
    return value


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


# no slots: the fields are set through vars(); with slots, assigning a
# name that is not a field (s, omega0) raises TypeError instead of
# FrozenInstanceError on Python 3.10-3.13
@dataclass(frozen=True, init=False)
class QContext:
    """Deformation parameters: base q in (0, 1) and the Hahn shift omega.

    ``omega0 = omega/(1-q)`` is the fixed point of the Hahn step
    ``x -> qx + omega``.  The base root ``s`` (with ``q = s**2``), which
    makes half-integer powers of ``q`` exact, is read off ``q``; reading it
    raises ValueError when ``q`` is not a rational square.

    The kernel tables depend on ``q`` alone, take no part in equality,
    hashing or repr, and grow only as far as they are read.  Each holds
    values read again and again, built once per ``q``:

    * ``powers``: q^(t/2) by the exponent t of s, for ``q_pow`` and
      ``pow_half``;
    * ``ints``: [k]_q by k, for ``qarith.q_int``;
    * ``factorials``: [0]_q! .. [n]_q!, each the one before times [n]_q,
      for ``qarith.q_factorial``;
    * ``binomials``: the rows [m choose 0]_q .. [m choose m/2]_q for
      m = 0..n (the other half by symmetry), each entry one integer
      quotient of ``factorials``, for ``qarith.q_binomial``; without them
      ``table matel --nmax 24`` builds 806 more Fractions.
    """

    q: Fraction
    omega: Fraction
    powers: dict = field(compare=False, repr=False)
    ints: dict = field(compare=False, repr=False)
    factorials: list = field(compare=False, repr=False)
    binomials: list = field(compare=False, repr=False)

    def __init__(self, s, omega=0):
        s = frac(s)
        if not (0 < s < 1):
            raise ValueError(f"base root s must satisfy 0 < s < 1, got {s}")
        self._fill(s * s, omega)

    def _fill(self, q, omega) -> "QContext":
        """Set the fields of this frozen value, with new kernel tables;
        returns self."""
        vars(self).update(q=q, omega=frac(omega), powers={}, ints={},
                          factorials=[Fraction(1)], binomials=[])
        return self

    @classmethod
    def from_q(cls, q, omega=0) -> "QContext":
        """Build a context from q itself; it has s when q is a square."""
        q = frac(q)
        if not (0 < q < 1):
            raise ValueError(f"q must satisfy 0 < q < 1, got {q}")
        return object.__new__(cls)._fill(q, omega)

    @property
    def omega0(self) -> Fraction:
        return self.omega / (1 - self.q)

    @property
    def s(self) -> Fraction:
        return self._power(1)

    def _power(self, t: int) -> Fraction:
        """q**(t/2) = s**t, computed once per t; odd t needs the base root."""
        powers = self.powers
        value = powers.get(t)
        if value is None:
            base = rational_sqrt(self.q) if t % 2 else self.q
            if base is None:
                raise ValueError(
                    f"q = {self.q} is not a rational square; exact q**(1/2) "
                    "needs a context built from its base root s")
            value = powers[t] = base ** (t if t % 2 else t // 2)
        return value

    def q_pow(self, e: int) -> Fraction:
        """q**e for integer e (possibly negative)."""
        return self._power(2 * e)

    def pow_half(self, mu: HalfInt, e: int) -> Fraction:
        """q**(mu*e) = s**(twice*e), exact for any half-integer mu."""
        return self._power(mu.twice * e)

    def with_omega(self, omega) -> "QContext":
        """The same q with another omega; shares this context's tables."""
        other = copy(self)
        vars(other)["omega"] = frac(omega)
        return other
