"""Deformation-parameter context and exact half-integer exponents.

All arithmetic in this package is exact over the rationals.  A context is
normally built from a base root ``s`` with ``q = s**2`` so that half-integer
powers of ``q`` (which occur as ``q**(mu*n**2)`` with ``mu`` in
``{0, 1/2, 1, ...}``) are themselves rational.  A context may also be built
directly from ``q`` via :meth:`QContext.from_q`; if ``q`` happens to be a
perfect rational square the base root is recovered, otherwise operations
needing a genuine ``q**(1/2)`` are unavailable and raise.

Each context carries one :class:`QTables` of kernel values (``q^k``,
``[k]_q``, ``[k]_q!``).  It is made on first use, grows on demand, and
depends on ``q`` alone, so the :meth:`QContext.with_omega` copies of a
context share it.  It takes no part in equality or hashing.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from numbers import Rational


def frac(value) -> Fraction:
    """Coerce ints, strings like "3/4", and Fractions to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, Rational):
        return Fraction(value)
    if isinstance(value, (str, int)):
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


class HalfInt:
    """A half-integer mu = twice/2, stored by its doubled value.

    Used for the deformation exponents mu, nu so that q**(mu*e) can be
    evaluated exactly as s**(twice*e).
    """

    __slots__ = ("twice",)

    def __init__(self, twice: int):
        if not isinstance(twice, int):
            raise TypeError("HalfInt stores the doubled value as an int")
        object.__setattr__(self, "twice", twice)

    @classmethod
    def of(cls, value) -> "HalfInt":
        doubled = frac(value) * 2
        if doubled.denominator != 1:
            raise ValueError(f"{value!r} is not a half-integer")
        return cls(int(doubled))

    @property
    def value(self) -> Fraction:
        return Fraction(self.twice, 2)

    def __eq__(self, other):
        return isinstance(other, HalfInt) and self.twice == other.twice

    def __hash__(self):
        return hash(("HalfInt", self.twice))

    def __setattr__(self, *_):
        raise AttributeError("HalfInt is immutable")

    def __repr__(self) -> str:
        return f"HalfInt({self.value})"


class QTables:
    """Kernel values of one base q, each computed once and kept.

    ``power(k)`` is q^k and ``q_int(k)`` is [k]_q = (1 - q^k)/(1 - q), both
    for any integer k; ``factorial(n)`` is [n]_q! for n >= 0.  Nothing is
    computed up front: each table grows only as far as it is read.
    """

    __slots__ = ("q", "_powers", "_ints", "_factorials")

    def __init__(self, q: Fraction):
        self.q = q
        self._powers = {}
        self._ints = {}
        self._factorials = [Fraction(1)]

    def power(self, k: int) -> Fraction:
        value = self._powers.get(k)
        if value is None:
            value = self._powers[k] = self.q ** k
        return value

    def q_int(self, k: int) -> Fraction:
        value = self._ints.get(k)
        if value is None:
            value = self._ints[k] = (1 - self.power(k)) / (1 - self.q)
        return value

    def factorial(self, n: int) -> Fraction:
        facts = self._factorials
        while len(facts) <= n:
            facts.append(facts[-1] * self.q_int(len(facts)))
        return facts[n]


HALF_ZERO = HalfInt(0)
HALF_HALF = HalfInt(1)
HALF_ONE = HalfInt(2)


class QContext:
    """Deformation parameters: base q in (0, 1) and the Hahn shift omega.

    ``omega0 = omega/(1-q)`` is the fixed point of the Hahn step
    ``x -> qx + omega``.  The optional base root ``s`` (with ``q = s**2``)
    makes half-integer powers of ``q`` exact.  ``tables`` holds the kernel
    values of ``q``; it is not part of the context's value.
    """

    __slots__ = ("_s", "_q", "_omega", "_tables")

    def __init__(self, s, omega=0):
        s = frac(s)
        if not (0 < s < 1):
            raise ValueError(f"base root s must satisfy 0 < s < 1, got {s}")
        self._set(s, s * s, omega)

    def _set(self, s, q, omega, tables=None) -> "QContext":
        """Fill the slots past the immutability guard; returns self."""
        object.__setattr__(self, "_s", s)
        object.__setattr__(self, "_q", q)
        object.__setattr__(self, "_omega", frac(omega))
        object.__setattr__(self, "_tables", tables)
        return self

    @classmethod
    def from_q(cls, q, omega=0) -> "QContext":
        """Build a context from q itself; recovers s when q is a square."""
        q = frac(q)
        if not (0 < q < 1):
            raise ValueError(f"q must satisfy 0 < q < 1, got {q}")
        return object.__new__(cls)._set(rational_sqrt(q), q, omega)

    def __setattr__(self, *_):
        raise AttributeError("QContext is immutable")

    @property
    def q(self) -> Fraction:
        return self._q

    @property
    def omega(self) -> Fraction:
        return self._omega

    @property
    def omega0(self) -> Fraction:
        return self._omega / (1 - self._q)

    @property
    def has_root(self) -> bool:
        return self._s is not None

    @property
    def s(self) -> Fraction:
        if self._s is None:
            raise ValueError(
                f"q = {self._q} is not a rational square; exact q**(1/2) "
                "needs a context built from its base root s")
        return self._s

    @property
    def tables(self) -> QTables:
        """The kernel tables of q, made empty on first use."""
        if self._tables is None:
            object.__setattr__(self, "_tables", QTables(self._q))
        return self._tables

    def q_pow(self, e: int) -> Fraction:
        """q**e for integer e (possibly negative)."""
        return self.tables.power(e)

    def pow_half(self, mu: HalfInt, e: int) -> Fraction:
        """q**(mu*e) = s**(twice*e), exact for any half-integer mu.

        Even s-exponents need only q; odd ones need the base root.
        """
        t = mu.twice * e
        if t % 2 == 0:
            return self.tables.power(t // 2)
        return self.s ** t

    def with_omega(self, omega) -> "QContext":
        """The same q with another omega; shares this context's tables."""
        return object.__new__(QContext)._set(self._s, self._q, omega,
                                             self.tables)

    def _key(self):
        return (self._s, self._q, self._omega)

    def __eq__(self, other):
        return isinstance(other, QContext) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"QContext(q={self._q}, omega={self._omega}, s={self._s})"
