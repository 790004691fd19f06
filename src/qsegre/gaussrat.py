"""Exact Gaussian rationals and helpers shared by the two arithmetic backends.

Amplitudes live either in the float backend (``complex``) or in the exact
backend (:class:`GaussRat`, a complex number with ``fractions.Fraction`` real
and imaginary parts).  GaussRat supports the arithmetic numpy ``object``
arrays need, so one array expression serves both backends.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

RatLike = Union[int, Fraction, str]


class Frozen:
    """Base of the immutable value types: setting or deleting an attribute
    raises, and copy, pickle and the repr go through the constructor's
    arguments, which are the class's own ``__slots__`` in order."""

    __slots__ = ()

    def __setattr__(self, name, value=None):  # also __delattr__, which passes no value
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, slot) for slot in type(self).__slots__)

    def __repr__(self):
        args = ", ".join(f"{slot}={getattr(self, slot)!r}" for slot in type(self).__slots__)
        return f"{type(self).__name__}({args})"


class GaussRat(Frozen):
    """A Gaussian rational a + b*i with exact rational a, b.

    Immutable; supports the field operations, conjugation, and exact squared
    modulus.  Fractions keep themselves reduced, so no extra normalization is
    needed here.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: RatLike = 0, im: RatLike = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    @classmethod
    def _coerce(cls, x) -> "GaussRat":
        if isinstance(x, GaussRat):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(x)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussRat(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = other.abs_sq()
        if n == 0:
            raise ZeroDivisionError("division by zero GaussRat")
        return GaussRat(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = GaussRat(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def conjugate(self) -> "GaussRat":
        return GaussRat(self.re, -self.im)

    def abs_sq(self) -> Fraction:
        """Exact |z|^2 as a Fraction."""
        return self.re * self.re + self.im * self.im

    def __abs__(self) -> float:
        return math.sqrt(float(self.abs_sq()))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = GaussRat(other)
        if not isinstance(other, GaussRat):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussRat({self.re}, {self.im})"

    def __str__(self):
        """Render as p/q+r/s*i with zero parts omitted and unit factors dropped."""
        def imag(mag: Fraction) -> str:
            return "i" if mag == 1 else f"{mag}*i"

        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            sign = "-" if self.im < 0 else ""
            return sign + imag(abs(self.im))
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{imag(abs(self.im))}"


GR_ZERO = GaussRat(0)
GR_ONE = GaussRat(1)
GR_MINUS_ONE = GaussRat(-1)

Scalar = Union[complex, GaussRat]


def rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None
