"""Exact Gaussian rationals and helpers shared by the two arithmetic backends.

Amplitudes live either in the float backend (``complex``) or in the exact
backend (:class:`GaussRat`, a complex number with ``fractions.Fraction`` real
and imaginary parts).  GaussRat supports the arithmetic numpy ``object``
arrays need, so one array expression serves both backends.
"""

from __future__ import annotations

import collections
import itertools
import math
from fractions import Fraction
from typing import Union

from .errors import MalformedInput, short_text

RatLike = Union[int, Fraction, str]


class Frozen:
    """Base of the immutable value types: setting or deleting an attribute
    raises, and copy, pickle and the repr go through the constructor's
    arguments, which are the class's own ``__slots__`` in order."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the slot descriptors' setters, for ``_unchecked``: the class's own slots
        # first, then each base's down the MRO, so Keyed's _key and _hash come last
        cls._slot_setters = tuple(vars(c)[name].__set__ for c in cls.__mro__
                                  for name in vars(c).get("__slots__", ()))

    def __setattr__(self, name, value=None):  # also __delattr__, which passes no value
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, slot) for slot in type(self).__slots__)

    def __repr__(self):
        args = ", ".join(f"{slot}={getattr(self, slot)!r}" for slot in type(self).__slots__)
        return f"{type(self).__name__}({args})"


class Keyed(Frozen):
    """A Frozen value under the one equality rule of the value types: it equals a
    value of its own type with an equal key, and hashes as its key.  The
    constructor stores the key (:meth:`_keep`); the hash is computed on first use
    and kept, so a value whose key holds a dict is unhashable and building one
    hashes nothing."""

    __slots__ = ("_key", "_hash")

    def _keep(self, key: tuple) -> None:
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", None)

    def key(self) -> tuple:
        return self._key

    def __eq__(self, other):
        if not isinstance(other, Keyed):
            return NotImplemented
        return self is other or (type(self) is type(other) and self._key == other._key)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self._key)
            object.__setattr__(self, "_hash", h)
        return h


def _unchecked(cls: type, *columns) -> list:
    """``cls`` instances from columns of slot values, made with none of the constructor's checks.

    The one unchecked construction path, for values their caller built valid:
    ``object.__new__`` and the slot descriptors, with no ``__init__`` call.
    Instance i holds entry i of each column.  The columns fill the class's own
    slots first, then each base's in turn down to ``Keyed``'s ``_key``, which
    must be the key the constructor would store; a Keyed value's ``_hash``
    starts as None, as ``_keep`` leaves it.  So a ``Monomial`` takes columns of
    factors, texts and keys, and a ``MultiPoly`` one column of term tuples.  Each
    slot is set for the whole column by one ``map`` over its descriptor's setter,
    so no Python frame runs per instance.  Every instance must equal what the
    constructor builds from the same arguments."""
    objs = list(map(object.__new__, itertools.repeat(cls, len(columns[0]))))
    for put, column in zip(cls._slot_setters, columns + (itertools.repeat(None),)):  # the Nones are _hash's
        collections.deque(map(put, objs, column), 0)
    return objs


def _power(re, im, e: int) -> tuple:
    """The parts of ``(re + i*im)**e`` for an int e >= 1: the one square-and-multiply
    rule, for ``GaussRat.__pow__`` and ``poly.evaluate``'s parts alike.  It squares and
    multiplies in the order CPython's complex ``**`` takes for e <= 100, so float parts
    round alike."""
    out = None
    while True:
        if e & 1:
            out = (re, im) if out is None else (out[0] * re - out[1] * im, out[0] * im + out[1] * re)
        e >>= 1
        if not e:
            return out
        re, im = re * re - im * im, re * im + im * re


def is_int(x) -> bool:
    """An int that is not a bool: the one rule for indices, modes and shape parameters."""
    return isinstance(x, int) and not isinstance(x, bool)


def as_fraction(x: RatLike, field: str) -> Fraction:
    """The one fraction-literal rule: ``Fraction(x)``, but MalformedInput naming ``field`` for a
    bad literal, a str with an exponent, which Fraction expands ("1e-1000000": 3.3M bits),
    a NaN or infinite float, a bool, or a value of a type Fraction does not take.
    The message shows the literal through ``short_text``, so it stays short."""
    if isinstance(x, str) and ("e" in x or "E" in x):
        raise MalformedInput(f"{field}: exponent not allowed in fraction literal {short_text(x)}")
    if isinstance(x, bool):
        raise MalformedInput(f"{field}: expected a number, got bool")
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError, OverflowError, TypeError):
        raise MalformedInput(f"{field}: bad fraction literal {short_text(x)}") from None


class GaussRat(Frozen):
    """A Gaussian rational a + b*i with exact rational a, b.

    Immutable; supports the field operations, conjugation, and exact squared
    modulus.  Fractions keep themselves reduced, so no extra normalization is
    needed here.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: RatLike = 0, im: RatLike = 0):
        # a Fraction is immutable, so it is kept as given, not rebuilt
        object.__setattr__(self, "re", re if type(re) is Fraction else as_fraction(re, "re"))
        object.__setattr__(self, "im", im if type(im) is Fraction else as_fraction(im, "im"))

    def __add__(self, other):
        other = exact_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = exact_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussRat(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __mul__(self, other):
        other = exact_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = exact_scalar(other)
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
        other = exact_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if not is_int(n) or n < 0:
            return NotImplemented
        return GaussRat(*_power(self.re, self.im, n)) if n else GaussRat(1)

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
        other = exact_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        """A real value hashes as its real part, so it hashes as the int or Fraction it equals."""
        return hash((self.re, self.im)) if self.im else hash(self.re)

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


def exact_scalar(x) -> GaussRat:
    """The one exact-scalar rule: ``x`` as a GaussRat if it is a GaussRat, a Fraction or an
    int that is not a bool (``is_int``), else NotImplemented."""
    if isinstance(x, GaussRat):
        return x
    if isinstance(x, Fraction) or is_int(x):
        return GaussRat(x)
    return NotImplemented


GR_ZERO = GaussRat(0)
GR_ONE = GaussRat(1)
GR_MINUS_ONE = GaussRat(-1)

Scalar = Union[complex, GaussRat]

