"""Sparse multivariate polynomials over the Gaussian rationals.

Variables name either state amplitudes (``a[i1...im]``) or Plucker coordinates
(``P[i1,i2,...]``).  Coefficients are always exact :class:`GaussRat`; the
float world enters only through :func:`evaluate` with complex assignments.
Terms are kept canonical: sorted variables inside each monomial, no zero
exponents, no zero coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import MissingVariable
from .gaussrat import GR_ONE, GR_ZERO, GaussRat


@dataclass(frozen=True)
class StateVar:
    """Amplitude variable named by its multi-index."""

    index: tuple[int, ...]

    def __post_init__(self):
        if not self.index or any((not isinstance(i, int)) or i < 0 for i in self.index):
            raise ValueError(f"bad amplitude multi-index {self.index!r}")

    def key(self):
        return ("a", self.index)

    def __str__(self):
        if all(i <= 9 for i in self.index):
            return "a[" + "".join(map(str, self.index)) + "]"
        return "a[" + ",".join(map(str, self.index)) + "]"


@dataclass(frozen=True)
class PluVar:
    """Plucker coordinate variable named by a strictly increasing index subset."""

    subset: tuple[int, ...]

    def __post_init__(self):
        if not self.subset or any(not isinstance(i, int) or i < 1 for i in self.subset):
            raise ValueError(f"bad Plucker subset {self.subset!r}")
        if any(a >= b for a, b in zip(self.subset, self.subset[1:])):
            raise ValueError(f"Plucker subset {self.subset!r} not strictly increasing")

    def key(self):
        return ("P", self.subset)

    def __str__(self):
        return "P[" + ",".join(map(str, self.subset)) + "]"


VarId = Union[StateVar, PluVar]


@dataclass(frozen=True)
class Monomial:
    """Product of variables with positive integer exponents, sorted by key."""

    factors: tuple[tuple[VarId, int], ...]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[VarId, int]]) -> "Monomial":
        merged: dict[VarId, int] = {}
        for var, exp in pairs:
            if exp < 0:
                raise ValueError("negative exponent")
            if exp:
                merged[var] = merged.get(var, 0) + exp
        return cls(tuple(sorted(merged.items(), key=lambda ve: ve[0].key())))

    def degree(self) -> int:
        return sum(e for _, e in self.factors)

    def key(self):
        return tuple((v.key(), e) for v, e in self.factors)

    def mul(self, other: "Monomial") -> "Monomial":
        return Monomial.from_pairs(self.factors + other.factors)

    def variables(self):
        return [v for v, _ in self.factors]

    def __str__(self):
        if not self.factors:
            return "1"
        return "*".join(str(v) if e == 1 else f"{v}^{e}" for v, e in self.factors)


ONE_MONOMIAL = Monomial(())


class _AnyDegree:
    """Marker: the zero polynomial is homogeneous of every degree."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "AnyDegree"


ANY_DEGREE = _AnyDegree()


def _coerce_coeff(c) -> GaussRat:
    if isinstance(c, GaussRat):
        return c
    if isinstance(c, (int, Fraction)):
        return GaussRat(c)
    raise TypeError(f"polynomial coefficients must be exact, got {type(c).__name__}")


def _is_negative(c: GaussRat) -> bool:
    """Canonical sign used for rendering and sign normalization."""
    return c.re < 0 or (c.re == 0 and c.im < 0)


class MultiPoly:
    """Immutable sparse polynomial: map from Monomial to nonzero GaussRat."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, object] | None = None):
        clean: dict[Monomial, GaussRat] = {}
        if terms:
            for mono, c in terms.items():
                c = _coerce_coeff(c)
                if c:
                    clean[mono] = c
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def const(cls, c) -> "MultiPoly":
        return cls({ONE_MONOMIAL: c})

    @classmethod
    def variable(cls, v: VarId) -> "MultiPoly":
        return cls({Monomial(((v, 1),)): GR_ONE})

    @property
    def terms(self) -> dict[Monomial, GaussRat]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        out = dict(self._terms)
        for mono, c in other._terms.items():
            s = out.get(mono, GR_ZERO) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return MultiPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            c = _coerce_coeff(other)
            return MultiPoly({m: v * c for m, v in self._terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        out: dict[Monomial, GaussRat] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = m1.mul(m2)
                s = out.get(m, GR_ZERO) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return MultiPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def sorted_terms(self) -> list[tuple[Monomial, GaussRat]]:
        return sorted(self._terms.items(), key=lambda mc: mc[0].key())

    def leading(self) -> tuple[Monomial, GaussRat] | None:
        """Term with the lexicographically first monomial, or None if zero."""
        if not self._terms:
            return None
        mono = min(self._terms, key=lambda m: m.key())
        return mono, self._terms[mono]

    def sign_canonical(self) -> "MultiPoly":
        """Flip the overall sign so the leading coefficient is positive."""
        lead = self.leading()
        if lead is None or not _is_negative(lead[1]):
            return self
        return -self

    def variables(self) -> set[VarId]:
        out: set[VarId] = set()
        for mono in self._terms:
            out.update(mono.variables())
        return out

    def degree(self) -> int | None:
        """Total degree, or None for the zero polynomial."""
        if not self._terms:
            return None
        return max(m.degree() for m in self._terms)

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"MultiPoly({format_poly(self)})"


def poly_add(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Exact sum in canonical form."""
    return p + q


def poly_mul(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Exact product in canonical form; total degrees add."""
    return p * q


def is_homogeneous(p: MultiPoly):
    """Common total degree of all terms, None if mixed, ANY_DEGREE for zero."""
    if p.is_zero():
        return ANY_DEGREE
    degrees = {m.degree() for m in p._terms}
    if len(degrees) == 1:
        return degrees.pop()
    return None


def evaluate(p: MultiPoly, assignment: Mapping[VarId, object]):
    """Evaluate at a point; exact GaussRat result iff every used value is exact.

    Raises MissingVariable when the assignment does not cover a variable of p.
    """
    used = p.variables()
    for v in used:
        if v not in assignment:
            raise MissingVariable(f"no value for {v}")
    exact = all(isinstance(assignment[v], (GaussRat, int, Fraction)) for v in used)
    if exact:
        total = GR_ZERO
        for mono, coeff in p._terms.items():
            term = coeff
            for v, e in mono.factors:
                val = assignment[v]
                if not isinstance(val, GaussRat):
                    val = GaussRat(val)
                term = term * (val if e == 1 else val ** e)
            total = total + term
        return total
    total = 0j
    for mono, coeff in p._terms.items():
        term = complex(coeff)
        for v, e in mono.factors:
            term *= complex(assignment[v]) ** e
        total += term
    return total


def format_poly(p: MultiPoly) -> str:
    """Render one polynomial in the line format.

    Terms are sorted by monomial; each prints as ``coef*mono`` with unit
    coefficients dropped and real/imaginary zero parts omitted.
    """
    items = p.sorted_terms()
    if not items:
        return "0"
    parts = []
    for pos, (mono, coeff) in enumerate(items):
        neg = _is_negative(coeff)
        mag = -coeff if neg else coeff
        if mono is ONE_MONOMIAL or not mono.factors:
            body = str(mag)
        elif mag == GR_ONE:
            body = str(mono)
        else:
            body = f"{mag}*{mono}"
        if pos == 0:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append((" - " if neg else " + ") + body)
    return "".join(parts)
