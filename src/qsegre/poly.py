"""Sparse multivariate polynomials over the Gaussian rationals.

Variables name either state amplitudes (``a[i1...im]``) or Plucker coordinates
(``P[i1,i2,...]``).  Coefficients are always exact :class:`GaussRat`; the
float world enters only through :func:`evaluate` with complex assignments.
Terms are kept canonical: sorted variables inside each monomial, no zero
exponents, no zero coefficients.

Variables (:class:`StateVar`, :class:`PluVar`) and :class:`Monomial` are
immutable atoms whose constructor computes, once per object, the sort
``key()``, its hash and the printed ``text``; equality, hashing, sorting and
:func:`format_poly` only read them.  ``Monomial``'s constructor is the one
canonicalizing path.  The family builders share atoms within one call: one
variable per index and, through :func:`pair_monomials`, one monomial per
index pair, so a family pays these costs once per distinct atom, not once
per term.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Union

from .errors import MissingVariable
from .gaussrat import GR_MINUS_ONE, GR_ONE, GR_ZERO, Frozen, GaussRat, is_int


class _Atom(Frozen):
    """A variable or monomial: compared, hashed and printed by what its
    constructor computed once, the sort key and the text."""

    __slots__ = ("_key", "_hash", "text")

    def _freeze(self, arg, key: tuple, text: str) -> None:
        object.__setattr__(self, type(self).__slots__[0], arg)  # the constructor's one argument
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))
        object.__setattr__(self, "text", text)

    def key(self) -> tuple:
        return self._key

    def __eq__(self, other):
        if not isinstance(other, _Atom):
            return NotImplemented
        return self is other or (type(self) is type(other) and self._key == other._key)

    def __hash__(self):
        return self._hash

    def __str__(self):
        return self.text


def _check_indices(indices, low: int, what: str) -> None:
    """A nonempty tuple of ints >= low; bools are rejected (``gaussrat.is_int``)."""
    if not isinstance(indices, tuple) or not indices:
        raise ValueError(f"bad {what} {indices!r}: expected a nonempty tuple")
    for i in indices:
        if not is_int(i) or i < low:
            raise ValueError(f"bad {what} {indices!r}: expected ints >= {low}, got {type(i).__name__} {i!r}")


class StateVar(_Atom):
    """Amplitude variable named by its multi-index."""

    __slots__ = ("index",)

    def __init__(self, index: tuple[int, ...]):
        _check_indices(index, 0, "amplitude multi-index")
        sep = "" if all(i <= 9 for i in index) else ","
        self._freeze(index, ("a", index), "a[" + sep.join(map(str, index)) + "]")


class PluVar(_Atom):
    """Plucker coordinate variable named by a strictly increasing index subset."""

    __slots__ = ("subset",)

    def __init__(self, subset: tuple[int, ...]):
        _check_indices(subset, 1, "Plucker subset")
        if any(a >= b for a, b in zip(subset, subset[1:])):
            raise ValueError(f"Plucker subset {subset!r} not strictly increasing")
        self._freeze(subset, ("P", subset), "P[" + ",".join(map(str, subset)) + "]")


VarId = Union[StateVar, PluVar]


class Monomial(_Atom):
    """Product of variables with positive integer exponents, sorted by key.

    The constructor is the one canonicalizing path: it merges repeated
    variables, drops zero exponents, sorts by variable key, and raises
    ValueError on a negative exponent.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: Iterable[tuple[VarId, int]] = ()):
        merged: dict[VarId, int] = {}
        for var, exp in factors:
            if isinstance(exp, bool) or not isinstance(exp, int) or exp < 0:
                raise ValueError(f"bad exponent {exp!r} on {var}: expected an int >= 0")
            if exp:
                merged[var] = merged.get(var, 0) + exp
        pairs = tuple(sorted(merged.items(), key=lambda ve: ve[0]._key))
        text = "*".join(v.text if e == 1 else f"{v.text}^{e}" for v, e in pairs)
        self._freeze(pairs, tuple((v._key, e) for v, e in pairs), text or "1")

    def degree(self) -> int:
        return sum(e for _, e in self.factors)

    def mul(self, other: "Monomial") -> "Monomial":
        return Monomial(self.factors + other.factors)

    def variables(self):
        return [v for v, _ in self.factors]


def pair_monomials(variables: list[VarId]) -> Callable[[int, int], Monomial]:
    """``mono(a, b)``, the Monomial variables[a] * variables[b], built once per
    pair (a, b) for as long as the caller keeps ``mono``."""
    @functools.cache
    def mono(a: int, b: int) -> Monomial:
        return Monomial(((variables[a], 1), (variables[b], 1)))
    return mono


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


class MultiPoly(Frozen):
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
        return sorted(self._terms.items(), key=lambda mc: mc[0]._key)

    def leading(self) -> tuple[Monomial, GaussRat] | None:
        """Term with the lexicographically first monomial, or None if zero."""
        if not self._terms:
            return None
        mono = min(self._terms, key=lambda m: m._key)
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
    coefficients dropped, real/imaginary zero parts omitted, and a
    coefficient with both parts nonzero parenthesized, constant terms
    included.  The shared ``GR_ONE`` and ``GR_MINUS_ONE`` print without any
    arithmetic.
    """
    items = p.sorted_terms()
    if not items:
        return "0"
    parts = []
    for mono, coeff in items:
        if coeff is GR_ONE or coeff is GR_MINUS_ONE:
            parts += (" - " if coeff is GR_MINUS_ONE else " + ", mono.text)
            continue
        neg = _is_negative(coeff)
        mag = -coeff if neg else coeff
        text = f"({mag})" if mag.re and mag.im else str(mag)
        if not mono.factors:
            body = text
        elif mag == GR_ONE:
            body = mono.text
        else:
            body = f"{text}*{mono.text}"
        parts += (" - " if neg else " + ", body)
    parts[0] = "-" if parts[0] == " - " else ""
    return "".join(parts)
