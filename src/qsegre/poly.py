"""Sparse multivariate polynomials over the Gaussian rationals.

Variables name either state amplitudes (``a[i1...im]``) or Plucker coordinates
(``P[i1,i2,...]``).  Coefficients are always exact :class:`GaussRat`; the
float world enters only through :func:`evaluate` with complex assignments.
Terms are kept canonical: sorted variables inside each monomial, no zero
exponents, no zero coefficients, and a polynomial's terms stored as one tuple
of ``(Monomial, GaussRat)`` pairs in monomial key order, sorted once when it
is built.  So ``MultiPoly.terms`` and :func:`format_poly` read the terms as
stored, with no sort, and a float :func:`evaluate` sums them in printed
order.  A polynomial has no ring arithmetic: the package builds every
polynomial it needs from its terms.

Variables (:class:`StateVar`, :class:`PluVar`) and :class:`Monomial` are
immutable atoms whose constructor computes, once per object, the sort
``key()`` and the printed ``text``, and whose hash is computed once, on first
use (``gaussrat.Keyed``); equality, hashing, sorting and :func:`format_poly`
only read them.  An atom's constructor is ``__new__``: it checks its one
argument and makes the atom through ``gaussrat._unchecked``, the package's one
unchecked construction path.  ``Monomial``'s constructor is the one
canonicalizing path for terms of unknown shape.  The Segre and Plucker
families come as integer term arrays, whose invariants already make every
term canonical, and one private builder, ``_pair_polys``, turns them into
polynomials: one variable per index, one monomial per distinct index pair,
one ``(monomial, GR_ONE)`` and one ``(monomial, GR_MINUS_ONE)`` pair per
distinct monomial, shared by every polynomial holding that term, and each
polynomial a tuple cut from one stream of those pairs.  The monomials and
polynomials are made through ``_unchecked``, a column at a time, without the
constructors' merge, sort and per-term checks, and no monomial is hashed.
Each variable's factor ``(v, 1)`` and key part ``(v.key(), 1)`` are built once
per family and shared by its monomials, so a pair monomial allocates itself,
two tuples and its text, and the cyclic collector has fewer containers to
walk.  A family thus pays the atom costs once per distinct atom, not once per
term, and builds the same objects the public constructors build from the same
terms, its terms already in key order.

:func:`evaluate` runs on the real and imaginary parts of the values
(``states.gauss_ints``): Python ints over one common denominator for exact
values, so no term does ``Fraction`` arithmetic, and the floats themselves for
float values.  One term loop serves both backends; only the one result is
converted back, to a GaussRat or a complex.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterable, Mapping
from fractions import Fraction
from typing import Union

import numpy as np

from .errors import IndexOutOfRange, MalformedInput, MissingVariable, NonFinite, cut_text, short_text
from .gaussrat import GR_MINUS_ONE, GR_ONE, Frozen, GaussRat, Keyed, _power, _unchecked, exact_scalar, is_int
from .states import amplitude_array, gauss_ints


class _Atom(Keyed):
    """A variable or monomial: compared, hashed and printed by what its
    constructor computed once, the sort key and the text; the key is also
    the ``Keyed`` key.  The constructor is ``__new__``: it checks its one
    argument and hands the checked values to ``_freeze``."""

    __slots__ = ("text",)

    @classmethod
    def _freeze(cls, arg, key: tuple, text: str):
        (atom,) = _unchecked(cls, [arg], [text], [key])  # arg is the constructor's one argument
        return atom

    def __str__(self):
        return self.text


def _check_indices(indices, low: int, what: str) -> None:
    """A nonempty tuple of ints in [low, 2**64), else IndexOutOfRange; bools are
    rejected (``gaussrat.is_int``).  The bound keeps every index printable."""
    if not isinstance(indices, tuple) or not indices:
        got = "()" if isinstance(indices, tuple) else type(indices).__name__
        raise IndexOutOfRange(f"bad {what}: expected a nonempty tuple, got {got}")
    for i in indices:
        if not is_int(i) or not low <= i < 2**64:
            raise IndexOutOfRange(f"bad {what} {short_text(indices)}: expected ints in "
                                  f"[{low}, 2**64), got {type(i).__name__} {short_text(i)}")


class StateVar(_Atom):
    """Amplitude variable named by its multi-index."""

    __slots__ = ("index",)

    def __new__(cls, index: tuple[int, ...]):
        _check_indices(index, 0, "amplitude multi-index")
        sep = "" if all(i <= 9 for i in index) else ","
        return cls._freeze(index, ("a", index), "a[" + sep.join(map(str, index)) + "]")


class PluVar(_Atom):
    """Plucker coordinate variable named by a strictly increasing index subset."""

    __slots__ = ("subset",)

    def __new__(cls, subset: tuple[int, ...]):
        _check_indices(subset, 1, "Plucker subset")
        if any(a >= b for a, b in zip(subset, subset[1:])):
            raise IndexOutOfRange(f"Plucker subset {short_text(subset)} not strictly increasing")
        return cls._freeze(subset, ("P", subset), "P[" + ",".join(map(str, subset)) + "]")


VarId = Union[StateVar, PluVar]


class Monomial(_Atom):
    """Product of variables with positive integer exponents, sorted by key.

    The constructor is the one canonicalizing path: it merges repeated
    variables, drops zero exponents, sorts by variable key, and raises
    MalformedInput unless ``factors`` is an iterable of (variable, exponent)
    pairs, and IndexOutOfRange on an exponent that is not an int >= 0 or that
    reaches 2**64 once merged, so every exponent stays printable.
    """

    __slots__ = ("factors",)

    def __new__(cls, factors: Iterable[tuple[VarId, int]] = ()):
        merged: dict[VarId, int] = {}
        # one try around the loop, not a checked copy of factors (10% of a
        # monomial's cost): its body raises neither error once var and exp are checked
        try:
            for var, exp in factors:
                if not isinstance(var, (StateVar, PluVar)):
                    raise MalformedInput(f"monomial variable {short_text(var)}: expected a StateVar or PluVar")
                if not is_int(exp) or exp < 0:
                    raise IndexOutOfRange(f"bad exponent {short_text(exp)} on {cut_text(var.text)}: "
                                          f"expected an int >= 0")
                if exp:
                    merged[var] = merged.get(var, 0) + exp
                    if merged[var] >= 2**64:
                        raise IndexOutOfRange(f"exponent on {cut_text(var.text)} reaches 2**64")
        except (TypeError, ValueError):  # factors is not an iterable of pairs
            raise MalformedInput(f"monomial factors must be (variable, exponent) pairs, "
                                 f"got {short_text(factors)}") from None
        pairs = tuple(sorted(merged.items(), key=lambda ve: ve[0]._key))
        text = "*".join(v.text if e == 1 else f"{v.text}^{e}" for v, e in pairs)
        return cls._freeze(pairs, tuple((v._key, e) for v, e in pairs), text or "1")

    def degree(self) -> int:
        return sum(e for _, e in self.factors)


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


def _term_key(term: tuple[Monomial, GaussRat]) -> tuple:
    return term[0]._key


def _is_negative(c: GaussRat) -> bool:
    """The sign a coefficient prints with: negative real part, or zero real part
    and negative imaginary part."""
    return c.re < 0 or (c.re == 0 and c.im < 0)


class MultiPoly(Frozen):
    """Immutable sparse polynomial: map from Monomial to nonzero GaussRat,
    stored as one tuple of ``(Monomial, GaussRat)`` pairs in monomial key order.

    ``terms`` is None or a mapping whose keys are Monomials and whose values
    are exact (``gaussrat.exact_scalar``), else MalformedInput.  Any insertion
    order gives the same stored tuple, so equality and the hash read it as it
    stands, and the ``terms`` property returns it as a fresh dict in that
    order.  Copy and pickle pass ``terms`` back to the constructor."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, object] | None = None):
        clean: dict[Monomial, GaussRat] = {}
        if terms is not None:
            if not isinstance(terms, Mapping):
                raise MalformedInput(f"polynomial terms must be a mapping, got {type(terms).__name__}")
            for mono, c in terms.items():
                if not isinstance(mono, Monomial):
                    raise MalformedInput(f"polynomial term {short_text(mono)}: expected a Monomial key")
                g = exact_scalar(c)
                if g is NotImplemented:
                    raise MalformedInput(f"polynomial coefficients must be exact, got {type(c).__name__}")
                if g:
                    clean[mono] = g
        object.__setattr__(self, "_terms", tuple(sorted(clean.items(), key=_term_key)))

    def __reduce__(self):
        # the constructor takes a mapping, not the stored tuple
        return type(self), (self.terms,)

    @property
    def terms(self) -> dict[Monomial, GaussRat]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other):
        # a MultiPoly equals only a MultiPoly, as equal values must hash alike
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(self._terms)

    def variables(self) -> set[VarId]:
        return {v for mono, _ in self._terms for v, _ in mono.factors}

    def degree(self) -> int | None:
        """Total degree, or None for the zero polynomial."""
        if not self._terms:
            return None
        return max(m.degree() for m, _ in self._terms)

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"MultiPoly({format_poly(self)})"


def _pair_polys(variables: list[VarId], a: np.ndarray, b: np.ndarray, c: np.ndarray, bounds) -> list[MultiPoly]:
    """The polynomials of a family of quadrics from its integer term arrays.

    Term t is ``c[t] * variables[a[t]] * variables[b[t]]``, with a[t] < b[t],
    ``variables`` in key order and c[t] in {1, -1}; polynomial i holds terms
    ``bounds[i]`` to ``bounds[i + 1]``, from ``bounds[0] = 0``, no two with
    the same (a, b), and each polynomial's terms in (a, b) order, which is
    their key order.  These invariants make each pair monomial canonical as it
    stands, each coefficient the shared ``GR_ONE`` or ``GR_MINUS_ONE`` and
    each polynomial's slice of the terms its stored tuple, so each distinct
    monomial and each polynomial is made once through ``gaussrat._unchecked``,
    without the constructors' merge, sort and checks, and no monomial is
    hashed.  Each variable's factor ``(v, 1)`` and key part ``(v.key(), 1)``
    are built once per call and shared by every monomial that holds the
    variable, so a monomial allocates only itself, its two pair tuples and its
    text.  Each monomial's two terms, ``(m, GR_ONE)`` and ``(m, GR_MINUS_ONE)``,
    are made once and shared by every polynomial that holds the term, so a
    polynomial allocates only itself and its tuple.  The result equals what
    the public constructors build from the same terms."""
    n = len(variables)
    factors = [(v, 1) for v in variables]
    key_parts = [(v._key, 1) for v in variables]
    heads, texts = [v.text + "*" for v in variables], [v.text for v in variables]
    keys, inverse = np.unique(a * n + b, return_inverse=True)
    xs, ys = (keys // n).tolist(), (keys % n).tolist()
    monos = _unchecked(Monomial, list(zip(map(factors.__getitem__, xs), map(factors.__getitem__, ys))),
                       list(map(operator.add, map(heads.__getitem__, xs), map(texts.__getitem__, ys))),
                       list(zip(map(key_parts.__getitem__, xs), map(key_parts.__getitem__, ys))))
    # pair 2u is (monos[u], GR_ONE) and pair 2u + 1 is (monos[u], GR_MINUS_ONE); the object
    # array takes each term's pair with no Python int per term, as a list would
    pairs = np.fromiter(itertools.product(monos, (GR_ONE, GR_MINUS_ONE)), object, 2 * len(monos))
    # one stream of the terms' shared pairs, cut into polynomials by bounds
    terms = iter(pairs[2 * inverse + (c < 0)].tolist())
    sizes = np.diff(bounds).tolist()
    return _unchecked(MultiPoly, list(map(tuple, map(itertools.islice, itertools.repeat(terms), sizes))))


def is_homogeneous(p: MultiPoly):
    """Common total degree of all terms, None if mixed, ANY_DEGREE for zero."""
    if p.is_zero():
        return ANY_DEGREE
    degrees = {m.degree() for m, _ in p._terms}
    if len(degrees) == 1:
        return degrees.pop()
    return None


def _exact_parts(c: GaussRat) -> tuple:
    """A coefficient as integer parts over its own denominator: ``c == (x + i*y) / d``."""
    d = math.lcm(c.re.denominator, c.im.denominator)
    return c.re.numerator * (d // c.re.denominator), c.im.numerator * (d // c.im.denominator), d


def _float_parts(c: GaussRat) -> tuple:
    """A coefficient as the float parts of ``complex(c)``, over 1; NonFinite past the float range."""
    try:
        return float(c.re), float(c.im), 1
    except OverflowError:
        raise NonFinite("polynomial coefficient is beyond the float range") from None


_MISSING = object()  # evaluate's marker for a variable the assignment lacks


def evaluate(p: MultiPoly, assignment: Mapping[VarId, object]):
    """Evaluate at a point; exact GaussRat result iff every used value is exact.

    The used values take the backend ``states.amplitude_array`` gives them and raise
    what it raises; MissingVariable when the assignment does not cover p.  Each
    used value is converted once, to its parts over one denominator ``den``
    (``states.gauss_ints``), and one loop over the terms in stored order serves
    both backends: a term of degree d is its parts over ``den**d`` times its
    coefficient's denominator, and the sum is kept over the lcm of the terms'
    denominators, which for float values is always 1.  A float result is thus
    the complex arithmetic of ``coefficient * factor * ...`` summed in printed
    order (up to the sign of a zero), and NonFinite when a coefficient, a
    product, a power or the sum on the way to it passes the float range: an
    inf or nan, once made, stays in the sum, so the one check on the result
    catches every one but a coefficient's, which its conversion refuses.
    """
    used = p.variables()
    values = []
    for v in used:  # one lookup each: a key equal to v but not v itself costs a Keyed.__eq__ per lookup
        value = assignment.get(v, _MISSING)
        if value is _MISSING:
            raise MissingVariable(f"no value for {cut_text(v.text)}")
        values.append(value)
    values = amplitude_array(values, (len(used),), "assignment values")
    exact = values.dtype == object
    re, im, den = gauss_ints(values)
    point = dict(zip(used, zip(re.tolist(), im.tolist())))
    coeff_parts = _exact_parts if exact else _float_parts
    total_re = total_im = 0
    scale = 1  # the sum so far is (total_re + i*total_im) / scale
    for mono, c in p._terms:
        factors, negate = mono.factors, c is GR_MINUS_ONE
        if factors and (negate or c is GR_ONE):
            # a shared unit coefficient is a sign: the term starts from its first factor
            (v, e), factors = factors[0], factors[1:]
            x, y = point[v] if e == 1 else _power(*point[v], e)
            deg, d = e, 1
        else:
            x, y, d = coeff_parts(c)
            deg, negate = 0, False
        for v, e in factors:
            a, b = point[v] if e == 1 else _power(*point[v], e)
            x, y = x * a - y * b, x * b + y * a
            deg += e
        d *= den**deg
        if d != scale:  # put the sum and the term over the lcm of their denominators
            common = math.lcm(scale, d)
            total_re, total_im = total_re * (common // scale), total_im * (common // scale)
            x, y, scale = x * (common // d), y * (common // d), common
        if negate:
            total_re, total_im = total_re - x, total_im - y
        else:
            total_re, total_im = total_re + x, total_im + y
    if exact:
        return GaussRat(Fraction(total_re, scale), Fraction(total_im, scale))
    if not (math.isfinite(total_re) and math.isfinite(total_im)):
        raise NonFinite("polynomial value is beyond the float range")
    return complex(total_re, total_im)


def format_poly(p: MultiPoly) -> str:
    """Render one polynomial in the line format.

    Terms print in stored order, which is monomial key order, with no sort;
    each prints as ``coef*mono`` with unit coefficients dropped,
    real/imaginary zero parts omitted, and a coefficient with both parts
    nonzero parenthesized, constant terms included.  The shared ``GR_ONE`` and ``GR_MINUS_ONE`` print without any
    arithmetic.
    """
    if not p._terms:
        return "0"
    parts = []
    for mono, coeff in p._terms:
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
