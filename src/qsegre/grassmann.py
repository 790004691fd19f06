"""Plucker coordinates, the quadratic relations cutting out G(k, N), and the
Plucker entanglement measure for multi-qubit states.

Coordinates P_I are the maximal minors of a k x N matrix, labeled by strictly
increasing k-subsets I of {1..N}.  They are computed all at once, one row at a
time, by Laplace expansion along the last row: with P_r(S) the minor on the
top r+1 rows and the columns S = (s_0 < ... < s_r),

    P_r(S) = sum_t (-1)^(r+t) M[r, s_t] P_{r-1}(S without s_t),  P_{-1}() = 1.

Each level is one numpy expression over index arrays that depend only on
(k, N).  The expansion only multiplies and adds, so it needs no pivot and no
division: both backends run it on the parts ``states.gauss_ints`` gives, and
exact minors are divided by den^k at the end.  Level r holds C(N, r+1)
minors, so the widest level has C(N, min(k, N // 2)); that count is capped
by ``errors.MAX_CHOOSE``.

The relation family takes every (I, J) with |I| = k-1, |J| = k+1 at once,
from the expansion's tables for k- and (k+1)-subsets (``_drop_table``).  Two
terms share a monomial only when I is in J, and then cancel, so those pairs
go and every coefficient is +-1; for k = 1 and k = N - 1 every pair goes.
The build holds all C(N, k-1) C(N, k+1) (k+1) terms at once, so that count
is capped by ``errors.MAX_TERMS`` first.  ``unique_rows`` deduplicates the
relations, which are cached per (k, N) as read-only flat integer term
arrays that ``check_relations`` evaluates in one expression for both
backends.  ``pluecker_relations`` hands the arrays and each relation's
bounds to ``poly._pair_polys``, the family builder the Segre ideal uses too,
which makes one polynomial per relation with no per-term constructor call,
and makes the relations themselves through ``gaussrat._unchecked``, as
``pluecker_coordinates`` makes its set: what they hold is valid as built, so
they skip the public constructors' checks, which stay for every other caller.

The measure reads "square root of the sum of each coordinate times its
conjugate" (an l2 norm of the coordinate vector).  A literal product over all
coordinates would vanish for almost every state, so the l2 reading is the one
implemented, scaled by 2 so the two-qubit case reproduces the concurrence.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping
from fractions import Fraction
from math import comb, isqrt
from types import MappingProxyType

import numpy as np

from .errors import (MAX_CHOOSE, MAX_TERMS, IndexOutOfRange, MalformedInput, MissingVariable, NonFinite,
                     ShapeError, WrongShape, check_cap, cut_text, short_text)
from .gaussrat import GR_ZERO, Keyed, Scalar, _unchecked, is_int
from .poly import MultiPoly, PluVar, _pair_polys
from .segre import split_terms
from .states import (Bipartition, PureState, _check_finite, amplitude_array, amplitudes_to_json,
                     exact_backend, gauss_ints, gauss_rats, matrix_array, scale_parts)


def _check_shape(k, N) -> None:
    """The one shape rule of G(k, N): ints (``is_int``) with 1 <= k < N, else ShapeError,
    naming the type of a k or N that is not an int."""
    for name, x in (("k", k), ("N", N)):
        if not is_int(x):
            raise ShapeError(f"{name} must be an int, got {type(x).__name__}")
    if k < 1 or k >= N:
        raise ShapeError(f"need 1 <= k < N, got k={short_text(k)}, N={short_text(N)}")


class PlueckerSet(Keyed):
    """The C(N, k) maximal minors of a k x N matrix, keyed by sorted subsets.

    The constructor takes ints 1 <= k < N (ShapeError) and a mapping whose
    keys are strictly increasing k-subsets of 1..N (IndexOutOfRange, naming
    the first bad one) and whose values are numbers (``states.exact_backend``,
    MalformedInput); ``exact`` asks that rule again each time it is read.
    ``coords`` is a read-only copy of the mapping, and copy and pickle pass it
    on as a dict.  Unhashable, as its mapping is.
    """

    __slots__ = ("k", "N", "coords")

    def __init__(self, k: int, N: int, coords: Mapping[tuple[int, ...], Scalar]):
        _check_shape(k, N)
        if not isinstance(coords, Mapping):
            raise MalformedInput(f"coords must be a mapping, got {type(coords).__name__}")
        coords = dict(coords)
        for key in coords:  # a strictly increasing tuple of k ints (``is_int``) in 1..N
            if not (isinstance(key, tuple) and len(key) == k and all(map(is_int, key))
                    and 0 < key[0] and key[-1] <= N and all(a < b for a, b in zip(key, key[1:]))):
                raise IndexOutOfRange(f"coords key {short_text(key)} is not a strictly increasing "
                                      f"{short_text(k)}-subset of 1..{short_text(N)}")
        exact_backend(list(coords.values()), "coords")
        coords = MappingProxyType(coords)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "coords", coords)
        self._keep((k, N, coords))

    def __reduce__(self):
        return type(self), (self.k, self.N, dict(self.coords))

    @property
    def exact(self) -> bool:
        """True iff every coordinate is exact: ``states.exact_backend``, the rule of ``amplitude_array``."""
        return exact_backend(list(self.coords.values()), "coords")

    def get(self, indices) -> Scalar:
        """Coordinate for a tuple or list of ints (``is_int``), else IndexOutOfRange:
        0 on repeats, signed on out-of-order indices (parity of the sorting permutation)."""
        if not isinstance(indices, (tuple, list)):
            raise IndexOutOfRange(f"indices must be a tuple or list of ints, got {type(indices).__name__}")
        for j, i in enumerate(indices):
            if not is_int(i):
                raise IndexOutOfRange(f"indices[{j}] must be an int, got {type(i).__name__}")
        indices = tuple(indices)
        if len(set(indices)) != len(indices):
            return GR_ZERO if self.exact else 0j
        key = tuple(sorted(indices))
        if key not in self.coords:
            raise IndexOutOfRange(f"no coordinate {short_text(indices)} in G({self.k},{self.N})")
        value = self.coords[key]
        return value if _parity(indices) == 0 else -value


class PlueckerRelation(Keyed):
    """One quadric of the relation family, with the (I, J) pair it came from: a
    MultiPoly and two tuples, else MalformedInput.  The check reads the fields'
    types alone, not the tuples' entries; ``pluecker_relations`` makes its
    relations without it (``gaussrat._unchecked``)."""

    __slots__ = ("poly", "I", "J")

    def __init__(self, poly: MultiPoly, I: tuple[int, ...], J: tuple[int, ...]):
        if not (isinstance(poly, MultiPoly) and isinstance(I, tuple) and isinstance(J, tuple)):
            raise MalformedInput(f"a Plucker relation is a MultiPoly and two tuples, got {type(poly).__name__}, "
                                 f"{type(I).__name__} and {type(J).__name__}")
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "I", I)
        object.__setattr__(self, "J", J)
        self._keep((poly, I, J))


def _parity(indices: tuple[int, ...]) -> int:
    inv = sum(1 for a, b in itertools.combinations(indices, 2) if a > b)
    return inv % 2


@functools.lru_cache(maxsize=128)
def _drop_table(r: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The r-subsets S of the columns in lexicographic order, and the rank of
    each S without its t-th column among the (r-1)-subsets."""
    rank = {S: i for i, S in enumerate(itertools.combinations(range(N), r - 1))}
    subsets = list(itertools.combinations(range(N), r))
    return np.array(subsets), np.array([[rank[S[:t] + S[t + 1:]] for t in range(r)] for S in subsets])


def _maximal_minors(mat: np.ndarray) -> list[Scalar]:
    """Every k x k column minor of the k x N ``mat``, columns in lexicographic order."""
    k, n = mat.shape
    re, im, den = gauss_ints(mat)
    p_re, p_im = np.ones(1, re.dtype), np.zeros(1, re.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for r, (row_re, row_im) in enumerate(zip(re, im)):
            cols, drops = _drop_table(r + 1, n)
            a, b, c, d = row_re[cols], row_im[cols], p_re[drops], p_im[drops]
            sign = ((-1) ** (r + np.arange(r + 1))).astype(re.dtype)
            p_re, p_im = (a * c - b * d) @ sign, (a * d + b * c) @ sign
    if mat.dtype == object:
        return gauss_rats(p_re, p_im, den**k).tolist()
    coords = p_re.astype(np.complex128)
    coords.imag = p_im
    _check_finite(coords, "coords")
    return coords.tolist()


def pluecker_coordinates(mat) -> PlueckerSet:
    """All k x k column minors of a k x N matrix (k < N); exact for exact input.

    Raises TooLarge when the widest level of the expansion, C(N, min(k, N // 2))
    minors, exceeds MAX_CHOOSE, and NonFinite when a float minor, or a
    product on the way to it, is beyond the float range.
    """
    mat = matrix_array(mat)
    k, n = mat.shape
    _check_shape(k, n)
    widest = min(k, n // 2)
    check_cap(f"minors per row C({n},{widest})", (comb(n, widest),), MAX_CHOOSE)
    # the subsets and the minors are valid as built, so the set skips PlueckerSet's checks
    coords = MappingProxyType(dict(zip(itertools.combinations(range(1, n + 1), k), _maximal_minors(mat))))
    (ps,) = _unchecked(PlueckerSet, [k], [n], [coords], [(k, n, coords)])
    return ps


Subset = tuple[int, ...]
RelationFamily = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple[tuple[Subset, Subset], ...]]


def _relation_term_count(k: int, N: int) -> int:
    """The (I, J, t) entries ``_relation_family`` builds before it drops any:
    none for k = 1 and k = N - 1, where every I is in every J."""
    return 0 if k in (1, N - 1) else comb(N, k - 1) * comb(N, k + 1) * (k + 1)


def _relation_terms(k: int, N: int) -> RelationFamily:
    """The relation family as flat integer term arrays ``(a, b, c, rel)`` and
    the tuple of (I, J) pairs, one per relation.

    Term t is the coefficient c[t] on P_A P_B of relation rel[t], where
    a[t] < b[t] are the ranks of the k-subsets A and B in lexicographic order.
    Each relation's terms are consecutive and sorted, and its first
    coefficient is positive; the relations are sorted like the polynomials'
    sorted terms, and each keeps the first (I, J) that produced it.  The
    arrays are read-only.  The shape and the term cap are checked on every
    call; the family itself is built once per (k, N).
    """
    _check_shape(k, N)
    # a nonempty family's binomials are at least N: past N = 2048 the product passes the cap at N * N
    terms = (N, N, k + 1) if k not in (1, N - 1) and N > isqrt(MAX_TERMS) else (_relation_term_count(k, N),)
    check_cap(f"raw terms of the relation family of G({short_text(k)},{short_text(N)})", terms, MAX_TERMS)
    return _relation_family(k, N)


def unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A 2-d array's distinct rows, sorted, and each one's first index (stable sort)."""
    order = np.lexsort(rows.T[::-1])  # np.unique(axis=0) sorts the same, 7x slower
    rows = rows[order]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep], order[keep]


@functools.lru_cache(maxsize=64)
def _relation_family(k: int, N: int) -> RelationFamily:
    if not _relation_term_count(k, N):
        empty = np.zeros(0, np.int64)
        empty.flags.writeable = False
        return empty, empty, empty, empty, ()
    (subsets, drops), (js, rests) = _drop_table(k, N), _drop_table(k + 1, N)
    # I = S - s_t and j = s_t give P_{I, j} = (-1)^(k-1-t) P_S (the cofactor sign), as j
    # passes the k-1-t indices of I above it; stored as sign * (rank of S + 1), 0 for j in I
    inserted = np.zeros((comb(N, k - 1), N), np.int64)
    inserted[drops, subsets] = np.arange(1, len(subsets) + 1)[:, None] * (-1) ** (k - 1 - np.arange(k))
    # term t of (I, J) is (-1)^(t+1) P_{I, j_t} P_{J - j_t}.  Two live terms share
    # a monomial only when I is in J, and then they are the only two and cancel
    signed = inserted[:, js].reshape(-1, k + 1)
    pair = np.flatnonzero(np.count_nonzero(signed, axis=1) > 2)
    row, t = np.nonzero(signed[pair])
    first, rest = signed[pair[row], t], rests[pair[row] % len(js), t]
    # each row: its live terms (j_t in J - I, so at most w) sorted, then (0, 0, 0),
    # which sorts below any live term as a < b; the first coefficient positive
    w = min(k + 1, N - k + 1)
    a, b, c = np.zeros((3, len(pair), w), np.int64)
    slot = np.arange(len(t)) - np.searchsorted(row, row)
    a[row, slot], b[row, slot] = np.minimum(abs(first) - 1, rest), np.maximum(abs(first) - 1, rest)
    c[row, slot] = np.sign(first) * (-1) ** (1 + t)
    order = np.argsort(np.where(c != 0, a * len(subsets) + b, len(subsets) ** 2), axis=1)
    a, b, c = (np.take_along_axis(x, order, axis=1) for x in (a, b, c))
    rows, firsts = unique_rows(np.stack([a, b, c * c[:, :1]], axis=2).reshape(-1, 3 * w))
    live = rows[:, 2::3] != 0
    cols = np.vstack([rows.reshape(-1, w, 3)[live].T, np.nonzero(live)[0]])
    cols.flags.writeable = False
    i_sets = list(itertools.combinations(range(1, N + 1), k - 1))
    j_sets = [tuple(J) for J in (js + 1).tolist()]
    return (*cols, tuple((i_sets[p // len(js)], j_sets[p % len(js)]) for p in pair[firsts].tolist()))


def pluecker_relations(k: int, N: int) -> list[PlueckerRelation]:
    """The quadratic relation family for G(k, N).

    Each (I, J) with |I| = k-1 and |J| = k+1 contributes
    sum_t (-1)^t P_{I, j_t} P_{J \\ j_t}; zero polynomials are dropped and the
    rest deduplicated under sign.  For k = 1 and k = N - 1 the family is
    empty.  The terms are enumerated as integer keys and only the surviving
    relations become polynomials, each from its slice of the family's term
    arrays.
    """
    a, b, c, rel, pairs = _relation_terms(k, N)
    if not pairs:
        return []
    variables = [PluVar(subset) for subset in itertools.combinations(range(1, N + 1), k)]
    polys = _pair_polys(variables, a, b, c, np.searchsorted(rel, range(len(pairs) + 1)).tolist())
    i_sets, j_sets = zip(*pairs)
    return _unchecked(PlueckerRelation, polys, i_sets, j_sets, list(zip(polys, i_sets, j_sets)))


def check_relations(ps: PlueckerSet):
    """Max |relation(coords)| over the relation family; exact 0 for minors.

    The coordinates go through ``states.amplitude_array``, so a set mixing exact
    and float ones is float, and it raises what that raises.  One expression
    for both backends on the parts from ``states.gauss_ints``:
    every term c * P_A * P_B at once, each relation's terms added in order
    (``np.add.at``), and the worst |value|^2 divided by den^4 once.  Float
    parts are divided by a power of two first (``states.scale_parts``), so no
    product overflows; NonFinite only when the residual is not a finite float.
    """
    a, b, c, rel, pairs = _relation_terms(ps.k, ps.N)
    vals = []
    for subset in itertools.combinations(range(1, ps.N + 1), ps.k):
        if subset not in ps.coords:
            raise MissingVariable(f"no value for {cut_text(PluVar(subset).text)}")
        vals.append(ps.coords[subset])
    re, im, den = gauss_ints(amplitude_array(vals, (len(vals),), "coords"))
    exact = re.dtype == object
    re, im, e = (re, im, 0) if exact else scale_parts(re, im)[:3]
    x, y = np.zeros((2, len(pairs)), re.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(x, rel, c * (re[a] * re[b] - im[a] * im[b]))
        np.add.at(y, rel, c * (re[a] * im[b] + im[a] * re[b]))
        if exact:
            worst = (x * x + y * y).max(initial=0)
            return Fraction(0) if worst == 0 else math.sqrt(float(Fraction(worst, den**4)))
        residual = float(np.ldexp(np.hypot(x, y).max(initial=0.0), 2 * e))
    if not math.isfinite(residual):
        raise NonFinite("relation residual is beyond the float range or not finite")
    return residual


def pluecker_measure(s: PureState, pivot: int = 1) -> float:
    """2 * sqrt(sum_I |P_I|^2) of the k=2 coordinates of the pivot flattening.

    The normalized state is flattened to 2 x 2^(m-1) with rows indexed by the
    pivot qubit; its k=2 coordinates are that matrix's 2x2 minors, so the sum
    is the flattening's minor sum and is computed as such.  For m = 2 this is
    the concurrence.  The default pivot is mode 1; the value is
    pivot-independent only up to the bipartition it selects, so the pivot
    stays caller-visible.
    """
    if any(d != 2 for d in s.dims):
        raise WrongShape(f"measure is defined for qubit modes only, got dims {s.dims}")
    if s.num_modes < 2:
        raise WrongShape("measure needs >= 2 modes")
    if not is_int(pivot) or not 1 <= pivot <= s.num_modes:
        raise IndexOutOfRange(f"pivot {short_text(pivot)} is not an int in 1..{s.num_modes}")
    (term,) = split_terms(s, [Bipartition((pivot,))])
    return 2.0 * math.sqrt(float(term))


def pluecker_set_to_json(ps: PlueckerSet) -> dict:
    """The coordinates in subset order, in the backend ``states.amplitude_array`` gives them."""
    subsets = sorted(ps.coords)
    values = [ps.coords[subset] for subset in subsets]
    pairs = amplitudes_to_json(amplitude_array(values, (len(values),), "coords"))
    coords = [{"I": list(subset), "re": re, "im": im} for subset, (re, im) in zip(subsets, pairs)]
    return {"k": ps.k, "N": ps.N, "coords": coords}
