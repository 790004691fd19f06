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
like the relation family's C(N, k).

The relation family takes every (I, J) with |I| = k-1, |J| = k+1 at once,
from the expansion's tables for k- and (k+1)-subsets (``_drop_table``).  Two
terms share a monomial only when I is in J, and then cancel, so those pairs
go and every coefficient is +-1; for k = 1 and k = N - 1 every pair goes.
The build holds all C(N, k-1) C(N, k+1) (k+1) terms at once, so that count
is capped by ``segre.MAX_TERMS`` first.  ``segre.unique_rows`` deduplicates the
relations as it does the Segre minors; they are cached per (k, N) as read-only
flat integer term arrays that ``check_relations`` evaluates in one expression
for both backends and ``pluecker_relations`` slices.

The measure reads "square root of the sum of each coordinate times its
conjugate" (an l2 norm of the coordinate vector).  A literal product over all
coordinates would vanish for almost every state, so the l2 reading is the one
implemented, scaled by 2 so the two-qubit case reproduces the concurrence.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .errors import IndexOutOfRange, MissingVariable, NonFinite, ShapeError, TooLarge, WrongShape
from .gaussrat import GR_MINUS_ONE, GR_ONE, GR_ZERO, GaussRat, Scalar, is_int
from .poly import MultiPoly, PluVar, pair_monomials
from .segre import check_terms, split_terms, unique_rows
from .states import (Bipartition, PureState, _check_finite, _complex_array, amplitude_array,
                     amplitudes_to_json, gauss_ints, scale_parts)

DEFAULT_MAX_CHOOSE = 10000


@dataclass(frozen=True)
class PlueckerSet:
    """The C(N, k) maximal minors of a k x N matrix, keyed by sorted subsets."""

    k: int
    N: int
    coords: dict[tuple[int, ...], Scalar]

    @property
    def exact(self) -> bool:
        """True iff every coordinate is exact, the rule of ``states.amplitude_array``."""
        return all(isinstance(v, GaussRat) for v in self.coords.values())

    def get(self, indices) -> Scalar:
        """Coordinate for an arbitrary index list: 0 on repeats, signed on
        out-of-order indices (parity of the sorting permutation)."""
        indices = tuple(indices)
        if len(set(indices)) != len(indices):
            return GR_ZERO if self.exact else 0j
        key = tuple(sorted(indices))
        if key not in self.coords:
            raise IndexOutOfRange(f"no coordinate {indices} in G({self.k},{self.N})")
        value = self.coords[key]
        return value if _parity(indices) == 0 else -value


@dataclass(frozen=True)
class PlueckerRelation:
    """One quadric of the relation family, with the (I, J) pair it came from."""

    poly: MultiPoly
    I: tuple[int, ...]
    J: tuple[int, ...]


def _parity(indices: tuple[int, ...]) -> int:
    inv = sum(1 for a, b in itertools.combinations(indices, 2) if a > b)
    return inv % 2


def _coerce_matrix(mat) -> np.ndarray:
    try:
        rows = [list(r) for r in mat]
    except TypeError:
        raise ShapeError("matrix must be a sequence of rows") from None
    if not rows or not rows[0]:
        raise ShapeError("matrix must be nonempty")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ShapeError("ragged matrix")
    return amplitude_array([x for r in rows for x in r], (len(rows), width), "matrix")


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
        scale = den**k
        return [GaussRat(Fraction(x, scale), Fraction(y, scale))
                for x, y in zip(p_re.tolist(), p_im.tolist())]
    coords = p_re.astype(np.complex128)
    coords.imag = p_im
    _check_finite(coords, "coords")
    return coords.tolist()


def pluecker_coordinates(mat) -> PlueckerSet:
    """All k x k column minors of a k x N matrix (k < N); exact for exact input.

    Raises TooLarge when the widest level of the expansion, C(N, min(k, N // 2))
    minors, exceeds DEFAULT_MAX_CHOOSE, and NonFinite when a float minor, or a
    product on the way to it, is beyond the float range.
    """
    mat = _coerce_matrix(mat)
    k, n = mat.shape
    if k >= n:
        raise ShapeError(f"need k < N, got k={k}, N={n}")
    widest = min(k, n // 2)
    if comb(n, widest) > DEFAULT_MAX_CHOOSE:
        raise TooLarge(f"C({n},{widest}) = {comb(n, widest)} minors per row exceeds cap {DEFAULT_MAX_CHOOSE}")
    subsets = itertools.combinations(range(1, n + 1), k)
    return PlueckerSet(k, n, dict(zip(subsets, _maximal_minors(mat))))


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
    coefficient is positive (``sign_canonical``); the relations are sorted
    like the polynomials' sorted terms, and each keeps the first (I, J) that
    produced it.  The arrays are read-only.  The shape and the caps, C(N, k)
    at most DEFAULT_MAX_CHOOSE and the (I, J, t) entries at most
    ``segre.MAX_TERMS``, are checked on every call; the family itself is built
    once per (k, N).
    """
    if not (is_int(k) and is_int(N)) or k < 1 or k >= N:
        raise ShapeError(f"need 1 <= k < N, got k={k}, N={N}")
    if comb(N, k) > DEFAULT_MAX_CHOOSE:
        raise TooLarge(f"C({N},{k}) = {comb(N, k)} exceeds cap {DEFAULT_MAX_CHOOSE}")
    check_terms(_relation_term_count(k, N), f"the relation family of G({k},{N})")
    return _relation_family(k, N)


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
    mono = pair_monomials([PluVar(subset) for subset in itertools.combinations(range(1, N + 1), k)])
    coeff = {1: GR_ONE, -1: GR_MINUS_ONE}
    terms = [(mono(x, y), coeff[z]) for x, y, z in zip(a.tolist(), b.tolist(), c.tolist())]
    bounds = np.searchsorted(rel, range(len(pairs) + 1)).tolist()
    return [PlueckerRelation(MultiPoly(dict(terms[i:j])), *pair)
            for i, j, pair in zip(bounds, bounds[1:], pairs)]


def check_relations(ps: PlueckerSet):
    """Max |relation(coords)| over the relation family; exact 0 for minors.

    A set that mixes exact and float coordinates takes the float backend,
    as in ``states.amplitude_array``.  One expression for both backends on
    the parts from ``states.gauss_ints``:
    every term c * P_A * P_B at once, each relation's terms added in order
    (``np.add.at``), and the worst |value|^2 divided by den^4 once.  Float
    parts are divided by a power of two first (``states.scale_parts``), so no
    product overflows; NonFinite only when the residual is not a finite float.
    """
    a, b, c, rel, pairs = _relation_terms(ps.k, ps.N)
    vals = []
    for subset in itertools.combinations(range(1, ps.N + 1), ps.k):
        if subset not in ps.coords:
            raise MissingVariable(f"no value for {PluVar(subset)}")
        vals.append(ps.coords[subset])
    exact = ps.exact
    re, im, den = gauss_ints(np.array(vals, dtype=object) if exact else _complex_array(vals, "coords"))
    re, im, e = (re, im, 0) if exact else scale_parts(re, im)
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
        raise IndexOutOfRange(f"pivot {pivot!r} is not an int in 1..{s.num_modes}")
    (term,) = split_terms(s, [Bipartition((pivot,))])
    return 2.0 * math.sqrt(float(term))


def pluecker_set_to_json(ps: PlueckerSet) -> dict:
    subsets = sorted(ps.coords)
    pairs = amplitudes_to_json(np.array([ps.coords[subset] for subset in subsets]))
    coords = [{"I": list(subset), "re": re, "im": im} for subset, (re, im) in zip(subsets, pairs)]
    return {"k": ps.k, "N": ps.N, "coords": coords}
