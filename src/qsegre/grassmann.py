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

The relation family is generated from all increasing index pairs (I, J) with
|I| = k-1, |J| = k+1; each term resolves repeated indices to zero and
out-of-order indices by permutation sign, and the surviving polynomials are
sign-canonicalized and deduplicated.  It is cached per (k, N) as read-only
flat integer term arrays: ``check_relations`` evaluates them in one
expression for both backends, and ``pluecker_relations`` slices them.

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
from .segre import split_terms
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


@functools.lru_cache(maxsize=64)
def _minor_plan(k: int, N: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Per row r: the (r+1)-subsets S of the columns, in lexicographic order;
    the rank of each S without its t-th column among the r-subsets; and the
    cofactor signs (-1)^(r+t)."""
    plan, rank = [], {(): 0}
    for r in range(k):
        subsets = list(itertools.combinations(range(N), r + 1))
        drops = [[rank[S[:t] + S[t + 1:]] for t in range(r + 1)] for S in subsets]
        rank = {S: i for i, S in enumerate(subsets)}
        plan.append((np.array(subsets), np.array(drops), (-1) ** (r + np.arange(r + 1))))
    return tuple(plan)


def _maximal_minors(mat: np.ndarray) -> list[Scalar]:
    """Every k x k column minor of the k x N ``mat``, columns in lexicographic order."""
    k, n = mat.shape
    re, im, den = gauss_ints(mat)
    p_re, p_im = np.ones(1, re.dtype), np.zeros(1, re.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for row_re, row_im, (cols, drops, sign) in zip(re, im, _minor_plan(k, n)):
            a, b, c, d = row_re[cols], row_im[cols], p_re[drops], p_im[drops]
            sign = sign.astype(re.dtype)
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


def _relation_terms(k: int, N: int, max_choose: int) -> RelationFamily:
    """The relation family as flat integer term arrays ``(a, b, c, rel)`` and
    the tuple of (I, J) pairs, one per relation.

    Term t is the coefficient c[t] on P_A P_B of relation rel[t], where
    a[t] < b[t] are the ranks of the k-subsets A and B in lexicographic order.
    Each relation's terms are consecutive and sorted, and its first
    coefficient is positive (``sign_canonical``); the relations are sorted
    like the polynomials' sorted terms, and each keeps the first (I, J) that
    produced it.  The arrays are read-only.  The shape and the cap are checked
    on every call; the family itself is built once per (k, N).
    """
    if not (is_int(k) and is_int(N)) or k < 1 or k >= N:
        raise ShapeError(f"need 1 <= k < N, got k={k}, N={N}")
    if comb(N, k) > max_choose:
        raise TooLarge(f"C({N},{k}) = {comb(N, k)} exceeds cap {max_choose}")
    return _relation_family(k, N)


@functools.lru_cache(maxsize=64)
def _relation_family(k: int, N: int) -> RelationFamily:
    universe = range(1, N + 1)
    rank = {subset: r for r, subset in enumerate(itertools.combinations(universe, k))}
    # for each J, the rank of J without its t-th index and the sign (-1)^t, t from 1
    js = [(J, [(rank[J[:t] + J[t + 1:]], -1 if t % 2 == 0 else 1) for t in range(k + 1)])
          for J in itertools.combinations(universe, k + 1)]
    seen: dict[tuple, tuple[Subset, Subset]] = {}
    for I in itertools.combinations(universe, k - 1):
        # P_{I, j} = sign * P_{sorted(I + j)}: the sign is the parity of the
        # indices of I above j, which moving j into place passes
        inserted = {j: (rank[tuple(sorted(I + (j,)))], (-1) ** sum(1 for i in I if i > j))
                    for j in universe if j not in I}
        for J, drops in js:
            terms: dict[tuple[int, int], int] = {}
            for jt, (rest, sign) in zip(J, drops):
                if jt not in inserted:
                    continue  # repeated index: coordinate is zero
                first, coeff = inserted[jt]
                mono = (first, rest) if first < rest else (rest, first)
                acc = terms.get(mono, 0) + sign * coeff
                if acc:
                    terms[mono] = acc
                else:
                    terms.pop(mono, None)
            if not terms:
                continue
            key = tuple(sorted(terms.items()))
            if key[0][1] < 0:
                key = tuple((mono, -c) for mono, c in key)
            seen.setdefault(key, (I, J))
    family = sorted(seen.items())
    rows = [(a, b, c, r) for r, (key, _) in enumerate(family) for (a, b), c in key]
    cols = np.array(rows, dtype=np.int64).reshape(-1, 4).T.copy()
    cols.flags.writeable = False
    return (*cols, tuple(pair for _, pair in family))


def pluecker_relations(k: int, N: int, max_choose: int = DEFAULT_MAX_CHOOSE) -> list[PlueckerRelation]:
    """The quadratic relation family for G(k, N).

    Each (I, J) with |I| = k-1 and |J| = k+1 contributes
    sum_t (-1)^t P_{I, j_t} P_{J \\ j_t}; zero polynomials are dropped and the
    rest deduplicated under sign.  For k = 1 the family is empty.  The terms
    are enumerated as integer keys and only the surviving relations become
    polynomials, each from its slice of the family's term arrays.
    """
    a, b, c, rel, pairs = _relation_terms(k, N, max_choose)
    mono = pair_monomials([PluVar(subset) for subset in itertools.combinations(range(1, N + 1), k)])
    coeff = {z: GaussRat(z) for z in set(c.tolist())} | {1: GR_ONE, -1: GR_MINUS_ONE}
    terms = [(mono(x, y), coeff[z]) for x, y, z in zip(a.tolist(), b.tolist(), c.tolist())]
    bounds = np.searchsorted(rel, range(len(pairs) + 1)).tolist()
    return [PlueckerRelation(MultiPoly(dict(terms[i:j])), *pair)
            for i, j, pair in zip(bounds, bounds[1:], pairs)]


def check_relations(ps: PlueckerSet, max_choose: int = DEFAULT_MAX_CHOOSE):
    """Max |relation(coords)| over the relation family; exact 0 for minors.

    A set that mixes exact and float coordinates takes the float backend,
    as in ``states.amplitude_array``.  One expression for both backends on
    the parts from ``states.gauss_ints``:
    every term c * P_A * P_B at once, each relation's terms added in order
    (``np.add.at``), and the worst |value|^2 divided by den^4 once.  Float
    parts are divided by a power of two first (``states.scale_parts``), so no
    product overflows; NonFinite only when the residual is not a finite float.
    """
    a, b, c, rel, pairs = _relation_terms(ps.k, ps.N, max_choose)
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
    if not 1 <= pivot <= s.num_modes:
        raise IndexOutOfRange(f"pivot {pivot} out of range 1..{s.num_modes}")
    (term,) = split_terms(s, [Bipartition((pivot,))])
    return 2.0 * math.sqrt(float(term))


def pluecker_set_to_json(ps: PlueckerSet) -> dict:
    subsets = sorted(ps.coords)
    pairs = amplitudes_to_json(np.array([ps.coords[subset] for subset in subsets]))
    coords = [{"I": list(subset), "re": re, "im": im} for subset, (re, im) in zip(subsets, pairs)]
    return {"k": ps.k, "N": ps.N, "coords": coords}
