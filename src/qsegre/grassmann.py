"""Plucker coordinates, the quadratic relations cutting out G(k, N), and the
Plucker entanglement measure for multi-qubit states.

Coordinates P_I are the maximal minors of a k x N matrix, labeled by strictly
increasing k-subsets I of {1..N}.  They are computed all at once, one row at a
time, by Laplace expansion along the last row: with P_r(S) the minor on the
top r+1 rows and the columns S = (s_0 < ... < s_r),

    P_r(S) = sum_t (-1)^(r+t) M[r, s_t] P_{r-1}(S without s_t),  P_{-1}() = 1.

Each level is one numpy expression over index arrays that depend only on
(k, N).  The expansion only multiplies and adds, so it needs no pivot and no
division: an exact matrix is cleared to Gaussian integers once
(``states.gauss_ints``) and divided by den^k at the end, and both backends run
the same loop on separate real and imaginary parts.  Level r holds
C(N, r+1) minors, so the widest level has C(N, min(k, N // 2)); that count
is capped like the relation family's C(N, k).

The relation family is generated from all increasing index pairs (I, J) with
|I| = k-1, |J| = k+1; each term resolves repeated indices to zero and
out-of-order indices by permutation sign, and the surviving polynomials are
sign-canonicalized and deduplicated.

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

from .errors import IndexOutOfRange, MissingVariable, ShapeError, TooLarge, WrongShape
from .gaussrat import GR_MINUS_ONE, GR_ONE, GR_ZERO, GaussRat, Scalar
from .poly import MultiPoly, PluVar, pair_monomials
from .segre import split_terms
from .states import Bipartition, PureState, _check_finite, amplitude_array, gauss_ints

DEFAULT_MAX_CHOOSE = 10000


@dataclass(frozen=True)
class PlueckerSet:
    """The C(N, k) maximal minors of a k x N matrix, keyed by sorted subsets."""

    k: int
    N: int
    coords: dict[tuple[int, ...], Scalar]

    @property
    def exact(self) -> bool:
        return isinstance(next(iter(self.coords.values())), GaussRat)

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
    exact = mat.dtype == object
    re, im, den = gauss_ints(mat) if exact else (mat.real, mat.imag, 1)
    p_re, p_im = np.ones(1, re.dtype), np.zeros(1, re.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for row_re, row_im, (cols, drops, sign) in zip(re, im, _minor_plan(k, n)):
            a, b, c, d = row_re[cols], row_im[cols], p_re[drops], p_im[drops]
            sign = sign.astype(re.dtype)
            p_re, p_im = (a * c - b * d) @ sign, (a * d + b * c) @ sign
    if exact:
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
RelationTerms = tuple[tuple[tuple[int, int], int], ...]


def _relation_terms(k: int, N: int, max_choose: int) -> tuple[tuple[RelationTerms, Subset, Subset], ...]:
    """The relation family as integer terms, with the (I, J) each came from.

    A relation is a tuple of ((a, b), c): coefficient c on P_A P_B, where a < b
    are ranks of k-subsets in lexicographic order.  Terms are sorted and the
    first coefficient is positive (``sign_canonical``); the family is sorted
    like the polynomials' sorted terms, and a relation keeps the first (I, J)
    that produced it.  The shape and the cap are checked on every call; the
    family itself is built once per (k, N).
    """
    if k < 1 or k >= N:
        raise ShapeError(f"need 1 <= k < N, got k={k}, N={N}")
    if comb(N, k) > max_choose:
        raise TooLarge(f"C({N},{k}) = {comb(N, k)} exceeds cap {max_choose}")
    return _relation_family(k, N)


@functools.lru_cache(maxsize=64)
def _relation_family(k: int, N: int) -> tuple[tuple[RelationTerms, Subset, Subset], ...]:
    universe = range(1, N + 1)
    rank = {subset: r for r, subset in enumerate(itertools.combinations(universe, k))}
    # for each J, the rank of J without its t-th index and the sign (-1)^t, t from 1
    js = [(J, [(rank[J[:t] + J[t + 1:]], -1 if t % 2 == 0 else 1) for t in range(k + 1)])
          for J in itertools.combinations(universe, k + 1)]
    seen: dict[RelationTerms, tuple[Subset, Subset]] = {}
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
    return tuple((key, I, J) for key, (I, J) in sorted(seen.items()))


def pluecker_relations(k: int, N: int, max_choose: int = DEFAULT_MAX_CHOOSE) -> list[PlueckerRelation]:
    """The quadratic relation family for G(k, N).

    Each (I, J) with |I| = k-1 and |J| = k+1 contributes
    sum_t (-1)^t P_{I, j_t} P_{J \\ j_t}; zero polynomials are dropped and the
    rest deduplicated under sign.  For k = 1 the family is empty.  The terms
    are enumerated as integer keys and only the surviving relations become
    polynomials.
    """
    rels = _relation_terms(k, N, max_choose)
    mono = pair_monomials([PluVar(subset) for subset in itertools.combinations(range(1, N + 1), k)])
    coeff = {1: GR_ONE, -1: GR_MINUS_ONE}
    coeff.update((c, GaussRat(c)) for terms, _, _ in rels for _, c in terms if c not in coeff)
    return [
        PlueckerRelation(MultiPoly({mono(a, b): coeff[c] for (a, b), c in terms}), I, J)
        for terms, I, J in rels
    ]


def check_relations(ps: PlueckerSet, max_choose: int = DEFAULT_MAX_CHOOSE):
    """Max |relation(coords)| over the relation family; exact 0 for minors.

    Each relation is summed term by term in sorted-monomial order, straight
    from its integer terms.  Exact coordinates are cleared to Gaussian
    integers once (``states.gauss_ints``), each relation is summed in Python
    ints, and the worst |value|^2 is divided by den^4 at the end.
    """
    rels = _relation_terms(ps.k, ps.N, max_choose)
    if not rels:
        return Fraction(0) if ps.exact else 0.0
    vals = []
    for subset in itertools.combinations(range(1, ps.N + 1), ps.k):
        if subset not in ps.coords:
            raise MissingVariable(f"no value for {PluVar(subset)}")
        vals.append(ps.coords[subset])
    if ps.exact:
        re, im, den = gauss_ints(np.array(vals, dtype=object))
        re, im = re.tolist(), im.tolist()
        worst = 0
        for terms, _, _ in rels:
            x = y = 0
            for (a, b), c in terms:
                x += c * (re[a] * re[b] - im[a] * im[b])
                y += c * (re[a] * im[b] + im[a] * re[b])
            worst = max(worst, x * x + y * y)
        return Fraction(0) if worst == 0 else math.sqrt(float(Fraction(worst, den**4)))
    values = []
    for terms, _, _ in rels:
        total = 0j
        for (a, b), c in terms:
            total += c * vals[a] * vals[b]
        values.append(total)
    return max(abs(v) for v in values)


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
    coords = []
    for subset in sorted(ps.coords):
        v = ps.coords[subset]
        if ps.exact:
            coords.append({"I": list(subset), "re": str(v.re), "im": str(v.im)})
        else:
            coords.append({"I": list(subset), "re": v.real, "im": v.imag})
    return {"k": ps.k, "N": ps.N, "coords": coords}
