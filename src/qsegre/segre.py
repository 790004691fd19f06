"""Determinantal ideal of the product-state locus, measures and factor recovery.

The fully separable states are exactly the rank-1 points of every bipartition
flattening, so the ideal is generated by all 2x2 flattening minors.  The
measure aggregates, per bipartition, the sum of squared minor moduli, which
equals the pair-product sum of squared singular values of the flattening:

    sum_{2x2 minors} |det|^2 = sum_{i<j} sigma_i^2 sigma_j^2
                             = (||M||_F^4 - ||M M*||_F^2) / 2.

``minor_sum`` is the one definition of that quantity, and it runs one private
kernel per backend.  The exact kernel clears denominators once and evaluates
the right-hand Gram identity over Gaussian integers, giving one Fraction.  The
float kernel evaluates the same Gram identity, with the Gram matrix taken on
the smaller side of the matrix, and keeps it when the result exceeds
``GRAM_CUTOFF * ||M||_F^4``.  Its absolute error is a few units of rounding
times ``||M||_F^4``, so above the cutoff the relative error stays within
about 1e-12.  Below it, near rank-1 matrices where the identity cancels, the
kernel returns the singular-value form instead.  ``split_terms`` runs the
same kernels on the flat matrices of an array it has already validated,
clearing an exact state's denominators once for every split, and every
measure and separability predicate reduces over it.  ``minor_sum_direct``
enumerates the minors and is the oracle for both kernels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .errors import NotProduct, TooLarge, WrongShape
from .gaussrat import GR_MINUS_ONE, GR_ONE, Scalar
from .poly import MultiPoly, StateVar, pair_monomials
from .states import (
    DEFAULT_MAX_AMPS,
    Bipartition,
    Flattening,
    LocalState,
    PureState,
    canonical_bipartitions,
    check_tol,
    flat_matrix,
    gauss_ints,
    normalize,
)

DEFAULT_TOL = 1e-10
# The most raw terms a family build may enumerate before it deduplicates: 2x2
# minor keys here, (I, J, t) entries in ``grassmann``.  It admits every golden
# family and benchmark rung, and 2^8 (1.7M) and G(5, 12) (2.7M), which take
# seconds and hundreds of MB; 2^10 (119M) would take GBs.
MAX_TERMS = 2**22
# Float minor sums at or below this fraction of ||M||_F^4 are recomputed from
# the singular values: the Gram identity's absolute error is ~1e-16 ||M||_F^4.
GRAM_CUTOFF = 1e-4


@dataclass(frozen=True)
class SegreIdeal:
    """Degree-2 generators of the product-state ideal for given dims."""

    dims: tuple[int, ...]
    gens: tuple[MultiPoly, ...]

    def __len__(self):
        return len(self.gens)


@dataclass(frozen=True)
class MeasureReport:
    """Measure value plus the per-bipartition minor sums it averages."""

    value: float
    per_bipartition: dict[Bipartition, float]


def _minor_keys(dims: tuple[int, ...]) -> np.ndarray:
    """Distinct 2x2 flattening minors as sorted rows (p, q, r, s).

    Entries are row-major amplitude offsets; a row stands for the binomial
    a_p a_q - a_r a_s with p < q, r < s and p < r.  Offsets order like the
    multi-indices they encode, so the rows sort like the generators' sorted
    terms, and the leading monomial a_p a_q takes +1 as in ``sign_canonical``.
    """
    offsets = np.arange(math.prod(dims), dtype=np.int64).reshape(dims)
    keys = []
    for b in canonical_bipartitions(len(dims)):
        mat = flat_matrix(offsets, b)
        r1, r2 = (r[:, None] for r in np.triu_indices(mat.shape[0], 1))
        c1, c2 = np.triu_indices(mat.shape[1], 1)
        # offsets grow along every row and column, so the diagonal a_p a_q of
        # the minor on rows r1 < r2 and columns c1 < c2 holds the smallest
        # offset and is the leading monomial
        p, q, c, d = np.broadcast_arrays(mat[r1, c1], mat[r2, c2], mat[r1, c2], mat[r2, c1])
        keys.append(np.stack([p, q, np.minimum(c, d), np.maximum(c, d)], axis=-1).reshape(-1, 4))
    return unique_rows(np.concatenate(keys))[0]


def unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A 2-d array's distinct rows, sorted, and each one's first index (stable sort)."""
    order = np.lexsort(rows.T[::-1])  # np.unique(axis=0) sorts the same, 7x slower
    rows = rows[order]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep], order[keep]


def check_terms(count: int, family: str) -> None:
    """Raise TooLarge, naming the count and the cap, when ``count`` exceeds MAX_TERMS."""
    if count > MAX_TERMS:
        raise TooLarge(f"{family} has {count} raw terms, exceeds cap {MAX_TERMS}")


def _minor_key_count(dims: tuple[int, ...]) -> int:
    """The rows ``_minor_keys`` builds before it deduplicates, in closed form.

    A split with R rows and C = P / R columns has C(R, 2) C(C, 2) =
    P (P + 1 - R - C) / 4 minors.  Over the 2^(m-1) - 1 canonical splits the
    row counts R add up to d1 (A - B) and the column counts C to A - 1, with
    A = prod_{j>=2} (1 + d_j) and B = prod_{j>=2} d_j.
    """
    p, a, b = math.prod(dims), math.prod(d + 1 for d in dims[1:]), math.prod(dims[1:])
    return p * ((p + 1) * (2 ** (len(dims) - 1) - 1) - dims[0] * (a - b) - (a - 1)) // 4


def segre_generators(dims) -> SegreIdeal:
    """All distinct 2x2 minors of all canonical-bipartition flattenings.

    Generators are sign-canonical (leading monomial positive), deduplicated,
    and sorted; each is homogeneous of degree 2 and vanishes identically on
    the image of the Segre map.  The minors are enumerated as integer keys
    and only the surviving ones become polynomials.  Raises TooLarge when
    prod(dims) exceeds DEFAULT_MAX_AMPS or the minor keys MAX_TERMS.
    """
    dims = tuple(dims)
    if len(dims) < 2:
        raise WrongShape(f"need >= 2 modes, got {len(dims)}")
    if any(not isinstance(d, int) or d < 2 for d in dims):
        raise WrongShape(f"mode dimensions must be integers >= 2, got {dims}")
    if math.prod(dims) > DEFAULT_MAX_AMPS:
        raise TooLarge(f"prod(dims) = {math.prod(dims)} exceeds cap {DEFAULT_MAX_AMPS}")
    check_terms(_minor_key_count(dims), f"the Segre ideal of dims {dims}")
    mono = pair_monomials([StateVar(index) for index in itertools.product(*(range(d) for d in dims))])
    gens = tuple(
        MultiPoly({mono(p, q): GR_ONE, mono(r, s): GR_MINUS_ONE})
        for p, q, r, s in _minor_keys(dims).tolist()
    )
    return SegreIdeal(dims, gens)


def state_assignment(s: PureState) -> dict[StateVar, Scalar]:
    """Map each amplitude variable to the state's value there."""
    indices = itertools.product(*(range(d) for d in s.dims))
    return {StateVar(index): a for index, a in zip(indices, s.amps)}


def _float_minor_sum(mat: np.ndarray) -> float:
    """Minor sum of a complex128 matrix: Gram identity, singular values where it cancels."""
    h = mat.conj().T
    g = mat @ h if mat.shape[0] <= mat.shape[1] else h @ mat
    fro4 = g.trace().real ** 2
    val = (fro4 - np.vdot(g, g).real) / 2
    if val > GRAM_CUTOFF * fro4:
        return float(val)
    s2 = np.linalg.svd(mat, compute_uv=False) ** 2
    return float(np.sum(s2[1:] * np.cumsum(s2)[:-1]))


def _twice_int_minor_sum(a: np.ndarray, c: np.ndarray) -> int:
    """Twice the minor sum of the Gaussian-integer matrix A + iC, an int.

    The Gram matrix is taken on the smaller side:
    A A^T + C C^T + i (C A^T - A C^T), whose trace is ||A + iC||_F^2.
    """
    if a.shape[0] > a.shape[1]:
        a, c = a.T, c.T
    g_re = a @ a.T + c @ c.T
    x = c @ a.T
    g_im = x - x.T
    n = int(g_re.trace())
    return n * n - int((g_re * g_re + g_im * g_im).sum())


def minor_sum(f: Flattening):
    """Sum of squared moduli of all 2x2 minors of the flattening.

    Exact: the Gram identity in integers over the common denominator of the
    entries, a Fraction.  Float: the Gram identity when it is above
    ``GRAM_CUTOFF * ||M||_F^4``, else sum_{i<j} sigma_i^2 sigma_j^2 over the
    singular values, which does not cancel near rank-1 matrices.
    """
    if f.exact:
        a, c, den = gauss_ints(f.entries)
        return Fraction(_twice_int_minor_sum(a, c), 2 * den ** 4)
    return _float_minor_sum(f.entries)


def minor_sum_direct(f: Flattening):
    """Brute-force enumeration of all 2x2 minors; oracle for minor_sum."""
    if f.exact:
        total = Fraction(0)
        for (i, ri), (j, rj) in itertools.combinations(enumerate(f.entries), 2):
            for k, l in itertools.combinations(range(f.cols), 2):
                total += (ri[k] * rj[l] - ri[l] * rj[k]).abs_sq()
        return total
    mat = f.entries
    total = 0.0
    for i, j in itertools.combinations(range(f.rows), 2):
        for k, l in itertools.combinations(range(f.cols), 2):
            total += abs(mat[i, k] * mat[j, l] - mat[i, l] * mat[j, k]) ** 2
    return total


def split_terms(s: PureState, splits: Iterable[Bipartition]) -> Iterator:
    """Lazily yield the normalized state's ``minor_sum`` at each split, in order.

    The kernels run on :func:`~qsegre.states.flat_matrix` views of the
    already validated state, not on new Flattenings.  Float states are
    normalized once.  An exact state's norm may be irrational, so its
    denominators are cleared once, to A + iC with n = ||A + iC||_F^2, and
    each term is (n^2 - ||G||_F^2) / (2 n^2): the denominators cancel.
    """
    if s.exact:
        a, c, _ = gauss_ints(s.array)
        n2 = 2 * int((a * a + c * c).sum()) ** 2
        return (Fraction(_twice_int_minor_sum(flat_matrix(a, b), flat_matrix(c, b)), n2) for b in splits)
    hat = normalize(s).array
    return (_float_minor_sum(flat_matrix(hat, b)) for b in splits)


def generalized_concurrence(s: PureState) -> MeasureReport:
    """2 * sqrt(mean over canonical bipartitions of the flattening minor sum).

    Normalizes internally; scale- and LU-invariant; zero exactly on the
    product states.  Reduces to the two-qubit concurrence at m = 2.
    """
    if s.num_modes < 2:
        raise WrongShape("measure needs >= 2 modes")
    parts = canonical_bipartitions(s.num_modes)
    terms = dict(zip(parts, split_terms(s, parts)))
    mean = sum(terms.values()) / len(parts)
    value = 2.0 * math.sqrt(float(mean))
    return MeasureReport(value, {b: float(t) for b, t in terms.items()})


def concurrence2(s: PureState) -> float:
    """Two-qubit concurrence 2|a00*a11 - a01*a10| of the normalized state."""
    if s.dims != (2, 2):
        raise WrongShape(f"concurrence2 needs dims (2, 2), got {s.dims}")
    return generalized_concurrence(s).value


def is_bipartite_separable(s: PureState, b: Bipartition, tol: float = DEFAULT_TOL) -> bool:
    """True iff the flattening at b is rank-1 within tol (minor sum <= tol^2)."""
    check_tol(tol)
    (term,) = split_terms(s, [b])
    return term <= tol * tol


def is_fully_separable(s: PureState, tol: float = DEFAULT_TOL) -> bool:
    """True iff every canonical bipartition is separable at tol.

    Each split term is half the linear entropy of a reduced state, which is
    subadditive, and a split or its complement has at most m // 2 modes.  So
    the m one-mode terms decide: any of them above tol^2 fails, and the
    m // 2 largest summing to at most tol^2 passes.  Only in between are the
    canonical splits reduced one by one.
    """
    check_tol(tol)
    m = s.num_modes
    bound = tol * tol
    singles = []
    for t in split_terms(s, [Bipartition((k,)) for k in range(1, m + 1)] if m > 1 else []):
        if t > bound:
            return False
        singles.append(t)
    if sum(sorted(singles)[m - m // 2:]) <= bound:
        return True
    return all(t <= bound for t in split_terms(s, canonical_bipartitions(m)))


def local_factors(s: PureState, tol: float) -> list[LocalState]:
    """Invert the Segre map through the max-modulus pivot fiber.

    Raises NotProduct exactly when ``is_fully_separable(s, tol)`` is False.
    Factor j is the amplitude fiber through the pivot with the j-th index
    varying, scaled to 1 at the pivot if exact and to unit norm if float.
    """
    if not is_fully_separable(s, tol):
        raise NotProduct(f"state is not fully separable at tol {tol!r}")
    if s.num_modes == 1:
        return [LocalState(normalize(s).array)]
    hat = s if s.exact else normalize(s)
    re, im, _ = gauss_ints(hat.array)
    pivot = np.unravel_index(int(np.argmax(re * re + im * im)), s.dims)  # first on ties
    pv = hat.array[pivot]
    fibers = [hat.array[pivot[:j] + (slice(None),) + pivot[j + 1:]] for j in range(s.num_modes)]
    return [LocalState(v / (pv if s.exact else np.linalg.norm(v))) for v in fibers]


def measure_report_to_json(r: MeasureReport) -> dict:
    per = [
        {"left": list(b.left), "term": t}
        for b, t in sorted(r.per_bipartition.items(), key=lambda bt: bt[0].left)
    ]
    return {"value": r.value, "per_bipartition": per}
