"""Determinantal ideal of the product-state locus and concurrence-type measures.

The fully separable states are exactly the rank-1 points of every bipartition
flattening, so the ideal is generated by all 2x2 flattening minors.  The
measure aggregates, per bipartition, the sum of squared minor moduli, which
equals the pair-product sum of squared singular values of the flattening:

    sum_{2x2 minors} |det|^2 = sum_{i<j} sigma_i^2 sigma_j^2
                             = (||M||_F^4 - ||M M*||_F^2) / 2.

``minor_sum`` uses the right-hand Gram identity (exact in the rational
backend).  In floats that identity cancels catastrophically near rank-1
matrices, so the measure and separability predicates evaluate the middle form
through singular values instead; all three forms are equal in exact
arithmetic and are cross-checked in the test suite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import TooLarge, WrongShape
from .gaussrat import GR_MINUS_ONE, GR_ONE, Scalar
from .poly import Monomial, MultiPoly, StateVar
from .states import (
    Bipartition,
    Flattening,
    PureState,
    abs_sq_sum,
    canonical_bipartitions,
    check_tol,
    flatten,
    normalize,
)

DEFAULT_MAX_AMPS = 4096
DEFAULT_TOL = 1e-10


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
    n = math.prod(dims)
    m = len(dims)
    offsets = np.arange(n, dtype=np.int64).reshape(dims)
    keys = []
    for b in canonical_bipartitions(m):
        left = [j - 1 for j in b.left]
        right = [j for j in range(m) if j + 1 not in b.left]
        rows = math.prod(dims[j] for j in left)
        mat = offsets.transpose(left + right).reshape(rows, -1)
        r1, r2 = (r[:, None] for r in np.triu_indices(rows, 1))
        c1, c2 = np.triu_indices(mat.shape[1], 1)
        # offsets grow along every row and column, so the diagonal a_p a_q of
        # the minor on rows r1 < r2 and columns c1 < c2 holds the smallest
        # offset and is the leading monomial
        p, q, c, d = np.broadcast_arrays(mat[r1, c1], mat[r2, c2], mat[r1, c2], mat[r2, c1])
        keys.append(np.stack([p, q, np.minimum(c, d), np.maximum(c, d)], axis=-1).reshape(-1, 4))
    keys = np.concatenate(keys)
    keys = keys[np.lexsort(keys.T[::-1])]  # np.unique(axis=0) sorts the same, 7x slower
    keep = np.ones(len(keys), dtype=bool)
    keep[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    return keys[keep]


def segre_generators(dims, max_amps: int = DEFAULT_MAX_AMPS) -> SegreIdeal:
    """All distinct 2x2 minors of all canonical-bipartition flattenings.

    Generators are sign-canonical (leading monomial positive), deduplicated,
    and sorted; each is homogeneous of degree 2 and vanishes identically on
    the image of the Segre map.  The minors are enumerated as integer keys
    and only the surviving ones become polynomials.
    """
    dims = tuple(dims)
    if len(dims) < 2:
        raise WrongShape(f"need >= 2 modes, got {len(dims)}")
    if any(not isinstance(d, int) or d < 2 for d in dims):
        raise WrongShape(f"mode dimensions must be integers >= 2, got {dims}")
    if math.prod(dims) > max_amps:
        raise TooLarge(f"prod(dims) = {math.prod(dims)} exceeds cap {max_amps}")
    var = [StateVar(index) for index in itertools.product(*(range(d) for d in dims))]
    gens = tuple(
        MultiPoly({Monomial(((var[p], 1), (var[q], 1))): GR_ONE,
                   Monomial(((var[r], 1), (var[s], 1))): GR_MINUS_ONE})
        for p, q, r, s in _minor_keys(dims).tolist()
    )
    return SegreIdeal(dims, gens)


def state_assignment(s: PureState) -> dict[StateVar, Scalar]:
    """Map each amplitude variable to the state's value there."""
    out = {}
    for pos, index in enumerate(itertools.product(*(range(d) for d in s.dims))):
        out[StateVar(index)] = s.amps[pos]
    return out


def minor_sum(f: Flattening):
    """Sum of squared moduli of all 2x2 minors, via the Gram identity.

    One path for both backends; only the abs-square sums differ (exact
    Fraction in the rational backend).  The float value is clamped at zero
    but inherits the identity's cancellation near rank-1 matrices; measures
    use the singular-value form instead.
    """
    mat = f.entries
    fro2 = abs_sq_sum(mat)
    val = (fro2 * fro2 - abs_sq_sum(mat @ mat.conj().T)) / 2
    return val if f.exact else max(val, 0.0)


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


def _spectral_minor_sum(mat: np.ndarray) -> float:
    """sum_{i<j} sigma_i^2 sigma_j^2 without cancellation (float backend)."""
    s2 = np.linalg.svd(mat, compute_uv=False) ** 2
    if s2.size < 2:
        return 0.0
    prefix = np.cumsum(s2)
    return float(np.sum(s2[1:] * prefix[:-1]))


def bipartition_term(s: PureState, b: Bipartition):
    """Minor sum of the normalized state's flattening at b.

    Exact backend: minor_sum of the raw flattening divided by ||s||^4, which
    equals the normalized minor sum exactly.  Float backend: singular-value
    evaluation on the normalized flattening.
    """
    if s.exact:
        n2 = s.norm_sq()
        return minor_sum(flatten(s, b)) / (n2 * n2)
    return _spectral_minor_sum(flatten(s, b).entries)


def generalized_concurrence(s: PureState) -> MeasureReport:
    """2 * sqrt(mean over canonical bipartitions of the flattening minor sum).

    Normalizes internally; scale- and LU-invariant; zero exactly on the
    product states.  Reduces to the two-qubit concurrence at m = 2.
    """
    if s.num_modes < 2:
        raise WrongShape("measure needs >= 2 modes")
    hat = s if s.exact else normalize(s)
    parts = canonical_bipartitions(s.num_modes)
    terms = {b: bipartition_term(hat, b) for b in parts}
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
    hat = s if s.exact else normalize(s)
    return bipartition_term(hat, b) <= tol * tol


def is_fully_separable(s: PureState, tol: float = DEFAULT_TOL) -> bool:
    """True iff every canonical bipartition is separable at tol."""
    check_tol(tol)
    if s.num_modes == 1:
        return True
    hat = s if s.exact else normalize(s)
    return all(bipartition_term(hat, b) <= tol * tol for b in canonical_bipartitions(s.num_modes))


def measure_report_to_json(r: MeasureReport) -> dict:
    per = [
        {"left": list(b.left), "term": t}
        for b, t in sorted(r.per_bipartition.items(), key=lambda bt: bt[0].left)
    ]
    return {"value": r.value, "per_bipartition": per}
