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
from .gaussrat import Scalar
from .poly import MultiPoly, StateVar
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


def _poly_sort_key(p: MultiPoly):
    return tuple((m.key(), (c.re, c.im)) for m, c in p.sorted_terms())


def segre_generators(dims, max_amps: int = DEFAULT_MAX_AMPS) -> SegreIdeal:
    """All distinct 2x2 minors of all canonical-bipartition flattenings.

    Generators are sign-canonical (leading monomial positive), deduplicated,
    and sorted; each is homogeneous of degree 2 and vanishes identically on
    the image of the Segre map.
    """
    dims = tuple(dims)
    if len(dims) < 2:
        raise WrongShape(f"need >= 2 modes, got {len(dims)}")
    if any(not isinstance(d, int) or d < 2 for d in dims):
        raise WrongShape(f"mode dimensions must be integers >= 2, got {dims}")
    if math.prod(dims) > max_amps:
        raise TooLarge(f"prod(dims) = {math.prod(dims)} exceeds cap {max_amps}")
    m = len(dims)
    seen: dict[MultiPoly, None] = {}
    for b in canonical_bipartitions(m):
        left = list(b.left)
        right = [j for j in range(1, m + 1) if j not in b.left]
        left_dims = [dims[j - 1] for j in left]
        right_dims = [dims[j - 1] for j in right]
        row_ids = list(itertools.product(*(range(d) for d in left_dims)))
        col_ids = list(itertools.product(*(range(d) for d in right_dims)))

        def var(rindex, cindex):
            out = [0] * m
            for j, i in zip(left, rindex):
                out[j - 1] = i
            for j, i in zip(right, cindex):
                out[j - 1] = i
            return MultiPoly.variable(StateVar(tuple(out)))

        for r1, r2 in itertools.combinations(row_ids, 2):
            for c1, c2 in itertools.combinations(col_ids, 2):
                minor = var(r1, c1) * var(r2, c2) - var(r1, c2) * var(r2, c1)
                seen.setdefault(minor.sign_canonical())
    gens = tuple(sorted(seen, key=_poly_sort_key))
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
