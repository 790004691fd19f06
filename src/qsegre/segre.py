"""Determinantal ideal of the product-state locus, measures and factor recovery.

The fully separable states are exactly the rank-1 points of every bipartition
flattening, so the ideal is generated by all 2x2 flattening minors.  The
measure aggregates, per bipartition, the sum of squared minor moduli, which
equals the pair-product sum of squared singular values of the flattening:

    sum_{2x2 minors} |det|^2 = sum_{i<j} sigma_i^2 sigma_j^2
                             = (||M||_F^4 - ||M M*||_F^2) / 2.

``minor_sum`` is the one definition of that quantity, and it runs one private
kernel per backend.  The exact kernel clears denominators once and evaluates
the right-hand Gram identity over Gaussian integers A + iC, giving one
Fraction.  With n = ||A + iC||_F^2, Cauchy-Schwarz bounds every Gram entry and
every partial sum of one by n, and the imaginary part C A^T - A C^T by 2n, so
the parts run on int64 when 2n < 2**63 (``states.narrow_ints``, the one dtype
rule) and stay ``object`` arrays of Python ints otherwise; the squares of the
entries reach n^2 and always take Python ints.  The
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

``generalized_concurrence`` takes the m one-mode splits first.  When an
exact state's terms there are all exactly 0, every one-mode flattening has
rank 1, the state is a product, and the other terms are 0 without being
computed.  Float terms of a product state are rounding-level, not 0, so a
float state has every split computed and reported.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .errors import MAX_AMPS, MAX_TERMS, NotProduct, WrongShape, check_cap, short_text
from .gaussrat import GR_MINUS_ONE, GR_ONE, Scalar
from .poly import MultiPoly, StateVar, pair_monomials
from .states import (
    Bipartition,
    Flattening,
    LocalState,
    PureState,
    canonical_bipartitions,
    check_tol,
    flat_matrix,
    gauss_ints,
    gauss_rats,
    narrow_ints,
    normalize,
)

DEFAULT_TOL = 1e-10
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
    """The Segre ideal's generators as sorted rows (p, q, r, s), each built once.

    Entries are row-major amplitude offsets; a row stands for the binomial
    a_p a_q - a_r a_s with p < q, r < s and p < r.  Offsets order like the
    multi-indices they encode, so the rows sort like the generators' sorted
    terms, and the leading monomial a_p a_q takes +1 as in ``sign_canonical``.

    A generator is fixed by the modes D where its diagonal x, y differs and
    the part S of D, holding min D, where x' of the antidiagonal x', y'
    agrees with x.  A split's minor is kept only when its columns differ in
    every column mode (B is in D) and its rows first differ in a mode below
    min B (min D is in A), which holds on the one split A = S + (modes
    outside D), B = D - S; so no generator is built twice.
    """
    offsets = np.arange(math.prod(dims), dtype=np.int64).reshape(dims)
    keys = []
    for b in canonical_bipartitions(len(dims)):
        mat = flat_matrix(offsets, b)
        right = b.complement(len(dims))
        # rows r1 < r2 whose prefixes over the modes below min B differ
        prefix = np.arange(mat.shape[0]) // math.prod(dims[j - 1] for j in b.left if j > right[0])
        r1, r2 = (r[:, None] for r in np.nonzero(np.less.outer(prefix, prefix)))
        # columns c1 < c2 that differ in every mode of B (the first one orders them)
        digits = np.indices([dims[j - 1] for j in right]).reshape(len(right), -1)
        differ = (digits[1:, :, None] != digits[1:, None, :]).all(axis=0)
        c1, c2 = np.nonzero(np.less.outer(digits[0], digits[0]) & differ)
        # offsets grow along every row and column, so the diagonal a_p a_q of
        # the minor on rows r1 < r2 and columns c1 < c2 holds the smallest
        # offset and is the leading monomial
        p, q, c, d = np.broadcast_arrays(mat[r1, c1], mat[r2, c2], mat[r1, c2], mat[r2, c1])
        keys.append(np.stack([p, q, np.minimum(c, d), np.maximum(c, d)], axis=-1).reshape(-1, 4))
    keys = np.concatenate(keys)
    return keys[np.lexsort(keys.T[::-1])]


def _minor_key_count(dims: tuple[int, ...]) -> int:
    """The rows ``_minor_keys`` builds, one per generator, in closed form.

    The X_D = P prod_{j in D} (d_j - 1) ordered pairs x, y that differ on
    the modes D have 2^(|D|-1) - 1 partners each, and a generator comes from
    four such pairs, so the count is sum_{D nonempty} (2^(|D|-1) - 1) X_D / 4.
    Over all D, 2^|D| X_D sums to P prod (2 d_j - 1) and X_D to P^2, with
    P = prod(dims).
    """
    p = math.prod(dims)
    return p * (math.prod(2 * d - 1 for d in dims) - 2 * p + 1) // 8


def segre_generators(dims) -> SegreIdeal:
    """All distinct 2x2 minors of all canonical-bipartition flattenings.

    Generators are sign-canonical (leading monomial positive), distinct and
    sorted; each is homogeneous of degree 2 and vanishes identically on the
    image of the Segre map.  They are enumerated once each as integer keys,
    and then become polynomials.  Raises TooLarge when prod(dims) exceeds
    MAX_AMPS or the generator count MAX_TERMS.
    """
    dims = tuple(dims)
    if len(dims) < 2:
        raise WrongShape(f"need >= 2 modes, got {len(dims)}")
    if any(not isinstance(d, int) or d < 2 for d in dims):
        raise WrongShape(f"mode dimensions must be integers >= 2, got {short_text(dims)}")
    check_cap("prod(dims)", dims, MAX_AMPS)
    check_cap(f"generators of the Segre ideal of dims {dims}", (_minor_key_count(dims),), MAX_TERMS)
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
    A A^T + C C^T + i (C A^T - A C^T), whose trace is n = ||A + iC||_F^2.
    By Cauchy-Schwarz every Gram entry and every partial sum of one is at
    most n in modulus, and an entry of the imaginary part at most 2n, so the
    parts may be int64 when n < 2**62 (``_gram_parts``); the squares reach
    n^2 and take Python ints.
    """
    if a.shape[0] > a.shape[1]:
        a, c = a.T, c.T
    g_re = a @ a.T + c @ c.T
    x = c @ a.T
    g_im = x - x.T
    n = int(g_re.trace())
    g = np.concatenate((g_re, g_im), axis=None).astype(object)
    return n * n - int(g.dot(g))


def _gram_parts(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, int]:
    """An exact array's ``gauss_ints`` parts A, C in the Gram kernel's dtype,
    n = ||A + iC||_F^2 and the denominator.  The kernel forms values up to 2n
    before it squares them, so the parts are int64 when n < 2**62."""
    a, c, den = gauss_ints(arr)
    n = int((a * a + c * c).sum())
    return *narrow_ints(2 * n, a, c), n, den


def minor_sum(f: Flattening):
    """Sum of squared moduli of all 2x2 minors of the flattening.

    Exact: the Gram identity in integers over the common denominator of the
    entries, a Fraction.  Float: the Gram identity when it is above
    ``GRAM_CUTOFF * ||M||_F^4``, else sum_{i<j} sigma_i^2 sigma_j^2 over the
    singular values, which does not cancel near rank-1 matrices.
    """
    if f.exact:
        a, c, _, den = _gram_parts(f.entries)
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
    return _unit_terms(s if s.exact else normalize(s), splits)


def _unit_terms(hat: PureState, splits: Iterable[Bipartition]) -> Iterator:
    """``split_terms`` of a state that is exact or already normalized."""
    if hat.exact:
        a, c, n, _ = _gram_parts(hat.array)
        return (Fraction(_twice_int_minor_sum(flat_matrix(a, b), flat_matrix(c, b)), 2 * n * n)
                for b in splits)
    return (_float_minor_sum(flat_matrix(hat.array, b)) for b in splits)


def generalized_concurrence(s: PureState) -> MeasureReport:
    """2 * sqrt(mean over canonical bipartitions of the flattening minor sum).

    Normalizes internally; scale- and LU-invariant; zero exactly on the
    product states.  Reduces to the two-qubit concurrence at m = 2.  The
    one-mode splits are reduced first; when an exact state's are all exactly
    0, the state is a product and every other term is 0 without being computed.
    """
    m = s.num_modes
    if m < 2:
        raise WrongShape("measure needs >= 2 modes")
    parts = canonical_bipartitions(m)
    singles = [b for b in parts if len(b.left) in (1, m - 1)]
    rest = [b for b in parts if len(b.left) not in (1, m - 1)]
    lazy = split_terms(s, singles + rest)
    terms = dict(zip(singles, itertools.islice(lazy, len(singles))))
    product = s.exact and not any(terms.values())
    terms.update(zip(rest, itertools.repeat(Fraction(0)) if product else lazy))
    terms = {b: terms[b] for b in parts}
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
    return _unit_separable(s if s.exact else normalize(s), tol)


def _unit_separable(hat: PureState, tol: float) -> bool:
    """``is_fully_separable`` of a state that is exact or already normalized."""
    m = hat.num_modes
    bound = tol * tol
    singles = []
    for t in _unit_terms(hat, [Bipartition((k,)) for k in range(1, m + 1)] if m > 1 else []):
        if t > bound:
            return False
        singles.append(t)
    if sum(sorted(singles)[m - m // 2:]) <= bound:
        return True
    return all(t <= bound for t in _unit_terms(hat, canonical_bipartitions(m)))


def local_factors(s: PureState, tol: float) -> list[LocalState]:
    """Invert the Segre map through the max-modulus pivot fiber.

    Raises NotProduct exactly when ``is_fully_separable(s, tol)`` is False.
    Factor j is the amplitude fiber through the pivot with the j-th index
    varying, scaled to 1 at the pivot if exact and to unit norm if float.  An
    exact fiber a + ib is divided by the pivot p + iq in Gaussian integers,
    ((ap + bq) + i(bp - aq)) / (p^2 + q^2), as the denominators cancel.
    """
    check_tol(tol)
    hat = s if s.exact else normalize(s)
    if not _unit_separable(hat, tol):
        raise NotProduct(f"state is not fully separable at tol {tol!r}")
    if s.num_modes == 1:
        return [LocalState(normalize(hat).array if s.exact else hat.array)]
    re, im, _ = gauss_ints(hat.array)
    pivot = np.unravel_index(int(np.argmax(re * re + im * im)), s.dims)  # first on ties
    fibers = [pivot[:j] + (slice(None),) + pivot[j + 1:] for j in range(s.num_modes)]
    if s.exact:
        p, q = re[pivot], im[pivot]
        return [LocalState(gauss_rats(re[f] * p + im[f] * q, im[f] * p - re[f] * q, p * p + q * q))
                for f in fibers]
    return [LocalState(v / np.linalg.norm(v)) for v in (hat.array[f] for f in fibers)]


def measure_report_to_json(r: MeasureReport) -> dict:
    per = [
        {"left": list(b.left), "term": t}
        for b, t in sorted(r.per_bipartition.items(), key=lambda bt: bt[0].left)
    ]
    return {"value": r.value, "per_bipartition": per}
