"""Determinantal ideal of the product-state locus, measures and factor recovery.

The fully separable states are exactly the rank-1 points of every bipartition
flattening, so the ideal is generated by all 2x2 flattening minors.  The
measure aggregates, per bipartition, the sum of squared minor moduli, which
equals the pair-product sum of squared singular values of the flattening:

    sum_{2x2 minors} |det|^2 = sum_{i<j} sigma_i^2 sigma_j^2
                             = (||M||_F^4 - ||M M*||_F^2) / 2.

``segre_generators`` enumerates each generator once, as a sorted integer row
(p, q, r, s) of amplitude offsets (``_minor_keys``), and hands the rows to
``poly._pair_polys``, the family builder the Plucker relations use too, as
the terms +a_p a_q and -a_r a_s: no per-term constructor call is made, and
the ideal itself is made through ``gaussrat._unchecked``.  The rows are
cached per dims as a read-only array, as ``grassmann._relation_family``
caches the relations; the caps are checked on every call, before the lookup.

``minor_sum`` is the one definition of that quantity, and it runs one private
kernel per backend.  Both kernels run on stacks: ``_stacks``, the one stacking
rule, copies each matrix on its small side as rows (the minor sums of M and
its transpose agree), the splits of one small side together in chunks of at
most ``CHUNK_AMPS`` amplitudes.  A matrix's term does not depend on its stack,
so ``minor_sum`` of one flattening, a stack of one, equals that split's term
in any chunk, bit for bit when float.

The exact kernel clears denominators once and evaluates the right-hand Gram
identity over Gaussian integers A + iC, as the twice minor sum
n^2 - ||G||_F^2, an int, with n = ||A + iC||_F^2 the same for every split of
a state: a state's terms are ints over its one denominator 2 n^2.  Every
value it forms before squaring is at most 2n by Cauchy-Schwarz, so the parts
run on int64 when 2n < 2**63 (``states.narrow_ints``, the one dtype rule) and
stay ``object`` arrays of Python ints otherwise; the squares reach n^2 and
always take Python ints.  The float kernel evaluates the same Gram identity
in complex doubles and keeps the result when it exceeds
``GRAM_CUTOFF * ||M||_F^4``.  Its absolute error is a few units of rounding
times ``||M||_F^4``, so above the cutoff the relative error stays within
about 1e-12.  Below it, near rank-1 matrices where the identity cancels, the
kernel takes a rank-1 deflation instead: with x a column of M and
R = M - x (x* M) / |x|^2, the minor sum is Lagrange's identity for the
rank-1 part plus R's own minor sum, each free of cancellation, and R is
formed from M with sums over its small side only.  Product states land here
on every split, with terms a few units of rounding squared.  Each float chunk
takes one batched Gram product and one batched deflation of its members at or
below the cutoff, with no factorization.

``_split_plan`` is the one source of the canonical splits of a ``dims`` and
their layouts, read by the ideal's generators, the concurrence, the
separability test and factor recovery.  A measure takes the state's kernel
input once per call (``_kernel_input``) and hands it to the kernels with the
layouts it needs, with no ``Flattening`` built per split.

``generalized_concurrence`` stacks an exact state's m one-mode splits first.
When their terms are all exactly 0, every one-mode flattening has rank 1, the
state is a product, and the other terms are 0 without being computed.  It
sums the exact terms as ints and divides once.  Float terms of a product
state are rounding-level, not 0, so a float state has every split computed,
in one call, and reported.  ``is_fully_separable`` takes split (1,) alone
before the other one-mode splits, so an entangled state that fails there
costs one split.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import (MAX_AMPS, MAX_TERMS, DimensionMismatch, MalformedInput, NonFinite, NotProduct,
                     WrongShape, check_cap, short_text)
from .gaussrat import Keyed, _unchecked
from .poly import MultiPoly, StateVar, _pair_polys
from .states import (
    Bipartition,
    Flattening,
    LocalState,
    PureState,
    _flat_layout,
    _unit_array,
    canonical_bipartitions,
    check_dims,
    check_tol,
    flat_layout,
    gauss_ints,
    gauss_rats,
    narrow_ints,
    normalize,
    scale_parts,
)

DEFAULT_TOL = 1e-10
# Float minor sums at or below this fraction of ||M||_F^4 are recomputed by the
# rank-1 deflation: the Gram identity's absolute error is ~1e-16 ||M||_F^4.
GRAM_CUTOFF = 1e-4
# Both kernels stack the splits of one small side in chunks of at most this
# many amplitudes (``_stacks``), so a chunk's stack and Gram matrices stay in
# cache.  Of 2^12..2^16, 2^13 was fastest for float generalized_concurrence at
# m = 8-12, and unchunked shape groups were slower than one split at a time from
# m = 10.
CHUNK_AMPS = 2**13


class SegreIdeal(Keyed):
    """Degree-2 generators of the product-state ideal for given dims.

    ``dims`` is a tuple that ``states.check_dims`` accepts (DimensionMismatch)
    and ``gens`` a tuple of MultiPoly (MalformedInput).  Nothing hashes the
    generators until the ideal itself is hashed.
    """

    __slots__ = ("dims", "gens")

    def __init__(self, dims: tuple[int, ...], gens: tuple[MultiPoly, ...]):
        if not isinstance(dims, tuple):
            raise DimensionMismatch(f"dims must be a tuple, got {type(dims).__name__}")
        check_dims(dims)
        if not (isinstance(gens, tuple) and all(isinstance(g, MultiPoly) for g in gens)):
            raise MalformedInput("gens must be a tuple of MultiPoly")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "gens", gens)
        self._keep((dims, gens))

    def __len__(self):
        return len(self.gens)


class MeasureReport(Keyed):
    """Measure value plus the per-bipartition minor sums it averages: a float
    and a dict, else MalformedInput; unhashable, as its dict is."""

    __slots__ = ("value", "per_bipartition")

    def __init__(self, value: float, per_bipartition: dict[Bipartition, float]):
        if not (isinstance(value, float) and isinstance(per_bipartition, dict)):
            raise MalformedInput(f"a measure report is a float and a dict, got {type(value).__name__} "
                                 f"and {type(per_bipartition).__name__}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "per_bipartition", per_bipartition)
        self._keep((value, per_bipartition))


@functools.lru_cache(maxsize=32)
def _minor_keys(dims: tuple[int, ...]) -> np.ndarray:
    """The Segre ideal's generators as sorted rows (p, q, r, s), each built once,
    in a read-only array cached per dims (the rule ``grassmann._relation_family``
    follows); ``segre_generators`` checks the caps before it looks a dims up.

    Entries are row-major amplitude offsets; a row stands for the binomial
    a_p a_q - a_r a_s with p < q, r < s and p < r.  Offsets order like the
    multi-indices they encode, so the rows sort like the generators' sorted
    terms, and the first monomial a_p a_q takes +1: the first coefficient is
    positive.

    A generator is fixed by the modes D where its diagonal x, y differs and
    the part S of D, holding min D, where x' of the antidiagonal x', y'
    agrees with x.  A split's minor is kept only when its columns differ in
    every column mode (B is in D) and its rows first differ in a mode below
    min B (min D is in A), which holds on the one split A = S + (modes
    outside D), B = D - S; so no generator is built twice.
    """
    offsets = np.arange(math.prod(dims), dtype=np.int64).reshape(dims)
    plan = _split_plan(dims)
    keys = []
    for i, (perm, rows) in zip(plan.order, plan.layouts):
        k = len(plan.parts[i].left)
        left, right = perm[:k], perm[k:]  # the modes of A and of B, numbered from 0
        mat = offsets.transpose(perm).reshape(rows, -1)
        # rows r1 < r2 whose prefixes over the modes below min B differ
        prefix = np.arange(rows) // math.prod(dims[j] for j in left if j > right[0])
        r1, r2 = (r[:, None] for r in np.nonzero(np.less.outer(prefix, prefix)))
        # columns c1 < c2 that differ in every mode of B (the first one orders them)
        digits = np.indices([dims[j] for j in right]).reshape(len(right), -1)
        differ = (digits[1:, :, None] != digits[1:, None, :]).all(axis=0)
        c1, c2 = np.nonzero(np.less.outer(digits[0], digits[0]) & differ)
        # offsets grow along every row and column, so the diagonal a_p a_q of
        # the minor on rows r1 < r2 and columns c1 < c2 holds the smallest
        # offset and is the first monomial
        p, q, c, d = np.broadcast_arrays(mat[r1, c1], mat[r2, c2], mat[r1, c2], mat[r2, c1])
        keys.append(np.stack([p, q, np.minimum(c, d), np.maximum(c, d)], axis=-1).reshape(-1, 4))
    keys = np.concatenate(keys)
    keys = keys[np.lexsort(keys.T[::-1])]
    keys.flags.writeable = False
    return keys


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

    Generators have their first coefficient positive, are distinct and
    sorted; each is homogeneous of degree 2 and vanishes identically on the
    image of the Segre map, enumerated once each as integer keys.  Raises
    DimensionMismatch for dims ``check_dims`` refuses, WrongShape for one mode,
    and TooLarge when prod(dims) exceeds MAX_AMPS or the generators MAX_TERMS.
    """
    dims = check_dims(dims)
    if len(dims) < 2:
        raise WrongShape(f"need >= 2 modes, got {len(dims)}")
    check_cap("prod(dims)", dims, MAX_AMPS)
    check_cap(f"generators of the Segre ideal of dims {dims}", (_minor_key_count(dims),), MAX_TERMS)
    keys = _minor_keys(dims)
    variables = [StateVar(index) for index in itertools.product(*(range(d) for d in dims))]
    # generator g is terms 2g (+a_p a_q) and 2g + 1 (-a_r a_s)
    a, b, c = keys[:, 0::2].ravel(), keys[:, 1::2].ravel(), np.tile([1, -1], len(keys))
    gens = tuple(_pair_polys(variables, a, b, c, range(0, 2 * len(keys) + 1, 2)))
    (ideal,) = _unchecked(SegreIdeal, [dims], [gens], [(dims, gens)])
    return ideal


def _stacked_minor_sums(mats: np.ndarray) -> list[float]:
    """Minor sums of a k x rows x cols complex128 stack with rows <= cols, as floats.

    Each matrix takes the Gram identity on its rows, and the ones where it
    cancels (not above ``GRAM_CUTOFF * ||M||_F^4``) take the rank-1
    deflation, batched over them (``_deflated_minor_sums``).  A matrix's term
    does not depend on the others in its stack.  Chunks are short, so the
    per-matrix scalars are finished in Python floats, which round as numpy's do.
    """
    conj = mats.conj()
    g = mats @ conj.transpose(0, 2, 1)
    terms, low = [], []
    for i, (n, q) in enumerate(zip(_squared_norms(mats), _squared_norms(g))):
        fro4 = n * n
        terms.append((fro4 - q) / 2)
        if fro4 and not terms[i] > GRAM_CUTOFF * fro4:  # a zero matrix's 0 is exact
            low.append(i)
    if low:
        if len(low) < len(mats):
            mats, conj, g = mats[low], conj[low], g[low]
        for i, t in zip(low, _deflated_minor_sums(mats, conj, g)):
            terms[i] = t
    return terms


def _deflated_minor_sums(mats: np.ndarray, conj: np.ndarray, g: np.ndarray) -> list[float]:
    """Minor sums of a stack M with rows <= cols by a rank-1 deflation, which does
    not cancel near rank 1, from M, conj(M) (overwritten) and G = M M*.

    Let x be the column of M through the largest entry of its largest row,
    a = x* M and R = M - x a / |x|^2, so that x* R = 0.  A unitary change of
    rows that takes x to the first one leaves the minor sum as it is: the
    minors on that row sum to (|a|^2 ||R||_F^2 - ||R a*||^2) / |x|^2 by
    Lagrange's identity, and the others are R's own, by the Gram identity
    (||R||_F^4 - ||R R*||_F^2) / 2, which is as small as R.  R is formed from
    M, never as G minus its rank-1 part, which would cancel, and a and R sum
    over the rows only, so a rank-1 M leaves R at a few units of rounding of
    its entries whatever the number of columns.
    """
    kk = np.arange(len(mats))
    j = np.abs(mats[kk, g.diagonal(0, 1, 2).real.argmax(1)]).argmax(1)
    a = conj[kk, :, j][:, None, :] @ mats  # x* M
    nx = a[kk, 0, j].real  # |x|^2, the pivot entry of x* M
    r = np.multiply((mats[kk, :, j] / nx[:, None])[:, :, None], a, out=conj)
    r = np.subtract(mats, r, out=r)
    s = r @ r.conj().transpose(0, 2, 1)
    terms = []
    for n, diag, q, w, aa in zip(nx.tolist(), s.diagonal(0, 1, 2).real.tolist(), _squared_norms(s),
                                 _squared_norms(r @ a.conj().transpose(0, 2, 1)), _squared_norms(a)):
        t = sum(diag)  # ||R||_F^2
        # both parts are sums of squares, which rounding may leave just below 0
        terms.append(max((aa * t - w) / n, 0.0) + max((t * t - q) / 2, 0.0))
    return terms


def _squared_norms(mats: np.ndarray) -> list[float]:
    """||X||_F^2 of each matrix of a complex stack: one real dot product per matrix."""
    v = mats.reshape(len(mats), 1, -1).view(np.float64)
    return (v @ v.transpose(0, 2, 1)).reshape(-1).tolist()


def _stacks(arr: np.ndarray, layouts, nlead: int = 0):
    """Yield ``(chunk, mats)``: the splits of ``arr`` laid out by ``layouts[i]``
    for each i in ``chunk``, copied into one stack on their small side.

    The stacking rule of both kernels.  The first ``nlead`` axes of ``arr``
    ride along before its modes: ``mats`` is ``len(chunk) x *lead x small x
    cols``.  A tall split is copied as its transpose, whose minor sum is the
    same.  The splits of one small side are stacked in chunks of at most
    ``CHUNK_AMPS`` amplitudes; one wide split is a stack of one view.
    """
    lead, size = arr.shape[:nlead], arr.size
    if nlead:
        size //= math.prod(lead)
        shift = tuple(range(nlead))
        layouts = [(shift + tuple([p + nlead for p in perm]), rows) for perm, rows in layouts]
    if len(layouts) == 1 and layouts[0][1] ** 2 <= size:
        (perm, rows), = layouts
        yield [0], arr.transpose(perm).reshape(1, *lead, rows, -1)
        return
    per = max(1, CHUNK_AMPS // size)
    groups = {}
    for i, (_, rows) in enumerate(layouts):
        groups.setdefault(min(rows, size // rows), []).append(i)
    for small, group in groups.items():
        for k in range(0, len(group), per):
            chunk = group[k:k + per]
            # each transpose is copied once, into its slot of the stack; a tall
            # split's slot is written through its transpose, a view, as splitting
            # the axes of a view needs no copy
            mats = np.empty((len(chunk), *lead, small, size // small), dtype=arr.dtype)
            for mat, i in zip(mats, chunk):
                perm, rows = layouts[i]
                src = arr.transpose(perm)
                (mat if rows == small else mat.swapaxes(-1, -2)).reshape(src.shape)[...] = src
            yield chunk, mats


def _float_terms(arr: np.ndarray, layouts) -> list[float]:
    """The minor sum of the float array laid out by each ``(perm, rows)``: one
    ``_stacked_minor_sums`` per stack of ``_stacks``."""
    terms = [0.0] * len(layouts)
    for chunk, mats in _stacks(arr, layouts):
        for i, t in zip(chunk, _stacked_minor_sums(mats)):
            terms[i] = t
    return terms


def _int_terms(ac: np.ndarray, n: int, layouts) -> list[int]:
    """Twice the minor sum of the Gaussian-integer array A + iC, given as the
    pair ``ac = [A, C]``, laid out by each ``(perm, rows)``, an int each, with
    n = ||A + iC||_F^2: the term of a state whose parts these are is each int
    over 2 n^2.  One ``_stacked_int_minor_sums`` per stack of ``_stacks``."""
    terms = [0] * len(layouts)
    for chunk, mats in _stacks(ac, layouts, 1):
        for i, t in zip(chunk, _stacked_int_minor_sums(mats, n)):
            terms[i] = t
    return terms


def _stacked_int_minor_sums(mats: np.ndarray, n: int) -> list[int]:
    """Twice the minor sum of each Gaussian-integer matrix A + iC of a
    k x 2 x rows x cols stack with rows <= cols (A at ``[:, 0]``, C at
    ``[:, 1]``), each of squared norm n = ||A + iC||_F^2, as Python ints.

    The Gram matrix is G = A A^T + C C^T + i (C A^T - A C^T), whose trace is
    n.  Its real part is symmetric and its imaginary part antisymmetric, so
    P = Re G + Im G = (A + C) A^T + (C - A) C^T has ||P||_F = ||G||_F, and the
    twice minor sum n^2 - ||G||_F^2 takes two batched products.  By
    Cauchy-Schwarz, every entry of A + C and C - A, of either product, and
    every partial sum of one, is at most 2n in modulus, so the parts may be
    int64 when 2n < 2**63 (``_gram_parts``).  The squares reach n^2 and take
    Python ints.
    """
    a, c = mats[:, 0], mats[:, 1]
    p = (a + c) @ a.transpose(0, 2, 1) + (c - a) @ c.transpose(0, 2, 1)
    nn = n * n
    return [nn - sum(map(operator.mul, row, row)) for row in p.reshape(len(p), -1).tolist()]


def _gram_parts(arr: np.ndarray) -> tuple[np.ndarray, int, int]:
    """An exact array's ``gauss_ints`` parts as one pair ``[A, C]`` in the Gram
    kernel's dtype, n = ||A + iC||_F^2 and the denominator.  The kernel forms
    values up to 2n before it squares them, so the parts are int64 when
    n < 2**62 (``_stacked_int_minor_sums``)."""
    a, c, den = gauss_ints(arr)
    ac = np.stack((a, c))
    n = int((ac * ac).sum())
    (ac,) = narrow_ints(2 * n, ac)
    return ac, n, den


def minor_sum(f: Flattening):
    """Sum of squared moduli of all 2x2 minors of the flattening.

    Exact: the Gram identity in integers over the common denominator of the
    entries, a Fraction.  Float: the Gram identity when it is above
    ``GRAM_CUTOFF * ||M||_F^4``, else the rank-1 deflation
    (``_deflated_minor_sums``), which does not cancel near rank-1 matrices.
    The entries are first divided by a power of two 2^e that brings the
    largest part into [0.5, 1), and the sum is multiplied by 2^(4e), so any
    finite matrix gives its sum, or NonFinite when that is beyond the float
    range; both steps are exact, so the bits equal that split's term.  Either
    backend runs its split kernel on a stack of one, the matrix on its small
    side, a tall one transposed as a split's stack holds it.
    """
    if f.exact:
        ac, n, den = _gram_parts(f.entries)
        (t,) = _int_terms(ac, n, [((0, 1), f.rows)])
        return Fraction(t, 2 * den ** 4)
    parts, e, _ = scale_parts(f.entries.view(np.float64))
    try:
        return math.ldexp(_float_terms(parts.view(np.complex128), [((0, 1), f.rows)])[0], 4 * e)
    except OverflowError:
        raise NonFinite("minor sum is beyond the float range") from None


class _SplitPlan(NamedTuple):
    """The canonical splits of one ``dims``: ``layouts[i]`` lays out ``parts[order[i]]``,
    and the first ``singles`` of ``order`` are the one-mode splits, in canonical order."""

    parts: tuple[Bipartition, ...]
    order: tuple[int, ...]
    layouts: tuple[tuple[tuple[int, ...], int], ...]
    singles: int


@functools.lru_cache(maxsize=32)
def _split_plan(dims: tuple[int, ...]) -> _SplitPlan:
    """The canonical splits of ``dims``, laid out once per dims: the one cache of split
    data.  They are valid by construction, so they skip ``flat_layout``'s checks."""
    m = len(dims)
    parts = tuple(canonical_bipartitions(m))
    order = sorted(range(len(parts)), key=lambda i: len(parts[i].left) not in (1, m - 1))
    layouts = tuple(_flat_layout(dims, parts[i].left) for i in order)
    return _SplitPlan(parts, tuple(order), layouts, min(m, len(parts)))


def split_terms(s: PureState, splits: Iterable[Bipartition]) -> Iterator:
    """Iterate over the normalized state's ``minor_sum`` at each split, in order.

    Each split is checked and laid out by :func:`~qsegre.states.flat_layout`.
    The terms are computed together when this is called, the splits of one
    shape stacked (``CHUNK_AMPS``), by either backend's kernel.  An exact
    state's norm may be irrational, so its denominators are cleared once, to
    A + iC with n = ||A + iC||_F^2, and each term is the Fraction
    (n^2 - ||G||_F^2) / (2 n^2): the denominators cancel.
    """
    return iter(_unit_terms(_kernel_input(s), [flat_layout(s.dims, b) for b in splits]))


def _kernel_input(s: PureState):
    """What the split kernels read of a state, taken once per call: a float
    state's normalized array, or an exact state's ``_gram_parts``."""
    return _gram_parts(s.array) if s.exact else _unit_array(s.array)


def _unit_terms(unit, layouts) -> list:
    """``split_terms`` at split layouts, from the state's ``_kernel_input``:
    floats, or Fractions over 2 n^2."""
    if isinstance(unit, np.ndarray):
        return _float_terms(unit, layouts)
    ac, n, _ = unit
    return [Fraction(t, 2 * n * n) for t in _int_terms(ac, n, layouts)]


def generalized_concurrence(s: PureState) -> MeasureReport:
    """2 * sqrt(mean over canonical bipartitions of the flattening minor sum).

    Normalizes internally; scale- and LU-invariant; zero exactly on the
    product states.  Reduces to the two-qubit concurrence at m = 2.  An exact
    state's one-mode splits are reduced first, stacked; when their terms are
    all exactly 0, the state is a product and every other term is 0
    without being computed.  Exact terms are ints over the one denominator
    2 n^2 (``_int_terms``), summed as ints and divided once; int true
    division rounds correctly, so each float is that of the exact Fraction.
    """
    if s.num_modes < 2:
        raise WrongShape("measure needs >= 2 modes")
    plan = _split_plan(s.dims)
    unit = _kernel_input(s)
    if s.exact:
        ac, n, _ = unit
        den = 2 * n * n
        found = _int_terms(ac, n, plan.layouts[:plan.singles])
        rest = plan.layouts[plan.singles:]
        found += _int_terms(ac, n, rest) if any(found) else [0] * len(rest)
    else:
        den = 1
        found = _float_terms(unit, plan.layouts)
    terms = [0] * len(found)
    for i, t in zip(plan.order, found):
        terms[i] = t
    value = 2.0 * math.sqrt(sum(terms) / (den * len(terms)))
    return MeasureReport(value, {b: t / den for b, t in zip(plan.parts, terms)})


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
    return _unit_separable(_kernel_input(s), s.dims, tol)


def _unit_separable(unit, dims: tuple[int, ...], tol: float) -> bool:
    """``is_fully_separable`` from the state's ``_kernel_input``."""
    m = len(dims)
    bound = tol * tol
    plan = _split_plan(dims)
    singles = []
    # split (1,) alone first: most entangled states fail there; one mode has no split
    for layouts in (plan.layouts[:1], plan.layouts[1:plan.singles]):
        for t in _unit_terms(unit, layouts):
            if t > bound:
                return False
            singles.append(t)
    if sum(sorted(singles)[-(m // 2):]) <= bound:
        return True
    return all(t <= bound for t in _unit_terms(unit, plan.layouts[plan.singles:]))


def local_factors(s: PureState, tol: float) -> list[LocalState]:
    """Invert the Segre map through the max-modulus pivot fiber.

    Raises NotProduct exactly when ``is_fully_separable(s, tol)`` is False.
    Factor j is the amplitude fiber through the pivot with the j-th index
    varying, scaled to 1 at the pivot if exact and to unit norm if float.  An
    exact fiber a + ib is divided by the pivot p + iq in Gaussian integers,
    ((ap + bq) + i(bp - aq)) / (p^2 + q^2), as the denominators cancel; the
    parts are those of the separability check, and every value formed is at
    most n = ||a + ib||^2 in modulus, within their dtype.
    """
    check_tol(tol)
    unit = _kernel_input(s)
    if not _unit_separable(unit, s.dims, tol):
        raise NotProduct(f"state is not fully separable at tol {short_text(tol)}")
    if s.num_modes == 1:
        return [LocalState(normalize(s).array)]
    re, im = unit[0] if s.exact else (unit.real, unit.imag)
    pivot = np.unravel_index(int(np.argmax(re * re + im * im)), s.dims)  # first on ties
    fibers = [pivot[:j] + (slice(None),) + pivot[j + 1:] for j in range(s.num_modes)]
    if s.exact:
        p, q = int(re[pivot]), int(im[pivot])
        return [LocalState(gauss_rats(re[f] * p + im[f] * q, im[f] * p - re[f] * q, p * p + q * q))
                for f in fibers]
    return [LocalState(v / np.linalg.norm(v)) for v in (unit[f] for f in fibers)]


def measure_report_to_json(r: MeasureReport) -> dict:
    per = [
        {"left": list(b.left), "term": t}
        for b, t in sorted(r.per_bipartition.items(), key=lambda bt: bt[0].left)
    ]
    return {"value": r.value, "per_bipartition": per}
