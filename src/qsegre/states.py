"""Multipartite pure states, flattenings, and the coordinate Segre map.

A state is a complex amplitude tensor over m modes, held as one read-only
numpy array of shape ``dims``: multi-index (i1, ..., im) is
``array[i1, ..., im]``, so the flat row-major order has mode 1 most
significant and index (i1, ..., im) sits at offset
sum_j i_j * prod_{l>j} dims_l.  States are projective objects; they are kept
unnormalized and measures normalize internally.

Two scalar backends are supported throughout, and the array's dtype is the
backend: ``complex128`` for floats, ``object`` holding exact
:class:`~qsegre.gaussrat.GaussRat` for the exact backend.
:func:`amplitude_array` is the one rule that picks it.  Each operation below
is a single numpy expression (transpose, reshape, outer product, slicing)
shared by both backends.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from collections.abc import Iterable, Sequence, Sized
from fractions import Fraction

import numpy as np

from .errors import (
    MAX_AMPS,
    DimensionMismatch,
    IndexOutOfRange,
    MalformedInput,
    NonFinite,
    ShapeError,
    ZeroVector,
    check_cap,
    short_text,
)
from .gaussrat import Frozen, GaussRat, Keyed, Scalar, as_fraction, is_int


def amplitude_array(values, shape: tuple[int, ...], label: str = "amps") -> np.ndarray:
    """Array of ``shape`` from the ``values``, in the backend they select.

    Exact (an ``object`` array of GaussRat) iff every entry is an int,
    Fraction or GaussRat (:func:`exact_backend`); otherwise a finite
    ``complex128`` array.  Raises DimensionMismatch unless there are
    prod(shape) values (an array counts all its entries), MalformedInput for
    values that are not iterable or entries that are not numbers (bool and str
    included) and NonFinite for NaN/Inf and for exact entries beyond the float
    range in a float array.
    """
    if not isinstance(values, Iterable):
        raise MalformedInput(f"{label} must be a sequence or an array, got {type(values).__name__}")
    if isinstance(values, np.ndarray) and values.dtype.kind in "iufc":
        values = values.reshape(-1)
    else:
        values = list(values.flat if isinstance(values, np.ndarray) else values)
    total = math.prod(shape)
    if len(values) != total:
        raise DimensionMismatch(f"{label} has length {len(values)}, expected {short_text(total)}")
    if isinstance(values, list) and exact_backend(values, label):
        arr = np.empty(len(values), dtype=object)
        arr[:] = [a if isinstance(a, GaussRat) else GaussRat(a) for a in values]
        return arr.reshape(shape)
    arr = _complex_array(values, label)
    _check_finite(arr, label)
    return arr.reshape(shape)


_EXACT_TYPES = (int, Fraction, GaussRat)
_PLAIN_TYPES = frozenset(_EXACT_TYPES + (float, complex))


def exact_backend(values: list, label: str = "values") -> bool:
    """The one backend rule: True iff every value is an int, Fraction or GaussRat.
    MalformedInput, naming the entry, for a value that is not a number (bool and str included)."""
    # one pass collects the value types; the ABC checks run only if one is unlisted
    types = set(map(type, values))
    if types <= _PLAIN_TYPES:
        return float not in types and complex not in types
    for k, a in enumerate(values):
        if isinstance(a, bool) or not isinstance(a, (numbers.Number, GaussRat)):
            raise MalformedInput(f"{label}[{k}]: expected a number, got {type(a).__name__}")
    return all(issubclass(t, _EXACT_TYPES) for t in types)


def matrix_array(mat, label: str = "matrix") -> np.ndarray:
    """The one matrix rule: a nonempty 2-d array, or a nonempty sequence of equal-length
    nonempty rows, as an array in the backend :func:`amplitude_array` picks; else ShapeError."""
    if isinstance(mat, np.ndarray):
        if mat.ndim != 2 or not mat.size:
            raise ShapeError(f"{label} must be a nonempty 2-d array, got shape {mat.shape}")
        return amplitude_array(mat, mat.shape, label)
    try:
        rows = [list(r) for r in mat]
    except TypeError:
        raise ShapeError(f"{label} must be a sequence of rows") from None
    if not rows or not rows[0]:
        raise ShapeError(f"{label} must be nonempty")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ShapeError(f"{label} has ragged rows")
    return amplitude_array([x for r in rows for x in r], (len(rows), width), label)


def _complex_array(values, label: str) -> np.ndarray:
    """The flat list or array of values as a flat ``complex128`` array.

    Raises NonFinite, naming the entry, for an exact value beyond the float
    range, where converting it would raise OverflowError.
    """
    try:
        return np.array(values, dtype=np.complex128)
    except OverflowError:
        for k, a in enumerate(values):
            try:
                complex(a)
            except OverflowError:
                raise NonFinite(f"{label}[{k}] is beyond the float range") from None
        raise


def _check_finite(arr: np.ndarray, label: str) -> None:
    """Raise NonFinite naming the first NaN/Inf entry of a float array, in row-major order."""
    finite = np.isfinite(arr)
    if np.count_nonzero(finite) < finite.size:  # cheaper than .all() on small arrays
        raise NonFinite(f"{label}[{np.flatnonzero(~finite)[0]}] is not finite")


def _check_gauss_rats(arr: np.ndarray) -> None:
    """Raise MalformedInput naming the first entry of an ``object`` array that is not a
    GaussRat, in row-major order."""
    flat = arr.reshape(-1).tolist()
    if set(map(type, flat)) != {GaussRat}:  # one pass in C; the loop runs only on a miss
        for k, a in enumerate(flat):
            if not isinstance(a, GaussRat):
                raise MalformedInput(f"amps[{k}]: an object array holds GaussRat only, got {type(a).__name__}")


def gauss_ints(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Real and imaginary parts over one common denominator: ``arr == (re + i*im) / den``.

    The one rule that turns either backend into parts, so an expression on
    ``re`` and ``im`` serves both.  A float array gives its own ``real`` and
    ``imag`` and den 1; an exact array gives ``object`` arrays of Python ints
    (cleared values outgrow int64) over the lcm of every denominator, which
    :func:`narrow_ints` may turn into int64 and :func:`gauss_rats` turns back.
    """
    if arr.dtype != object:
        return arr.real, arr.imag, 1
    flat = arr.reshape(-1).tolist()
    fracs = [x.re for x in flat] + [x.im for x in flat]
    dens = [f.denominator for f in fracs]
    den = math.lcm(*dens)
    parts = np.array([f.numerator * (den // d) for f, d in zip(fracs, dens)], dtype=object)
    return parts[:len(flat)].reshape(arr.shape), parts[len(flat):].reshape(arr.shape), den


def narrow_ints(bound: int, *parts: np.ndarray) -> tuple[np.ndarray, ...]:
    """The one dtype rule for exact integer parts: int64 copies of ``parts`` when
    ``bound`` is below 2**63, else the ``object`` arrays of Python ints as they are.

    ``bound`` is the caller's proven bound on the modulus of every value, partial
    sums included, that its one expression forms from the parts, so the same
    expression runs on either dtype: int64 arithmetic wraps silently.
    """
    if bound < 2**63:
        return tuple(p.astype(np.int64) for p in parts)
    return parts


def gauss_rats(re: np.ndarray, im: np.ndarray, den: int) -> np.ndarray:
    """The exact array ``(re + i*im) / den`` of integer parts: the inverse of
    :func:`gauss_ints`, building one GaussRat per entry."""
    out = np.empty(re.size, dtype=object)
    out[:] = [GaussRat(Fraction(a, den), Fraction(b, den))
              for a, b in zip(re.reshape(-1).tolist(), im.reshape(-1).tolist())]
    return out.reshape(re.shape)


def scale_parts(*parts: np.ndarray) -> tuple:
    """``(*scaled, e, top)``: each float part array divided by ``2**e``, with the
    largest part scaled to ``top`` in [0.5, 1), so products of parts do not
    overflow.  Exact but for subnormals, which only round down, so no scaled
    part exceeds ``top``."""
    top, e = math.frexp(max(np.abs(p).max() for p in parts))
    return (*(np.ldexp(p, -e) for p in parts), e, top)


def abs_sq_sum(arr: np.ndarray):
    """Sum of |x|^2 over an amplitude array; exact Fraction in the exact backend.

    NonFinite when a float sum overflows; every term is at most the sum, so scaling cannot help."""
    re, im, den = gauss_ints(arr)
    with np.errstate(over="ignore"):
        total = (re * re + im * im).sum()
    if total == math.inf:
        raise NonFinite("squared norm is beyond the float range")
    return Fraction(int(total), den * den) if arr.dtype == object else float(total)


def check_tol(tol) -> None:
    """The one tolerance rule: a finite nonnegative real that is not a bool, and within
    the float range (``math.isfinite`` converts it), else MalformedInput."""
    real = isinstance(tol, numbers.Real) and not isinstance(tol, bool)
    try:
        ok = real and math.isfinite(tol) and tol >= 0
    except OverflowError:
        ok = False
    if not ok:
        raise MalformedInput(f"tol must be finite, nonnegative and within the float range, "
                             f"got {short_text(tol)}")


def check_dims(dims) -> tuple[int, ...]:
    """The one dims rule: a nonempty sequence of ints >= 2 (``is_int``), returned as a tuple."""
    dims = tuple(dims) if isinstance(dims, Iterable) else ()
    if not dims:
        raise DimensionMismatch("dims must be a nonempty sequence")
    for j, d in enumerate(dims):
        if not is_int(d) or d < 2:
            got = short_text(d) if is_int(d) else type(d).__name__
            raise DimensionMismatch(f"dims[{j}] must be an int >= 2, got {got}")
    return dims


class _Amplitudes(Frozen):
    """The states' one constructor: MalformedInput for anything but a numpy array,
    :func:`check_dims` on the shape, MalformedInput for a dtype other than the two
    backends' (``complex128``, or ``object`` holding GaussRat alone), NonFinite for NaN/Inf
    in a float array, ZeroVector for an all-zero one, and the array is made read-only."""

    __slots__ = ()

    def __init__(self, array: np.ndarray):
        if not isinstance(array, np.ndarray):
            raise MalformedInput(f"amps must be a numpy array, got {type(array).__name__}")
        check_dims(array.shape)
        if array.dtype == np.complex128:
            _check_finite(array, "amps")
        elif array.dtype == object:
            _check_gauss_rats(array)
        else:
            raise MalformedInput(f"amps must be a complex128 or object array, got dtype {array.dtype}")
        if not np.count_nonzero(array):
            raise ZeroVector("all amplitudes are zero")
        array.flags.writeable = False
        object.__setattr__(self, "array", array)

    @property
    def exact(self) -> bool:
        return self.array.dtype == object


class PureState(_Amplitudes):
    """Finite, nonzero amplitude tensor of shape ``dims``; build through :func:`make_state`."""

    __slots__ = ("array",)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.array.shape

    @property
    def num_modes(self) -> int:
        return self.array.ndim

    @property
    def amps(self) -> tuple[Scalar, ...]:
        """Amplitudes as Python scalars in row-major order."""
        return tuple(self.array.reshape(-1).tolist())

    def to_numpy(self) -> np.ndarray:
        """Flat ``complex128`` copy; NonFinite for exact amplitudes beyond the float range."""
        return _complex_array(self.array.reshape(-1), "amps")

    def norm_sq(self):
        """Squared 2-norm; exact Fraction in the exact backend."""
        return abs_sq_sum(self.array)

    def offset(self, index: Sequence[int]) -> int:
        """Row-major offset of a multi-index: m ints (``is_int``) with
        0 <= i_j < d_j, else IndexOutOfRange."""
        index = tuple(index)
        if len(index) != self.num_modes or not all(
                is_int(i) and 0 <= i < d for i, d in zip(index, self.dims)):
            raise IndexOutOfRange(f"index {short_text(index)} is not a multi-index of dims {self.dims}")
        return int(np.ravel_multi_index(index, self.dims))

    def amplitude(self, index: Sequence[int]) -> Scalar:
        return self.array.item(self.offset(index))


class LocalState(_Amplitudes):
    """One mode's amplitude vector, of one axis; the projective factor of a product state."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        if isinstance(array, np.ndarray) and array.ndim != 1:
            raise DimensionMismatch(f"a local vector has one axis, got shape {short_text(array.shape)}")
        super().__init__(array)

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    @property
    def vec(self) -> tuple[Scalar, ...]:
        return tuple(self.array.tolist())


class Bipartition(Keyed):
    """An unordered split of the modes {1..m}, stored by its row group: a
    nonempty, strictly increasing tuple of ints >= 1 (``is_int``), else
    IndexOutOfRange.  The bound m is not known here; :func:`make_bipartition`
    checks it, and so do the methods that take it.

    The canonical representative of a split contains mode 1; use
    :meth:`canonicalize` to get it.  Non-canonical row groups are still legal
    for :func:`flatten`, which only reindexes.
    """

    __slots__ = ("left",)

    def __init__(self, left: tuple[int, ...]):
        if not (isinstance(left, tuple) and left and all(map(is_int, left)) and left[0] >= 1
                and all(map(operator.lt, left, left[1:]))):
            got = short_text(left) if isinstance(left, tuple) else type(left).__name__
            raise IndexOutOfRange(f"bipartition {got} is not a nonempty strictly increasing tuple of ints >= 1")
        object.__setattr__(self, "left", left)
        self._keep((left,))

    def canonicalize(self, num_modes: int) -> "Bipartition":
        rest = self.complement(num_modes)
        return self if self.left[0] == 1 else Bipartition(rest)

    def complement(self, num_modes: int) -> tuple[int, ...]:
        """The other side of the split, once :func:`make_bipartition`'s rule accepts
        the row group against ``num_modes``."""
        check_num_modes(num_modes)
        _check_within(self.left, num_modes)
        return tuple(j for j in range(1, num_modes + 1) if j not in self.left)


class Flattening(Frozen):
    """Matrix view of a state under a bipartition.

    ``entries`` is a read-only rows x cols array in the state's backend.  Any
    matrix given here (an array or rows of scalars) goes through
    :func:`matrix_array`, so its dtype alone says which backend it is in, and
    ShapeError unless it is rows x cols with int ``rows`` and ``cols``.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        arr = matrix_array(entries, "entries")
        if not (is_int(rows) and is_int(cols)) or arr.shape != (rows, cols):
            raise ShapeError(f"entries have shape {arr.shape}, expected {short_text((rows, cols))}")
        arr.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", arr)

    @property
    def exact(self) -> bool:
        return self.entries.dtype == object


def make_state(dims: Sequence[int], amps) -> PureState:
    """Validate and build a PureState.  Does not normalize.

    ``amps`` holds prod(dims) amplitudes in row-major order, flat or as an
    array.  Raises DimensionMismatch for dims that :func:`check_dims` refuses;
    :func:`amplitude_array` and the PureState constructor check the amplitudes.
    """
    return PureState(amplitude_array(amps, check_dims(dims)))


def make_local(vec: Sequence) -> LocalState:
    """Validate and build a LocalState; its constructor refuses fewer than 2 entries."""
    if not isinstance(vec, Sized):
        raise MalformedInput(f"vec must be a sequence or an array, got {type(vec).__name__}")
    return LocalState(amplitude_array(vec, (len(vec),), "vec"))


def make_bipartition(left: Iterable[int], num_modes: int) -> Bipartition:
    """Validate a row group against the mode count {1..num_modes}: the count by
    :func:`check_num_modes`, then ints, deduplicated and sorted, that
    :func:`_check_within` accepts."""
    check_num_modes(num_modes)
    if not isinstance(left, Iterable):
        raise IndexOutOfRange(f"bipartition must be an iterable of modes, got {type(left).__name__}")
    left = tuple(left)
    for j in left:
        if not is_int(j):
            raise IndexOutOfRange(f"bipartition mode {short_text(j)}: expected an int")
    modes = tuple(sorted(set(left)))
    if not modes:
        raise IndexOutOfRange("bipartition is empty")
    _check_within(modes, num_modes)
    return Bipartition(modes)


def _check_within(left: tuple[int, ...], num_modes: int) -> None:
    """The range half of :func:`make_bipartition`'s rule, on a row group of sorted
    distinct ints: its modes lie in 1..num_modes and leave at least one out."""
    if left[0] < 1 or left[-1] > num_modes:
        raise IndexOutOfRange(f"bipartition {short_text(left)} out of range 1..{num_modes}")
    if len(left) == num_modes:
        raise IndexOutOfRange("bipartition must be a proper subset of the modes")


def check_num_modes(num_modes) -> None:
    """The one mode-count rule: DimensionMismatch unless m is an int >= 1, TooLarge
    past 12 modes: no state of more (2 levels each) is within MAX_AMPS."""
    if not is_int(num_modes) or num_modes < 1:
        got = short_text(num_modes) if is_int(num_modes) else type(num_modes).__name__
        raise DimensionMismatch(f"mode count must be an int >= 1, got {got}")
    # 2**13 passes the cap, so 14 factors show the count is past it without building it
    check_cap(f"2**m amplitudes of a state of m = {short_text(num_modes)} modes",
              (2,) * min(num_modes, 14), MAX_AMPS)


def canonical_bipartitions(num_modes: int) -> list[Bipartition]:
    """All 2^(m-1) - 1 unordered splits, each by its 1-containing representative,
    sorted by row group, in a fresh list; m by :func:`check_num_modes`."""
    check_num_modes(num_modes)
    rest = range(2, num_modes + 1)
    lefts = sorted((1,) + extra for r in range(num_modes - 1) for extra in itertools.combinations(rest, r))
    return [Bipartition(left) for left in lefts]


def normalize(s: PureState) -> PureState:
    """Scale to unit 2-norm.  Stays exact when the norm is rational.

    An exact state runs on its integer parts (:func:`gauss_ints`): with
    n = sum(re^2 + im^2), the norm is rational iff n is a perfect square, and
    then the state is the parts over isqrt(n).  Otherwise each part becomes
    float over the largest of them, by int true division, which is correctly
    rounded as ``float(Fraction)`` is, before :func:`_unit_array`; so
    amplitudes beyond the float range convert, and no GaussRat is built.
    """
    if not s.exact:
        return PureState(_unit_array(s.array))
    re, im, _ = gauss_ints(s.array)
    n = int((re * re + im * im).sum())
    r = math.isqrt(n)
    if r * r == n:
        return PureState(gauss_rats(re, im, r))
    top = max(np.abs(re).max(), np.abs(im).max())
    arr = np.empty(re.shape, np.complex128)
    arr.real, arr.imag = re / top, im / top
    return PureState(_unit_array(arr))


def _unit_array(arr: np.ndarray) -> np.ndarray:
    """The float body of :func:`normalize`: a nonzero amplitude array as a new
    ``complex128`` array of unit 2-norm, with no state built around it.

    It first divides by the largest real or imaginary part, so the norm
    neither overflows nor underflows for any finite nonzero array.  Its
    power-of-two exponent is taken off each part exactly first: complex
    division multiplies by the reciprocal, which is infinite for a subnormal.
    """
    parts, _, top = scale_parts(np.ascontiguousarray(arr, dtype=np.complex128).view(np.float64))
    arr = parts.view(np.complex128) / top
    return arr / np.linalg.norm(arr)


def segre_map(factors: Sequence[LocalState]) -> PureState:
    """Tensor product of local states: amplitude at (i1..im) = prod_j vec_j[i_j].

    Mixed exact and float factors give a float state.  Raises NonFinite when
    an exact entry or a product amplitude is beyond the float range, and
    ZeroVector ("all amplitudes are zero") when every float product amplitude
    underflows to zero; the PureState constructor makes both checks.  Raises
    TooLarge when the product of the factor lengths exceeds MAX_AMPS.
    """
    if len(factors) < 2:
        raise DimensionMismatch(f"segre_map needs >= 2 factors, got {len(factors)}")
    check_cap("prod(dims)", [f.dim for f in factors], MAX_AMPS)
    arrays = [f.array for f in factors]
    if all(f.exact for f in factors):
        # the complex outer product in Gaussian integers over the product of the
        # denominators; each amplitude becomes a GaussRat once, at the end
        outer = np.multiply.outer
        re, im, den = gauss_ints(arrays[0])
        for a in arrays[1:]:
            x, y, d = gauss_ints(a)
            re, im, den = outer(re, x) - outer(im, y), outer(re, y) + outer(im, x), den * d
        return PureState(gauss_rats(re, im, den))
    arrays = [
        _complex_array(a.tolist(), f"factors[{j}]") if a.dtype == object else a
        for j, a in enumerate(arrays)
    ]
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        return PureState(functools.reduce(np.multiply.outer, arrays))


def flat_layout(shape: tuple[int, ...], b: Bipartition) -> tuple[tuple[int, ...], int]:
    """``(perm, rows)`` with ``arr.transpose(perm).reshape(rows, -1)`` the
    flattening of an array of ``shape`` at b (see :func:`flat_matrix`).
    IndexOutOfRange unless b is a Bipartition that :func:`make_bipartition`'s
    rule accepts against the ``len(shape)`` modes."""
    if not isinstance(b, Bipartition):
        raise IndexOutOfRange(f"expected a Bipartition, got {type(b).__name__}")
    _check_within(b.left, len(shape))
    return _flat_layout(shape, b.left)


def _flat_layout(shape: tuple[int, ...], left: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """:func:`flat_layout` of a row group that is known to be valid, unchecked."""
    perm = [j - 1 for j in left]
    rows = math.prod([shape[j] for j in perm])
    perm += (j for j in range(len(shape)) if j + 1 not in left)
    return tuple(perm), rows


def flat_matrix(arr: np.ndarray, b: Bipartition) -> np.ndarray:
    """The array's modes b.left as rows and the rest as columns.

    Row and column indices are row-major in the sorted order of their mode
    groups, consistent with the global amplitude order.
    """
    perm, rows = flat_layout(arr.shape, b)
    return arr.transpose(perm).reshape(rows, -1)


def flatten(s: PureState, b: Bipartition) -> Flattening:
    """Flattening of the state with rows indexed by b.left (see :func:`flat_matrix`)."""
    mat = flat_matrix(s.array, b)
    return Flattening(*mat.shape, mat)


def permute_modes(s: PureState, perm: Sequence[int]) -> PureState:
    """Reorder modes: new mode k carries old mode perm[k-1] (perm is 1-based).

    Entries follow the ``is_int`` rule, except that numpy integers, as from
    ``rng.permutation``, are accepted too.
    """
    m = s.num_modes
    ints = all(is_int(p) or isinstance(p, np.integer) for p in perm)
    if not ints or sorted(perm) != list(range(1, m + 1)):
        raise IndexOutOfRange(f"perm {short_text(list(perm))} is not a permutation of 1..{m}")
    return PureState(s.array.transpose([p - 1 for p in perm]))


def apply_local_unitary(s: PureState, mode: int, u: np.ndarray) -> PureState:
    """Apply a d x d matrix (:func:`matrix_array`) to one mode (float backend);
    the PureState constructor rejects a zero or non-finite result."""
    if not is_int(mode) or mode < 1 or mode > s.num_modes:
        raise IndexOutOfRange(f"mode {short_text(mode)} is not an int in 1..{s.num_modes}")
    d = s.dims[mode - 1]
    u = matrix_array(u, "u")
    if u.shape != (d, d):
        raise DimensionMismatch(f"matrix shape {u.shape} does not match dim {d}")
    u = _complex_array(u.reshape(-1), "u").reshape(d, d)
    with np.errstate(over="ignore", invalid="ignore"):
        arr = np.tensordot(u, s.to_numpy().reshape(s.dims), axes=([1], [mode - 1]))
    return PureState(np.moveaxis(arr, 0, mode - 1))


def apply_local_unitaries(s: PureState, mats: Sequence[np.ndarray]) -> PureState:
    if len(mats) != s.num_modes:
        raise DimensionMismatch(f"got {len(mats)} matrices for {s.num_modes} modes")
    for k, u in enumerate(mats):
        s = apply_local_unitary(s, k + 1, u)
    return s


# ---------------------------------------------------------------------------
# State JSON format: {"dims": [d1, ...], "amps": [[re, im], ...]} with amps in
# the row-major order above.  Components are JSON numbers (floats select the
# float backend) or "p/q" strings / integers (exact backend).  A single float
# anywhere makes the whole state float; --exact parsing rejects floats.
# ---------------------------------------------------------------------------


def _parse_component(value, field: str, exact_only: bool):
    if is_int(value) or isinstance(value, str):
        return as_fraction(value, field)
    if isinstance(value, float):
        if exact_only:
            raise MalformedInput(f"{field}: float not allowed in exact mode")
        return value
    raise MalformedInput(f"{field}: expected number or 'p/q' string")


def parse_amplitudes(raw: list, field: str, exact_only: bool = False) -> list[Scalar]:
    """Parse a JSON list of [re, im] pairs; messages name the offending entry.

    A pair of exact components becomes a GaussRat and a pair with a float a
    complex, so :func:`amplitude_array` puts the whole vector in the float
    backend as soon as one component is a float.
    """
    out = []
    for k, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise MalformedInput(f"{field}[{k}]: expected a [re, im] pair")
        re = _parse_component(pair[0], f"{field}[{k}][0]", exact_only)
        im = _parse_component(pair[1], f"{field}[{k}][1]", exact_only)
        if isinstance(re, float) or isinstance(im, float):
            try:
                out.append(complex(float(re), float(im)))
            except OverflowError:
                raise NonFinite(f"{field}[{k}] is beyond the float range") from None
        else:
            out.append(GaussRat(re, im))
    return out


def amplitudes_to_json(arr: np.ndarray) -> list:
    """The array's amplitudes in row-major order as JSON [re, im] pairs.

    Exact parts become "p/q" strings, which :func:`parse_amplitudes` reads
    back; float parts stay numbers.
    """
    values = arr.reshape(-1).tolist()
    if arr.dtype == object:
        return [[str(a.re), str(a.im)] for a in values]
    return [[a.real, a.imag] for a in values]


def state_from_json(obj, exact: bool = False) -> PureState:
    """Parse the state JSON object; messages name the first offending field.

    Raises TooLarge when prod(dims) exceeds ``errors.MAX_AMPS``; the amplitude
    count is checked against dims before any amplitude is parsed.
    """
    if not isinstance(obj, dict):
        raise MalformedInput("top level: expected an object")
    if "dims" not in obj:
        raise MalformedInput("dims: missing")
    if "amps" not in obj:
        raise MalformedInput("amps: missing")
    try:
        dims = check_dims(obj["dims"])
        check_cap("prod(dims)", dims, MAX_AMPS)
        total = math.prod(dims)
        raw = obj["amps"]
        if not isinstance(raw, list):
            raise MalformedInput("amps: expected a list")
        if len(raw) != total:
            raise MalformedInput(f"amps has length {len(raw)}, expected {total}")
        return make_state(dims, parse_amplitudes(raw, "amps", exact))
    except (DimensionMismatch, ZeroVector, NonFinite) as exc:
        raise MalformedInput(str(exc)) from None


def state_to_json(s: PureState) -> dict:
    return {"dims": list(s.dims), "amps": amplitudes_to_json(s.array)}
