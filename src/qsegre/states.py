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
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    MalformedInput,
    NonFinite,
    TooLarge,
    ZeroVector,
)
from .gaussrat import Frozen, GaussRat, Scalar, is_int, rational_sqrt

DEFAULT_MAX_AMPS = 4096


def amplitude_array(values, shape: tuple[int, ...], label: str = "amps") -> np.ndarray:
    """Array of ``shape`` from the ``values``, in the backend they select.

    Exact (an ``object`` array of GaussRat) iff every entry is an int,
    Fraction or GaussRat; otherwise a finite ``complex128`` array.  Raises
    DimensionMismatch unless there are prod(shape) values (an array counts all
    its entries), MalformedInput for entries that are not numbers (bool and
    str included) and NonFinite for NaN/Inf and for exact entries beyond the
    float range in a float array.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "iufc":
        values = values.reshape(-1)
    else:
        values = list(values.flat if isinstance(values, np.ndarray) else values)
    total = math.prod(shape)
    if len(values) != total:
        raise DimensionMismatch(f"{label} has length {len(values)}, expected {total}")
    if isinstance(values, list):
        # one pass collects the entry types; the ABC check runs only if one is unlisted
        types = set(map(type, values))
        if not types <= {int, Fraction, GaussRat, float, complex}:
            for k, a in enumerate(values):
                if isinstance(a, bool) or not isinstance(a, (numbers.Number, GaussRat)):
                    raise MalformedInput(f"{label}[{k}]: expected a number, got {type(a).__name__}")
        if all(issubclass(t, (int, Fraction, GaussRat)) for t in types):
            arr = np.empty(len(values), dtype=object)
            arr[:] = [a if isinstance(a, GaussRat) else GaussRat(a) for a in values]
            return arr.reshape(shape)
    arr = _complex_array(values, label)
    _check_finite(arr, label)
    return arr.reshape(shape)


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


def gauss_ints(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Real and imaginary parts over one common denominator: ``arr == (re + i*im) / den``.

    The one rule that turns either backend into parts, so an expression on
    ``re`` and ``im`` serves both.  A float array gives its own ``real`` and
    ``imag`` and den 1; an exact array gives ``object`` arrays of Python ints
    (cleared values outgrow int64) over the lcm of every denominator.
    """
    if arr.dtype != object:
        return arr.real, arr.imag, 1
    flat = arr.reshape(-1).tolist()
    den = math.lcm(*(x.re.denominator for x in flat), *(x.im.denominator for x in flat))
    re = np.array([x.re.numerator * (den // x.re.denominator) for x in flat], dtype=object)
    im = np.array([x.im.numerator * (den // x.im.denominator) for x in flat], dtype=object)
    return re.reshape(arr.shape), im.reshape(arr.shape), den


def scale_parts(re: np.ndarray, im: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """``(re / 2**e, im / 2**e, e)`` with the largest float part scaled into
    [0.5, 1), so products of parts do not overflow; exact but for subnormals."""
    e = int(np.frexp(max(np.abs(re).max(), np.abs(im).max()))[1])
    return np.ldexp(re, -e), np.ldexp(im, -e), e


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
    """The one tolerance rule: a finite nonnegative real that is not a bool, else MalformedInput."""
    real = isinstance(tol, numbers.Real) and not isinstance(tol, bool)
    if not (real and math.isfinite(tol) and tol >= 0):
        raise MalformedInput(f"tol must be finite and nonnegative, got {tol!r}")


class _Amplitudes(Frozen):
    """The states' one constructor: NonFinite for NaN/Inf in a float array,
    ZeroVector for an all-zero one, and the array is made read-only."""

    __slots__ = ()

    def __init__(self, array: np.ndarray):
        if array.dtype != object:
            _check_finite(array, "amps")
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
        return int(np.ravel_multi_index(tuple(index), self.dims))

    def amplitude(self, index: Sequence[int]) -> Scalar:
        return self.array.item(tuple(index))


class LocalState(_Amplitudes):
    """One mode's amplitude vector; the projective factor of a product state."""

    __slots__ = ("array",)

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    @property
    def vec(self) -> tuple[Scalar, ...]:
        return tuple(self.array.tolist())


@dataclass(frozen=True)
class Bipartition:
    """An unordered split of the modes {1..m}, stored by its row group.

    The canonical representative of a split contains mode 1; use
    :meth:`canonicalize` to get it.  Non-canonical row groups are still legal
    for :func:`flatten`, which only reindexes.
    """

    left: tuple[int, ...]

    def canonicalize(self, num_modes: int) -> "Bipartition":
        return self if 1 in self.left else Bipartition(self.complement(num_modes))

    def complement(self, num_modes: int) -> tuple[int, ...]:
        return tuple(j for j in range(1, num_modes + 1) if j not in self.left)


class Flattening(Frozen):
    """Matrix view of a state under a bipartition.

    ``entries`` is a read-only rows x cols array in the state's backend.  Any
    matrix given here (an array or rows of scalars) goes through
    :func:`amplitude_array`, so its dtype alone says which backend it is in.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        flat = entries if isinstance(entries, np.ndarray) else [x for row in entries for x in row]
        arr = amplitude_array(flat, (rows, cols), "entries")
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
    array.  Raises DimensionMismatch for bad dims; :func:`amplitude_array`
    and the PureState constructor check the amplitudes.
    """
    dims = tuple(dims)
    if not dims:
        raise DimensionMismatch("dims must be nonempty")
    for j, d in enumerate(dims):
        if not isinstance(d, int) or d < 2:
            raise DimensionMismatch(f"dims[{j}] must be an integer >= 2, got {d!r}")
    return PureState(amplitude_array(amps, dims))


def make_local(vec: Sequence) -> LocalState:
    """Validate and build a LocalState from its amplitude vector."""
    if len(vec) < 2:
        raise DimensionMismatch(f"local vector needs >= 2 entries, got {len(vec)}")
    return LocalState(amplitude_array(vec, (len(vec),), "vec"))


def make_bipartition(left: Iterable[int], num_modes: int) -> Bipartition:
    """Validate a row group against the mode count {1..num_modes}."""
    left = tuple(left)
    for j in left:
        if not is_int(j):
            raise IndexOutOfRange(f"bipartition mode {j!r}: expected an int")
    modes = tuple(sorted(set(left)))
    if not modes:
        raise IndexOutOfRange("bipartition is empty")
    if modes[0] < 1 or modes[-1] > num_modes:
        raise IndexOutOfRange(f"bipartition {modes} out of range 1..{num_modes}")
    if len(modes) == num_modes:
        raise IndexOutOfRange("bipartition must be a proper subset of the modes")
    return Bipartition(modes)


def canonical_bipartitions(num_modes: int) -> list[Bipartition]:
    """All 2^(m-1) - 1 unordered splits, each by its 1-containing representative."""
    rest = range(2, num_modes + 1)
    out = []
    for r in range(0, num_modes - 1):
        for extra in itertools.combinations(rest, r):
            out.append(Bipartition((1,) + extra))
    return sorted(out, key=lambda b: b.left)


def normalize(s: PureState) -> PureState:
    """Scale to unit 2-norm.  Stays exact when the norm is rational.

    The float path first divides by the largest real or imaginary part, so
    the norm neither overflows nor underflows for any finite nonzero state.
    Its power-of-two exponent is taken off each part exactly first: complex
    division multiplies by the reciprocal, which is infinite for a subnormal.
    An exact state with an irrational norm is divided by that part exactly
    before it becomes float, so amplitudes beyond the float range convert.
    """
    arr = s.array
    if s.exact:
        r = rational_sqrt(s.norm_sq())
        if r is not None:
            return PureState(arr * GaussRat(1 / r))
        arr = arr / max(max(abs(x.re), abs(x.im)) for x in arr.flat)
    arr = arr.astype(np.complex128)
    arr.real, arr.imag, _ = scale_parts(arr.real, arr.imag)
    arr = arr / max(np.abs(arr.real).max(), np.abs(arr.imag).max())
    return PureState(arr / np.linalg.norm(arr))


def segre_map(factors: Sequence[LocalState]) -> PureState:
    """Tensor product of local states: amplitude at (i1..im) = prod_j vec_j[i_j].

    Mixed exact and float factors give a float state.  Raises NonFinite when
    an exact entry or a product amplitude is beyond the float range, and
    ZeroVector ("all amplitudes are zero") when every float product amplitude
    underflows to zero; the PureState constructor makes both checks.
    """
    if len(factors) < 2:
        raise DimensionMismatch(f"segre_map needs >= 2 factors, got {len(factors)}")
    arrays = [f.array for f in factors]
    if all(f.exact for f in factors):
        return PureState(functools.reduce(np.multiply.outer, arrays))
    arrays = [
        _complex_array(a.tolist(), f"factors[{j}]") if a.dtype == object else a
        for j, a in enumerate(arrays)
    ]
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        return PureState(functools.reduce(np.multiply.outer, arrays))


def flat_matrix(arr: np.ndarray, b: Bipartition) -> np.ndarray:
    """The array's modes b.left as rows and the rest as columns.

    Row and column indices are row-major in the sorted order of their mode
    groups, consistent with the global amplitude order.
    """
    m = arr.ndim
    left = b.left
    if (not left or not all(map(is_int, left)) or list(left) != sorted(set(left))
            or left[0] < 1 or left[-1] > m):
        raise IndexOutOfRange(f"bipartition {left} invalid for {m} modes")
    if len(left) == m:
        raise IndexOutOfRange("bipartition must be a proper subset of the modes")
    rows = math.prod(arr.shape[j - 1] for j in left)
    return arr.transpose([j - 1 for j in (*left, *b.complement(m))]).reshape(rows, -1)


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
        raise IndexOutOfRange(f"perm {perm} is not a permutation of 1..{m}")
    return PureState(s.array.transpose([p - 1 for p in perm]))


def apply_local_unitary(s: PureState, mode: int, u: np.ndarray) -> PureState:
    """Apply a d x d matrix to one mode (float backend); the PureState
    constructor rejects a zero or non-finite result."""
    if not is_int(mode) or mode < 1 or mode > s.num_modes:
        raise IndexOutOfRange(f"mode {mode!r} is not an int in 1..{s.num_modes}")
    d = s.dims[mode - 1]
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (d, d):
        raise DimensionMismatch(f"matrix shape {u.shape} does not match dim {d}")
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
    if isinstance(value, bool):
        raise MalformedInput(f"{field}: expected number or 'p/q' string")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        # Fraction expands exponents: a 10-byte "1e-1000000" is a 3.3M-bit denominator
        if "e" in value or "E" in value:
            raise MalformedInput(f"{field}: exponent not allowed in fraction literal {value!r}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise MalformedInput(f"{field}: bad fraction literal {value!r}") from None
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


def state_from_json(obj, exact: bool = False, max_amps: int = DEFAULT_MAX_AMPS) -> PureState:
    """Parse the state JSON object; messages name the first offending field.

    Raises TooLarge when prod(dims) exceeds ``max_amps``; the amplitude count
    is checked against dims before any amplitude is parsed.
    """
    if not isinstance(obj, dict):
        raise MalformedInput("top level: expected an object")
    if "dims" not in obj:
        raise MalformedInput("dims: missing")
    if "amps" not in obj:
        raise MalformedInput("amps: missing")
    dims = obj["dims"]
    if not isinstance(dims, list) or not dims:
        raise MalformedInput("dims: expected a nonempty list")
    for j, d in enumerate(dims):
        if not is_int(d) or d < 2:
            raise MalformedInput(f"dims[{j}]: expected an integer >= 2")
    total = math.prod(dims)
    if total > max_amps:
        raise TooLarge(f"prod(dims) = {total} exceeds cap {max_amps}")
    raw = obj["amps"]
    if not isinstance(raw, list):
        raise MalformedInput("amps: expected a list")
    if len(raw) != total:
        raise MalformedInput(f"amps has length {len(raw)}, expected {total}")
    amps = parse_amplitudes(raw, "amps", exact)
    try:
        return make_state(dims, amps)
    except (DimensionMismatch, ZeroVector, NonFinite) as exc:
        raise MalformedInput(str(exc)) from None


def state_to_json(s: PureState) -> dict:
    return {"dims": list(s.dims), "amps": amplitudes_to_json(s.array)}
