"""The exact state path on integer parts against the all-``object`` expressions it replaced.

``split_terms``, ``minor_sum``, ``segre_map``, ``local_factors`` and
``normalize`` build their exact results from ``gauss_ints`` parts: the Gram
kernel runs on int64 when n = ||A + iC||_F^2 < 2**62, the Segre product and
the pivot division run in Gaussian integers, and the norm is rational iff
the parts' n is a perfect square.  The oracles below are the expressions
they replaced, on ``object`` arrays of Python ints and on GaussRat arithmetic.
"""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsegre import (
    Bipartition,
    GaussRat,
    canonical_bipartitions,
    flatten,
    generalized_concurrence,
    local_factors,
    make_local,
    make_state,
    minor_sum,
    segre_map,
)
from qsegre import segre
from qsegre.errors import NotProduct
from qsegre.sampling import default_rng, random_exact_product_state, random_haar_state
from qsegre.segre import split_terms
from qsegre.states import _unit_array, flat_matrix, gauss_ints, gauss_rats, normalize


def object_twice_minor_sum(a, c):
    """The Gram kernel on ``object`` arrays of Python ints, squares included."""
    if a.shape[0] > a.shape[1]:
        a, c = a.T, c.T
    g_re = a @ a.T + c @ c.T
    x = c @ a.T
    g_im = x - x.T
    n = int(g_re.trace())
    return n * n - int((g_re * g_re + g_im * g_im).sum())


def split_terms_oracle(s, splits):
    a, c, _ = gauss_ints(s.array)
    n2 = 2 * int((a * a + c * c).sum()) ** 2
    return [Fraction(object_twice_minor_sum(flat_matrix(a, b), flat_matrix(c, b)), n2) for b in splits]


def minor_sum_oracle(f):
    a, c, den = gauss_ints(f.entries)
    return Fraction(object_twice_minor_sum(a, c), 2 * den ** 4)


def segre_map_oracle(factors):
    return functools.reduce(np.multiply.outer, [f.array for f in factors])


def local_factors_oracle(s):
    """Fibers through the max-modulus pivot, divided by it in GaussRat arithmetic
    (exact) or normalized after normalizing the state (float)."""
    hat = s if s.exact else normalize(s)
    re, im, _ = gauss_ints(hat.array)
    pivot = np.unravel_index(int(np.argmax(re * re + im * im)), s.dims)
    fibers = [hat.array[pivot[:j] + (slice(None),) + pivot[j + 1:]] for j in range(s.num_modes)]
    return [v / (hat.array[pivot] if s.exact else np.linalg.norm(v)) for v in fibers]


def normalize_oracle(s):
    """The exact normalize on GaussRat arithmetic: times 1/||s|| when the squared
    norm is a rational square, else divided by the largest part, then float."""
    arr = s.array
    q = s.norm_sq()
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return arr * GaussRat(Fraction(rd, rn))
    return _unit_array(arr / max(max(abs(x.re), abs(x.im)) for x in arr.flat))


def gram_dtype(s):
    return segre._gram_parts(s.array)[0].dtype


def gauss_rat(bits):
    part = st.builds(Fraction, st.integers(-2**bits, 2**bits), st.integers(1, 12))
    return st.builds(GaussRat, part, part)


@st.composite
def exact_case(draw, bits):
    """Factors of 2 to 4 modes and an entangled-or-not state of the same dims.

    One part of each has magnitude at least 2**(bits - 5), so for bits = 40 the
    cleared parts pass 2**31 and n passes 2**62; bits = 4 keeps n below it."""
    dims = draw(st.lists(st.integers(2, 3), min_size=2, max_size=4))
    big = GaussRat(draw(st.sampled_from([-1, 1])) * draw(st.integers(2 ** max(bits - 5, 0), 2**bits)))

    def vector(n):
        values = draw(st.lists(gauss_rat(bits), min_size=n, max_size=n))
        values[draw(st.integers(0, n - 1))] = big
        return values

    factors = [make_local(vector(d)) for d in dims]
    return factors, make_state(dims, vector(math.prod(dims)))


def assert_exact_path_matches(factors, state):
    product = segre_map(factors)
    assert np.array_equal(product.array, segre_map_oracle(factors))
    got = local_factors(product, 0)
    assert all(np.array_equal(f.array, v) for f, v in zip(got, local_factors_oracle(product), strict=True))
    for s in (product, state):
        parts = canonical_bipartitions(s.num_modes)
        assert list(split_terms(s, parts)) == split_terms_oracle(s, parts)
        assert [minor_sum(flatten(s, b)) for b in parts] == [minor_sum_oracle(flatten(s, b)) for b in parts]
        assert generalized_concurrence(s).per_bipartition == {
            b: float(t) for b, t in zip(parts, split_terms_oracle(s, parts))}


@settings(max_examples=40, deadline=None)
@given(exact_case(4))
def test_exact_path_matches_object_oracle_on_int64(case):
    factors, state = case
    assert gram_dtype(state) == np.int64
    assert_exact_path_matches(factors, state)


@settings(max_examples=25, deadline=None)
@given(exact_case(40))
def test_exact_path_matches_object_oracle_on_object(case):
    factors, state = case
    assert gram_dtype(state) == object and gram_dtype(segre_map(factors)) == object
    assert_exact_path_matches(factors, state)


def test_parts_past_two_to_the_31_stay_object(monkeypatch):
    # one dtype per matrix the stacked kernel takes
    seen = []
    kernel = segre._stacked_int_minor_sums
    monkeypatch.setattr(segre, "_stacked_int_minor_sums",
                        lambda mats, n: seen.extend([mats.dtype] * len(mats)) or kernel(mats, n))
    s = make_state([2, 2, 2], [GaussRat(2**31, 1), 1, 0, GaussRat(0, 3), 5, 0, 0, GaussRat(-7, 2)])
    parts = canonical_bipartitions(3)
    assert list(split_terms(s, parts)) == split_terms_oracle(s, parts)
    assert seen == [np.dtype(object)] * 3


def squares_summing_to(n):
    """Ints whose squares sum to n, greedily after a first one below sqrt(n)."""
    out = [math.isqrt(n - 1)]
    n -= out[0] ** 2
    while n:
        out.append(math.isqrt(n))
        n -= out[-1] ** 2
    return out


@pytest.mark.parametrize("n, dtype", [(2**62 - 1, np.int64), (2**62, object)])
def test_gram_dtype_switches_at_two_to_the_62(n, dtype):
    parts = squares_summing_to(n)
    parts += [0] * (16 - len(parts))
    s = make_state([2, 2, 2], [GaussRat(a, b) for a, b in zip(parts[:8], parts[8:])])
    assert segre._gram_parts(s.array)[1] == n and gram_dtype(s) == dtype
    splits = canonical_bipartitions(3)
    assert list(split_terms(s, splits)) == split_terms_oracle(s, splits)
    assert [minor_sum(flatten(s, b)) for b in splits] == [minor_sum_oracle(flatten(s, b)) for b in splits]


def test_gram_entries_near_n_below_two_to_the_62():
    # A = t, C = t on the two ends of a GHZ-like state: the Gram entries reach
    # n / 2 = t^2, about 2**61, and the squares about 2**122
    t = math.isqrt((2**62 - 1) // 2)
    for amps in ([t] + [0] * 6 + [GaussRat(0, t)], [GaussRat(t, 0), 0, 0, 0, 0, 0, GaussRat(t - 1, 1), 0]):
        s = make_state([2, 2, 2], amps)
        assert gram_dtype(s) == np.int64
        splits = canonical_bipartitions(3)
        assert list(split_terms(s, splits)) == split_terms_oracle(s, splits)


def random_normalize_case(rng):
    """An exact state of 1 to 4 modes and whether its norm is rational.

    Each part is p/q with |p| <= 9 and q <= 12, half of them times 10**400 or
    10**-400.  A rational-norm state is (2 t u, |u|^2 - t^2) for random parts u
    and a random t, whose norm is |u|^2 + t^2; the others have random parts."""
    dims = [int(d) for d in rng.integers(2, 4, size=rng.integers(1, 5))]
    scales = (1, 1, 10**400, Fraction(1, 10**400))

    def part():
        return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 13))) * scales[rng.integers(4)]

    parts = [part() for _ in range(2 * math.prod(dims))]
    rational = bool(rng.integers(2))
    if rational:
        t = part() or Fraction(1)
        u = parts[:-2] + parts[-1:]
        parts = [2 * t * x for x in parts[:-2]] + [sum(x * x for x in u) - t * t, 2 * t * parts[-1]]
    if not any(parts):
        parts[0] = Fraction(1)
    return make_state(dims, [GaussRat(a, b) for a, b in zip(parts[0::2], parts[1::2])]), rational


def check_normalize(seed, count):
    """``normalize`` against its oracle on ``count`` random cases: equal exact
    parts when the norm is rational, the oracle's float bytes otherwise.
    Returns how many results were exact."""
    rng = default_rng(seed)
    exact = 0
    for _ in range(count):
        s, rational = random_normalize_case(rng)
        got, want = normalize(s), normalize_oracle(s)
        assert got.exact is (want.dtype == object) and (got.exact or not rational)
        if got.exact:
            exact += 1
            assert [(x.re, x.im) for x in got.array.flat] == [(x.re, x.im) for x in want.flat]
        else:
            assert got.array.tobytes() == want.tobytes()
    return exact


def test_normalize_matches_gauss_rat_oracle():
    assert 200 < check_normalize(24, 500) < 300


def test_irrational_normalize_matches_the_gauss_rat_path():
    # each part over the largest, by int true division, rounds as float(Fraction)
    # does, so the bytes are those of the path that built one GaussRat per amplitude
    rng = default_rng(26)
    cases = [make_state([2], [1, 1])]  # CI's {"dims":[2],"amps":[[1,0],[1,0]]}
    while len(cases) < 150:
        s, rational = random_normalize_case(rng)
        cases += [] if rational else [s]
    floats = 0
    for s in cases:
        re, im, _ = gauss_ints(s.array)
        got = normalize(s)
        if not got.exact:
            floats += 1
            want = _unit_array(gauss_rats(re, im, max(np.abs(re).max(), np.abs(im).max())))
            assert got.array.tobytes() == want.tobytes()
    assert floats > 140
    assert normalize(cases[0]).array.tobytes() == np.array([0.7071067811865475] * 2, np.complex128).tobytes()


@pytest.mark.parametrize("m", [4, 5, 6])
def test_exact_concurrence_kernel_calls(monkeypatch, m):
    # one entry per matrix the stacked kernel takes
    calls = []
    kernel = segre._stacked_int_minor_sums
    monkeypatch.setattr(segre, "_stacked_int_minor_sums",
                        lambda mats, n: calls.extend([1] * len(mats)) or kernel(mats, n))
    rng = default_rng(70 + m)
    parts = canonical_bipartitions(m)
    product = random_exact_product_state(rng, [2] * m)
    report = generalized_concurrence(product)
    assert len(calls) == m
    assert report.value == 0.0 and list(report.per_bipartition) == parts
    assert all(t == 0.0 for t in report.per_bipartition.values())
    calls.clear()
    entangled = make_state([2] * m, [GaussRat(int(x), int(y)) for x, y in rng.integers(-9, 10, size=(2**m, 2))])
    report = generalized_concurrence(entangled)
    assert len(calls) == 2 ** (m - 1) - 1
    assert list(report.per_bipartition) == parts
    assert report.per_bipartition == {b: float(t) for b, t in zip(parts, split_terms_oracle(entangled, parts))}


def gaussian_int_state(rng, dims, bits):
    """A state of random Gaussian-integer amplitudes below 2**bits in each part."""
    parts = rng.integers(-2**bits, 2**bits, size=(math.prod(dims), 2))
    return make_state(list(dims), [GaussRat(int(x), int(y)) for x, y in parts])


def measure_oracle(s):
    """The Fraction-sum path the integer sum replaced: each term an object-kernel
    Fraction, their mean a Fraction, and one float of it."""
    parts = canonical_bipartitions(s.num_modes)
    terms = split_terms_oracle(s, parts)
    return 2 * math.sqrt(float(sum(terms) / len(terms))), {b: float(t) for b, t in zip(parts, terms)}


@pytest.mark.parametrize("dims, bits, dtype", [
    ((2, 2, 2), 9, np.int64), ((3, 2, 4), 9, np.int64), ((2, 3, 2, 2), 40, object),
    ((3, 2, 4), 40, object), ((2,) * 10, 3, np.int64)])
def test_exact_measure_report_equals_fraction_sum_oracle(dims, bits, dtype):
    # (3, 2, 4) has tall splits, which are stacked as their transposes; at ten
    # qubits each shape group of splits spans several chunks
    rng = default_rng(sum(dims) + bits)
    entangled = gaussian_int_state(rng, dims, bits)
    assert gram_dtype(entangled) == dtype
    if len(dims) == 10:
        rows = [math.prod(dims[j - 1] for j in b.left) for b in canonical_bipartitions(10)]
        assert max(map(rows.count, rows)) > segre.CHUNK_AMPS // 2**10
    for s in (entangled, random_exact_product_state(rng, list(dims))):
        report = generalized_concurrence(s)
        value, per = measure_oracle(s)
        assert report.value.hex() == value.hex()
        assert list(report.per_bipartition) == list(per)
        assert [t.hex() for t in report.per_bipartition.values()] == [t.hex() for t in per.values()]


def test_exact_split_terms_follow_the_callers_order():
    # repeated and non-canonical splits, in no particular order, each get the
    # term of their own flattening, as the chunks hand them back out of order
    rng = default_rng(41)
    for dims in ((2, 3, 2, 2), (3, 2, 4)):
        s = gaussian_int_state(rng, dims, 6)
        m = len(dims)
        parts = canonical_bipartitions(m)
        splits = [parts[2], Bipartition((2,)), parts[0], Bipartition(tuple(range(2, m + 1))), parts[2],
                  Bipartition((m,)), parts[-1], Bipartition((2, m)), parts[0]]
        terms = list(split_terms(s, splits))
        assert terms == split_terms_oracle(s, splits)
        assert terms[0] == terms[4] and terms[2] == terms[3] == terms[8]


def brute_minor_sum(entries):
    """The sum of |det|^2 over every 2x2 minor, in GaussRat arithmetic."""
    rows, cols = entries.shape
    total = Fraction(0)
    for i in range(rows):
        for j in range(i + 1, rows):
            for k in range(cols):
                for l in range(k + 1, cols):
                    det = entries[i, k] * entries[j, l] - entries[i, l] * entries[j, k]
                    total += det.abs_sq()
    return total


@pytest.mark.parametrize("dims, left", [((2, 2, 2), (1, 2)), ((3, 2, 4), (1, 3)), ((2, 5), (2,))])
def test_exact_minor_sum_of_a_tall_flattening(dims, left):
    rng = default_rng(len(left) + sum(dims))
    for bits in (5, 40):
        s = gaussian_int_state(rng, dims, bits)
        f = flatten(s, Bipartition(left))
        assert f.rows > f.cols
        got = minor_sum(f)
        assert got == brute_minor_sum(f.entries) == minor_sum_oracle(f)
        right = tuple(j for j in range(1, len(dims) + 1) if j not in left)
        assert got == minor_sum(flatten(s, Bipartition(right)))


def test_float_local_factors_normalize_once(monkeypatch):
    # float measures normalize through the array helper, with no state built around it
    calls = []
    monkeypatch.setattr(segre, "_unit_array", lambda arr: calls.append(1) or _unit_array(arr))
    rng = default_rng(11)
    for m in (2, 3, 5):
        s = make_state([2] * m, random_exact_product_state(rng, [2] * m).to_numpy() * 1e3j)
        calls.clear()
        got = local_factors(s, 1e-8)
        assert len(calls) == 1
        for f, v in zip(got, local_factors_oracle(s), strict=True):
            np.testing.assert_allclose(f.array, v, rtol=0, atol=1e-12)
    haar = random_haar_state(rng, [2, 2, 2])
    with pytest.raises(NotProduct):
        local_factors(haar, 1e-8)
