import hashlib
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsegre import (
    Bipartition,
    DimensionMismatch,
    Flattening,
    GaussRat,
    StateVar,
    TooLarge,
    WrongShape,
    canonical_bipartitions,
    concurrence2,
    evaluate,
    flatten,
    format_poly,
    generalized_concurrence,
    is_bipartite_separable,
    is_fully_separable,
    is_homogeneous,
    local_factors,
    make_bipartition,
    make_local,
    make_state,
    measure_report_to_json,
    minor_sum,
    normalize,
    segre_generators,
    segre_map,
)
from qsegre.errors import MalformedInput, NonFinite, NotProduct
from qsegre import segre
from qsegre.grassmann import unique_rows
from qsegre.segre import GRAM_CUTOFF, split_terms
from qsegre.sampling import (
    default_rng,
    random_exact_product_state,
    random_haar_state,
    random_product_state,
    random_unitary,
)
from qsegre.states import abs_sq_sum, apply_local_unitaries, flat_matrix, gauss_ints, permute_modes

from oracles import add, first_positive, minor_sum_direct, mul, poly_rows, render, state_assignment, sv, term_rows

SQ2 = 1.0 / math.sqrt(2.0)


def expected_generator_count(dims):
    """Independent count of distinct flattening minors.

    A minor is a pair of monomials {a_u a_v, a_w a_x} sharing per-mode value
    multisets; for a diagonal pair (u, v) disagreeing on d >= 2 modes there
    are 2^(d-1) - 1 partners, and each polynomial owns two diagonal pairs.
    """
    idxs = list(itertools.product(*(range(d) for d in dims)))
    total = 0
    for u, v in itertools.combinations(idxs, 2):
        d = sum(1 for a, b in zip(u, v) if a != b)
        if d >= 2:
            total += 2 ** (d - 1) - 1
    assert total % 2 == 0
    return total // 2


def minor_product_oracle(dims):
    """Every 2x2 minor of every canonical flattening, built as oracle
    polynomials (tests/oracles.py), first coefficient positive, deduplicated
    and sorted by terms."""
    m = len(dims)
    seen = {}
    for b in canonical_bipartitions(m):
        left = list(b.left)
        right = [j for j in range(1, m + 1) if j not in b.left]
        row_ids = list(itertools.product(*(range(dims[j - 1]) for j in left)))
        col_ids = list(itertools.product(*(range(dims[j - 1]) for j in right)))

        def var(rindex, cindex):
            out = [0] * m
            for j, i in zip(left, rindex):
                out[j - 1] = i
            for j, i in zip(right, cindex):
                out[j - 1] = i
            return sv(*out)

        for r1, r2 in itertools.combinations(row_ids, 2):
            for c1, c2 in itertools.combinations(col_ids, 2):
                minor = first_positive(add(mul(var(r1, c1), var(r2, c2)), mul(-1, var(r1, c2), var(r2, c1))))
                seen.setdefault(term_rows(minor), minor)
    return [seen[key] for key in sorted(seen)]


def exact_flattening(rows):
    ent = tuple(tuple(GaussRat(x) if not isinstance(x, GaussRat) else x for x in r) for r in rows)
    return Flattening(len(rows), len(rows[0]), ent)


def float_flattening(mat):
    mat = np.asarray(mat, dtype=np.complex128)
    return Flattening(mat.shape[0], mat.shape[1], mat)


# ------------------------------------------------------------------ the ideal

def test_two_qubit_ideal_is_the_quadric():
    ideal = segre_generators([2, 2])
    assert len(ideal) == 1
    assert str(ideal.gens[0]) == "a[00]*a[11] - a[01]*a[10]"


def test_generator_count_matches_oracle():
    for dims in ([2, 2], [2, 3], [2, 2, 2], [3, 2], [2, 2, 3], [2, 2, 2, 2]):
        ideal = segre_generators(dims)
        assert len(ideal) == expected_generator_count(dims), dims


dims_up_to_128_amps = st.lists(st.integers(2, 6), min_size=2, max_size=4).filter(
    lambda d: math.prod(d) <= 128)


@settings(max_examples=10, deadline=None)
@given(dims_up_to_128_amps)
def test_generators_match_minor_product_oracle(dims):
    gens = segre_generators(dims).gens
    want = minor_product_oracle(dims)
    assert [poly_rows(g) for g in gens] == [term_rows(p) for p in want]
    assert [format_poly(g) for g in gens] == [render(p) for p in want]


def test_generators_sorted_beyond_one_byte_offsets():
    # 258 amplitudes: offsets above 255 must still sort as numbers
    gens = segre_generators([2, 129]).gens
    keys = [tuple(mono.key() for mono in g.terms) for g in gens]
    assert keys == sorted(set(keys))
    assert len(keys) == math.comb(129, 2)


def test_generators_are_quadrics_with_balanced_monomials():
    # Each generator must be a_u*a_v - a_w*a_x with {u_j, v_j} == {w_j, x_j}
    # per mode; that structure forces vanishing under any product assignment.
    for dims in ([2, 2], [2, 2, 2], [2, 3, 2]):
        for gen in segre_generators(dims).gens:
            assert is_homogeneous(gen) == 2
            terms = list(gen.terms.items())
            assert len(terms) == 2
            (m1, c1), (m2, c2) = terms
            assert {c1, c2} == {GaussRat(1), GaussRat(-1)}
            v1 = [v.index for v, e in m1.factors for _ in range(e)]
            v2 = [v.index for v, e in m2.factors for _ in range(e)]
            assert len(v1) == len(v2) == 2
            for j in range(len(dims)):
                assert sorted(u[j] for u in v1) == sorted(u[j] for u in v2)


def test_generators_vanish_on_example_product():
    ideal = segre_generators([2, 2, 2])
    s = segre_map([
        make_local([GaussRat(1), GaussRat(2)]),
        make_local([GaussRat(3), GaussRat(1)]),
        make_local([GaussRat(1), GaussRat(1)]),
    ])
    assignment = state_assignment(s)
    for gen in ideal.gens:
        assert evaluate(gen, assignment) == GaussRat(0)


def test_generators_nonzero_on_entangled(bell_exact, ghz3_exact, w3_exact):
    for s in (bell_exact, ghz3_exact, w3_exact):
        ideal = segre_generators(list(s.dims))
        values = [evaluate(g, state_assignment(s)) for g in ideal.gens]
        assert any(bool(v) for v in values)


def test_generators_reject_single_mode_and_caps(monkeypatch):
    with pytest.raises(WrongShape):
        segre_generators([2])
    with pytest.raises(TooLarge):
        segre_generators([2] * 13)
    for dims, count in (((2,) * 10, 7_296_256), ((4,) * 6, 56_042_496), ((2,) * 12, 267_904_000)):
        start = time.perf_counter()
        with pytest.raises(TooLarge, match=f"generators .* = {count} exceeds cap 4194304"):
            segre_generators(dims)
        assert time.perf_counter() - start < 1.0
    # the 2x2x2 ideal has 12 generators, and its build lays out 12 rows
    monkeypatch.setattr(segre, "MAX_TERMS", 11)
    with pytest.raises(TooLarge):
        segre_generators([2] * 3)
    monkeypatch.setattr(segre, "MAX_TERMS", 12)
    assert len(segre_generators([2] * 3)) == 12


@pytest.mark.parametrize("huge", [
    lambda: segre_generators([10**5000, 1]),
    lambda: segre_generators([2] * 15000 + [1]),
    lambda: segre_generators([-10**5000, 2]),
], ids=["5001-digit dim", "15001 dims", "negative 5001-digit dim"])
def test_generators_shape_message_is_short(huge):
    # str() refuses ints of over 4300 digits, and a dims list may be any length
    with pytest.raises(DimensionMismatch) as exc:
        huge()
    assert len(str(exc.value)) < 200


def minor_keys_oracle(dims):
    """Every 2x2 minor of every canonical flattening as a row (p, q, r, s),
    then the distinct rows, sorted: the build that ``_minor_keys`` replaces."""
    offsets = np.arange(math.prod(dims), dtype=np.int64).reshape(dims)
    keys = []
    for b in canonical_bipartitions(len(dims)):
        mat = flat_matrix(offsets, b)
        r1, r2 = (r[:, None] for r in np.triu_indices(mat.shape[0], 1))
        c1, c2 = np.triu_indices(mat.shape[1], 1)
        p, q, c, d = np.broadcast_arrays(mat[r1, c1], mat[r2, c2], mat[r1, c2], mat[r2, c1])
        keys.append(np.stack([p, q, np.minimum(c, d), np.maximum(c, d)], axis=-1).reshape(-1, 4))
    return unique_rows(np.concatenate(keys))[0]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(2, 5), min_size=2, max_size=6).filter(lambda d: math.prod(d) <= 700))
def test_minor_keys_match_the_dedup_oracle(dims):
    keys = segre._minor_keys(tuple(dims))
    assert np.array_equal(keys, minor_keys_oracle(dims))
    assert segre._minor_key_count(tuple(dims)) == len(keys)


def test_minor_keys_pinned_at_eight_qubits():
    keys = segre._minor_keys((2,) * 8)
    assert len(keys) == segre._minor_key_count((2,) * 8) == 193_600
    assert hashlib.sha256(keys.tobytes()).hexdigest() == (
        "c7cd549c930258bf0ff745add5dbe4feaec5b3bdce6ef66652e46503303a5e71")


def test_minor_keys_are_built_once_and_immutable(monkeypatch):
    segre._minor_keys.cache_clear()
    dims = (2, 3, 2)
    first = segre._minor_keys(dims)
    ideals = [segre_generators(dims) for _ in range(3)]
    assert segre._minor_keys.cache_info().misses == 1
    assert segre._minor_keys(dims) is first and not first.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        first[0, 0] = 1
    assert ideals[0] == ideals[2] and len(ideals[0]) == len(first)
    # the cap still applies to a dims whose keys are already cached
    count = segre._minor_key_count(dims)
    monkeypatch.setattr(segre, "MAX_TERMS", count - 1)
    with pytest.raises(TooLarge, match=f"\\(2, 3, 2\\) = {count} exceeds cap {count - 1}"):
        segre_generators(dims)
    monkeypatch.setattr(segre, "MAX_TERMS", count)
    assert len(segre_generators(dims)) == count
    assert segre._minor_keys.cache_info().misses == 1


@pytest.mark.parametrize("dims", [(2, 2), (2, 3, 4), (3, 5, 2, 7), (2,) * 6])
def test_minor_key_count_is_the_raw_key_count(dims):
    # the closed form against the sum over the sets D of differing modes, and
    # against the rows the build lays out: it drops none after building them
    p = math.prod(dims)
    by_modes = sum((2 ** (len(D) - 1) - 1) * p * math.prod(dims[j] - 1 for j in D)
                   for r in range(2, len(dims) + 1) for D in itertools.combinations(range(len(dims)), r))
    assert segre._minor_key_count(dims) == by_modes // 4 == len(segre._minor_keys(dims))


# ------------------------------------------------------------------ minor_sum

def test_minor_sum_bell_flattening():
    f = float_flattening([[SQ2, 0], [0, SQ2]])
    assert minor_sum(f) == pytest.approx(0.25, abs=1e-15)
    fe = exact_flattening([[1, 0], [0, 1]])
    assert minor_sum(fe) == Fraction(1)  # unnormalized: single minor 1, squared


def test_minor_sum_rank_one_is_zero():
    u = np.array([1.0, 2.0, -1.0])
    v = np.array([0.5, 1.5])
    f = float_flattening(np.outer(u, v))
    assert minor_sum_direct(f) == 0.0
    assert minor_sum(f) <= 1e-14
    fe = exact_flattening([[1, 2], [2, 4]])
    assert minor_sum(fe) == Fraction(0)


def test_minor_sum_ghz_first_mode(ghz3):
    f = flatten(ghz3, make_bipartition([1], 3))
    assert minor_sum(f) == pytest.approx(0.25, abs=1e-15)


def test_minor_sum_gram_matches_enumeration_float():
    rng = default_rng(21)
    for _ in range(60):
        r = int(rng.integers(2, 8))
        c = int(rng.integers(2, 8))
        mat = rng.normal(size=(r, c)) + 1j * rng.normal(size=(r, c))
        f = float_flattening(mat)
        a, b = minor_sum(f), minor_sum_direct(f)
        assert abs(a - b) <= 1e-9 * max(abs(a), abs(b), 1e-300)


def test_minor_sum_gram_matches_enumeration_exact():
    rng = default_rng(22)
    from qsegre.sampling import random_gaussrat

    for r, c in [(4, 4), (2, 5), (5, 2), (3, 7)]:
        for _ in range(10):
            rows = [[random_gaussrat(rng, span=5) for _ in range(c)] for _ in range(r)]
            f = Flattening(r, c, tuple(tuple(row) for row in rows))
            assert minor_sum(f) == minor_sum_direct(f)


KERNEL_SHAPES = [(1, 4), (2, 5), (5, 2), (3, 7), (8, 2), (4, 4)]
BIG = 10**400


def kernel_entry(rng, kind):
    """One Gaussian rational of the given kind for the integer-kernel tests."""
    def part():
        if kind == "int":
            return Fraction(int(rng.integers(-9, 10)))
        if kind == "big_num":
            return Fraction(int(rng.integers(-9, 10)) * BIG + int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
        if kind == "big_den":
            return Fraction(int(rng.integers(-9, 10)), BIG + int(rng.integers(0, 3)))
        return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))

    if kind == "zeros" and rng.random() < 0.6:
        return GaussRat(0)
    re, im = part(), part()
    if kind == "real":
        im = 0
    if kind == "imag":
        re = 0
    return GaussRat(re, im)


@pytest.mark.parametrize("kind", ["int", "real", "imag", "zeros", "big_num", "big_den", "mixed"])
@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_minor_sum_integer_kernel_matches_enumeration(shape, kind):
    rng = default_rng(sum(shape) * 7 + len(kind))
    r, c = shape
    for _ in range(3):
        f = Flattening(r, c, tuple(tuple(kernel_entry(rng, kind) for _ in range(c)) for _ in range(r)))
        got = minor_sum(f)
        assert type(got) is Fraction
        assert got == minor_sum_direct(f)
        assert abs_sq_sum(f.entries) == sum((x.abs_sq() for x in f.entries.flat), Fraction(0))


def test_gauss_ints_clears_denominators_once():
    rng = default_rng(5)
    for kind in ("int", "big_num", "big_den", "mixed", "zeros"):
        arr = np.array([[kernel_entry(rng, kind) for _ in range(3)] for _ in range(2)], dtype=object)
        re, im, den = gauss_ints(arr)
        assert re.shape == im.shape == arr.shape
        assert all(type(v) is int for v in (*re.flat, *im.flat, den))
        assert den == math.lcm(*(d for x in arr.flat for d in (x.re.denominator, x.im.denominator)))
        assert all(GaussRat(Fraction(a, den), Fraction(b, den)) == x for a, b, x in zip(re.flat, im.flat, arr.flat))
    _, _, den = gauss_ints(np.array([GaussRat(3, -4), GaussRat(0)], dtype=object))
    assert den == 1
    # a float array is its own real and imaginary parts over 1
    arr = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    re, im, den = gauss_ints(arr)
    assert den == 1 and np.array_equal(re, arr.real) and np.array_equal(im, arr.imag)


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_exact_split_terms_equal_direct_minor_sums(m):
    rng = default_rng(60 + m)
    states = [
        random_exact_product_state(rng, [2] * m),
        make_state([2] * m, [kernel_entry(rng, "mixed") for _ in range(2**m)]),
    ]
    for s in states:
        report_terms = generalized_concurrence(s).per_bipartition
        parts = canonical_bipartitions(m)
        n4 = s.norm_sq() ** 2
        for b, term in zip(parts, split_terms(s, parts)):
            expected = minor_sum_direct(flatten(s, b)) / n4
            assert type(term) is Fraction
            assert term == expected
            assert report_terms[b] == float(expected)


def test_minor_sum_near_rank_one_float():
    # the Gram identity cancels here (relative error up to ~1e3); the
    # rank-1 deflation agrees with the enumeration to its own rounding
    rng = default_rng(3)
    for _ in range(20):
        u, v, noise = (rng.normal(size=n) + 1j * rng.normal(size=n) for n in (4, 4, (4, 4)))
        f = float_flattening(np.outer(u, v) + 1e-9 * noise)
        a, b = minor_sum(f), minor_sum_direct(f)
        assert abs(a - b) <= 1e-5 * b


U = 2.0 ** -53  # unit roundoff of a float


def exact_copy(hat):
    """The exact state whose amplitudes are the float state's own entries, bit for bit."""
    return make_state(list(hat.dims), [GaussRat(Fraction(x.real), Fraction(x.imag)) for x in hat.array.flat])


def singular_value_pair_sum(mat):
    """sum_{i<j} s_i^2 s_j^2 of a float matrix, from its singular values: a sum of nonnegative terms."""
    s2 = np.linalg.svd(mat, compute_uv=False) ** 2
    return float(np.sum(s2[1:] * np.cumsum(s2)[:-1]))


@pytest.mark.parametrize("m", range(2, 11))
def test_float_split_terms_match_singular_values_across_cutoff(m):
    # Haar terms take the Gram identity, product terms the rank-1 deflation,
    # and the perturbed products put terms on both sides of GRAM_CUTOFF.  Each
    # term is compared with an independent reference: within relative 1e-12
    # above the cutoff, and within c (u sqrt(ref) + u^2) ||M||_F^4 at or below
    # it.  The reference is the exact minor sum of the same float entries, with
    # c = 16 (the deflation's worst ratio here is 0.97, the singular-value pair
    # sum's 10.3).  Exact sums of the larger flattenings take seconds each from
    # 9 qubits, so there the splits of more than two modes a side, past the
    # first of each shape, take the singular-value pair sum of the same float
    # matrix instead, with c = 32: both forms are within 16 of the exact value.
    rng = default_rng(70 + m)
    dims = [2] * m
    prod = random_product_state(rng, dims).to_numpy()
    prod /= np.linalg.norm(prod)
    states = [random_haar_state(rng, dims), make_state(dims, prod)]
    for eps in (1e-1, 1e-2, 3e-3, 1e-3, 1e-4, 1e-6, 1e-9):
        noise = rng.normal(size=2**m) + 1j * rng.normal(size=2**m)
        states.append(make_state(dims, prod + eps * noise / np.linalg.norm(noise)))
    parts = canonical_bipartitions(m)
    above = set()
    for s in states:
        hat = normalize(s)
        exact = exact_copy(hat)
        n4 = exact.norm_sq() ** 2
        shapes = set()
        for b, term in zip(parts, split_terms(s, parts)):
            f = flatten(hat, b)
            assert minor_sum(f) == term
            above.add(term > GRAM_CUTOFF)
            side = min(len(b.left), m - len(b.left))
            if m >= 9 and side > 2 and side in shapes:
                ref, c = Fraction(singular_value_pair_sum(f.entries)), 32
            else:
                ref, c = minor_sum(flatten(exact, b)), 16
            shapes.add(side)
            err = abs(Fraction(term) - ref)
            if ref > GRAM_CUTOFF * n4:
                assert err <= Fraction(1e-12) * ref
            else:
                assert err <= c * (U * math.sqrt(ref) + U * U) * n4
    assert above == {True, False}


@pytest.mark.parametrize("dims", [(2, 3, 4), (3, 3, 2), (2, 2, 5), (2,) * 11, (2,) * 12])
def test_stacked_float_terms_equal_one_matrix_kernel(dims):
    # the stacked kernel gives each split the term minor_sum gives its
    # flattening alone, bit for bit; at 11 and 12 qubits a shape group spans
    # several chunks, and the perturbed product puts terms on both sides of
    # GRAM_CUTOFF
    rng = default_rng(sum(dims))
    prod = random_product_state(rng, dims).to_numpy()
    noise = rng.normal(size=prod.size) + 1j * rng.normal(size=prod.size)
    states = [random_haar_state(rng, dims), make_state(dims, prod),
              make_state(dims, prod + 1e-3 * noise / np.linalg.norm(noise))]
    parts = canonical_bipartitions(len(dims))
    if len(dims) >= 11:
        rows = [math.prod(dims[j - 1] for j in b.left) for b in parts]
        assert max(map(rows.count, rows)) > segre.CHUNK_AMPS // math.prod(dims)
    above = set()
    for s in states:
        hat = normalize(s)
        terms = list(split_terms(s, parts))
        report = generalized_concurrence(s).per_bipartition
        assert list(report) == parts
        for b, term in zip(parts, terms):
            assert minor_sum(flatten(hat, b)) == term == report[b]
            above.add(term > GRAM_CUTOFF)
    assert above == {True, False}


def test_float_product_takes_one_kernel_call_per_chunk(monkeypatch):
    # every split of a float product state is deflated, once per chunk of
    # splits with the same small side rather than once per split, and no SVD
    # is taken
    m = 10
    stacks, deflated = [], []
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: pytest.fail("np.linalg.svd called"))
    kernel, deflate = segre._stacked_minor_sums, segre._deflated_minor_sums
    monkeypatch.setattr(segre, "_stacked_minor_sums", lambda mats: stacks.append(len(mats)) or kernel(mats))
    monkeypatch.setattr(segre, "_deflated_minor_sums", lambda mats, *rest: deflated.append(len(mats)) or deflate(mats, *rest))
    s = random_product_state(default_rng(12), [2] * m)
    report = generalized_concurrence(s)
    per = segre.CHUNK_AMPS // 2 ** m
    sides = [min(len(b.left), m - len(b.left)) for b in canonical_bipartitions(m)]
    chunks = sum(-(-sides.count(r) // per) for r in set(sides))
    assert len(report.per_bipartition) == sum(stacks) == sum(deflated) == 2 ** (m - 1) - 1
    assert len(stacks) == len(deflated) == chunks < 2 ** (m - 1) - 1
    assert max(report.per_bipartition.values()) < 1e-28


def test_float_minor_sum_at_any_scale():
    # the entries are brought into range by a power of two first: any finite
    # matrix gives its sum scaled by 2^(4e), bit for bit, a zero one 0, and a
    # sum beyond the float range NonFinite, where the unscaled kernel gave nan
    rng = default_rng(21)
    near = np.outer(rng.normal(size=3), rng.normal(size=5)) + 1e-6j * rng.normal(size=(3, 5))
    for mat in (rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5)), near, near.T):
        base = minor_sum(float_flattening(mat))
        for e in (-200, -40, 40, 200):
            assert minor_sum(float_flattening(np.ldexp(mat.real, e) + 1j * np.ldexp(mat.imag, e))) == math.ldexp(base, 4 * e)
    assert minor_sum(float_flattening(np.zeros((2, 3), dtype=complex))) == 0.0
    with pytest.raises(NonFinite, match="minor sum is beyond the float range"):
        minor_sum(float_flattening(np.array([[1e150, 1e150, 0], [1e150, 1e150j, 0]])))


def test_float_deflation_terms_are_not_negative():
    # a rank-1 matrix with a zero row: the deflation's two parts cancel to
    # rounding there, and its Lagrange part came out at -3.4e-48, so the
    # concurrence's square root raised a math domain error
    for amps in ([0, 0, complex(-258 / 7, 114 / 5), complex(-129 / 7, 57 / 5)],
                 [0, 0, complex(-1763 / 30, 369 / 10), complex(-409 / 12, 17 / 12)]):
        s = make_state([2, 2], amps)
        (term,) = generalized_concurrence(s).per_bipartition.values()
        assert 0 <= term < 1e-30
        assert all(0 <= t < 1e-30 for t in split_terms(s, [Bipartition((1,)), Bipartition((2,))]))


def test_fully_separable_haar_stops_after_first_split(monkeypatch):
    stacks = []
    kernel = segre._stacked_minor_sums
    monkeypatch.setattr(segre, "_stacked_minor_sums", lambda mats: stacks.append(len(mats)) or kernel(mats))
    rng = default_rng(13)
    for m in range(2, 11):
        stacks.clear()
        assert not is_fully_separable(random_haar_state(rng, [2] * m))
        assert stacks == [1]
        stacks.clear()
        # a product state takes every one-mode split and no other
        assert is_fully_separable(random_product_state(rng, [2] * m))
        assert stacks[0] == 1 and sum(stacks) == (1 if m == 2 else m)


def test_exact_local_factors_clears_denominators_once(monkeypatch):
    calls = []
    parts = segre.gauss_ints
    monkeypatch.setattr(segre, "gauss_ints", lambda arr: calls.append(1) or parts(arr))
    s = random_exact_product_state(default_rng(14), [2, 3, 2])
    rebuilt = segre_map(local_factors(s, 0)).array
    assert len(calls) == 1
    # the factors rebuild the state up to a scalar
    assert all(x * rebuilt.flat[0] == y * s.array.flat[0] for x, y in zip(s.array.flat, rebuilt.flat))


def test_state_assignment_follows_row_major_order():
    rng = default_rng(75)
    for s in (random_haar_state(rng, [2, 3, 2]), random_exact_product_state(rng, [3, 2])):
        got = state_assignment(s)
        assert list(got) == [StateVar(i) for i in itertools.product(*(range(d) for d in s.dims))]
        assert all(v == s.amplitude(var.index) for var, v in got.items())


# ------------------------------------------------------------------- measures

def test_generalized_concurrence_two_qubit_formula():
    rng = default_rng(31)
    for _ in range(50):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        s = make_state([2, 2], list(map(complex, v)))
        hat = v / np.linalg.norm(v)
        expected = 2.0 * abs(hat[0] * hat[3] - hat[1] * hat[2])
        assert generalized_concurrence(s).value == pytest.approx(expected, abs=1e-12)


def test_generalized_concurrence_product_images():
    rng = default_rng(32)
    for m in (2, 3, 4):
        for _ in range(20):
            s = random_product_state(rng, [2] * m)
            assert generalized_concurrence(s).value <= 1e-12


def test_golden_values(ghz3, w3, ghz3_exact, w3_exact):
    assert generalized_concurrence(ghz3).value == pytest.approx(1.0, abs=1e-12)
    assert generalized_concurrence(w3).value == pytest.approx(2 * math.sqrt(2) / 3, abs=1e-12)
    assert generalized_concurrence(ghz3_exact).value == pytest.approx(1.0, abs=1e-12)
    assert generalized_concurrence(w3_exact).value == pytest.approx(2 * math.sqrt(2) / 3, abs=1e-12)


def test_golden_per_bipartition_terms(ghz3_exact, w3_exact):
    ghz_terms = generalized_concurrence(ghz3_exact).per_bipartition
    assert sorted(b.left for b in ghz_terms) == [(1,), (1, 2), (1, 3)]
    assert all(t == pytest.approx(0.25, abs=1e-15) for t in ghz_terms.values())
    w_terms = generalized_concurrence(w3_exact).per_bipartition
    assert all(t == pytest.approx(2 / 9, abs=1e-15) for t in w_terms.values())


def test_concurrence2_examples(bell, bell_exact):
    assert concurrence2(bell) == pytest.approx(1.0, abs=1e-12)
    assert concurrence2(bell_exact) == 1.0
    assert concurrence2(make_state([2, 2], [0, 1, 0, 0])) == 0.0
    plus = make_state([2, 2], [0.5, 0.5, 0.5, 0.5])
    assert concurrence2(plus) <= 1e-12
    with pytest.raises(WrongShape):
        concurrence2(make_state([2, 2, 2], [1] + [0] * 7))


def test_concurrence2_equals_generalized_bitwise():
    rng = default_rng(33)
    for _ in range(25):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        s = make_state([2, 2], list(map(complex, v)))
        assert concurrence2(s) == generalized_concurrence(s).value


def test_measure_needs_two_modes():
    with pytest.raises(WrongShape):
        generalized_concurrence(make_state([3], [1, 0, 0]))


# --------------------------------------------------------------- separability

def test_bipartite_separable_examples(bell, ghz3):
    assert not is_bipartite_separable(bell, make_bipartition([1], 2), 1e-10)
    rng = default_rng(41)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    s = segre_map([make_local([1.0, 0.0]), make_local(list(map(complex, psi)))])
    assert is_bipartite_separable(s, make_bipartition([1], 2), 1e-10)
    assert not is_bipartite_separable(ghz3, make_bipartition([1, 2], 3), 1e-10)


def test_bipartite_separable_exact_is_exact(ghz3_exact):
    assert not is_bipartite_separable(ghz3_exact, make_bipartition([1], 3), 0)
    prod = random_exact_product_state(default_rng(42), [2, 2, 2])
    for b in canonical_bipartitions(3):
        assert is_bipartite_separable(prod, b, 0)


def test_fully_separable(w3):
    rng = default_rng(43)
    for m in (2, 3, 4):
        s = random_product_state(rng, [2] * m)
        assert is_fully_separable(s, 1e-10)
    assert not is_fully_separable(w3, 1e-10)


def test_single_mode_is_fully_separable():
    assert is_fully_separable(make_state([3], [1.0, 2j, 0]), 1e-10)
    assert is_fully_separable(make_state([2], [1, Fraction(1, 2)]), 0)


def test_partial_product_not_fully_separable(bell):
    amps = np.kron(bell.to_numpy(), [1.0, 0.0])
    s = make_state([2, 2, 2], list(map(complex, amps)))
    assert not is_fully_separable(s, 1e-10)
    assert not is_bipartite_separable(s, make_bipartition([1], 3), 1e-10)
    # but the split isolating the appended |0> is separable
    assert is_bipartite_separable(s, make_bipartition([1, 2], 3), 1e-10)


def test_separability_agrees_with_local_factors():
    rng = default_rng(44)
    for _ in range(20):
        prod = random_product_state(rng, [2, 2, 2])
        haar = random_haar_state(rng, [2, 2, 2])
        assert is_fully_separable(prod, 1e-10)
        local_factors(prod, 1e-10)  # must not raise
        assert not is_fully_separable(haar, 1e-10)
        with pytest.raises(NotProduct):
            local_factors(haar, 1e-10)


def near_threshold_products(rng, tol, per_m):
    """Product states moved by eps ~ tol * 10^U(-1, 1) in norm, float and exact."""
    for m in range(2, 7):
        for exact in (False, True):
            for _ in range(per_m // 3 if exact else per_m):
                p = random_exact_product_state(rng, [2] * m) if exact else random_product_state(rng, [2] * m)
                d = rng.normal(size=2 ** m) + 1j * rng.normal(size=2 ** m)
                eps = tol * 10 ** rng.uniform(-1, 1) * math.sqrt(float(p.norm_sq()))
                delta = eps * d / np.linalg.norm(d)
                if exact:
                    delta = [GaussRat(Fraction(x.real), Fraction(x.imag)) for x in delta]
                yield make_state([2] * m, [a + x for a, x in zip(p.amps, delta)])


def test_fully_separable_equals_full_reduction_near_threshold():
    tol = 1e-10
    fallbacks = {False: 0, True: 0}
    for s in near_threshold_products(default_rng(3), tol, per_m=36):
        m = s.num_modes
        full = all(t <= tol * tol for t in split_terms(s, canonical_bipartitions(m)))
        assert is_fully_separable(s, tol) == full
        try:
            local_factors(s, tol)
            assert full
        except NotProduct:
            assert not full
        singles = list(split_terms(s, [Bipartition((k,)) for k in range(1, m + 1)]))
        fallbacks[s.exact] += max(singles) <= tol * tol < sum(sorted(singles)[m - m // 2:])
    # the one-mode terms left the verdict open, so the full reduction decided
    assert fallbacks[False] >= 1 and fallbacks[True] >= 1, fallbacks


# ----------------------------------------------------------------- invariance

def test_local_unitary_invariance():
    rng = default_rng(51)
    for m in (3, 4):
        for _ in range(10):
            s = random_haar_state(rng, [2] * m)
            base = generalized_concurrence(s).value
            mats = [random_unitary(rng, 2) for _ in range(m)]
            rotated = apply_local_unitaries(s, mats)
            assert generalized_concurrence(rotated).value == pytest.approx(base, abs=1e-9)


def test_scale_invariance():
    rng = default_rng(52)
    s = random_haar_state(rng, [2, 2, 2])
    base = generalized_concurrence(s).value
    for lam in (2.0, -0.25, 1j, 3 - 4j, 1e-3 + 2e4j):
        scaled = make_state([2, 2, 2], [lam * a for a in s.amps])
        assert generalized_concurrence(scaled).value == pytest.approx(base, abs=1e-12)


def test_mode_permutation_invariance():
    rng = default_rng(53)
    s = random_haar_state(rng, [2, 2, 2, 2])
    r = generalized_concurrence(s)
    for perm in itertools.permutations(range(1, 5)):
        rp = generalized_concurrence(permute_modes(s, perm))
        assert rp.value == pytest.approx(r.value, abs=1e-9)
        # per-bipartition terms permute along: old modes b.left map to the
        # positions where perm placed them, then canonicalize
        for b, term in r.per_bipartition.items():
            moved = sorted(perm.index(j) + 1 for j in b.left)
            bp = Bipartition(tuple(moved)).canonicalize(4)
            assert rp.per_bipartition[bp] == pytest.approx(term, abs=1e-9)


def test_zero_iff_separable():
    rng = default_rng(54)
    for _ in range(20):
        prod = random_product_state(rng, [2, 2, 2])
        haar = random_haar_state(rng, [2, 2, 2])
        assert generalized_concurrence(prod).value < 1e-10
        assert is_fully_separable(prod, 1e-10)
        assert generalized_concurrence(haar).value > 1e-3
        assert not is_fully_separable(haar, 1e-10)


# -------------------------------------------------------------------- reports

def test_measure_report_json(ghz3_exact):
    obj = measure_report_to_json(generalized_concurrence(ghz3_exact))
    assert set(obj) == {"value", "per_bipartition"}
    lefts = [e["left"] for e in obj["per_bipartition"]]
    assert lefts == sorted(lefts)
    assert lefts == [[1], [1, 2], [1, 3]]
    assert all(e["term"] >= 0 for e in obj["per_bipartition"])
    mean = sum(e["term"] for e in obj["per_bipartition"]) / len(lefts)
    assert obj["value"] == pytest.approx(2 * math.sqrt(mean), abs=1e-12)


def test_terms_match_subsystem_purity():
    # independent oracle: for a unit state the minor sum at a split equals
    # (1 - Tr(rho_A^2)) / 2 with rho_A the reduced density matrix
    rng = default_rng(56)
    for m in (2, 3, 4):
        s = random_haar_state(rng, [2] * m)
        report = generalized_concurrence(s)
        for b, term in report.per_bipartition.items():
            mat = np.asarray(flatten(normalize(s), b).entries)
            rho = mat @ mat.conj().T
            purity = float(np.trace(rho @ rho).real)
            assert term == pytest.approx((1.0 - purity) / 2.0, abs=1e-12)


def test_deterministic_bitwise_reproducibility():
    rng = default_rng(55)
    s = random_haar_state(rng, [2, 2, 2, 2])
    a = generalized_concurrence(s)
    b = generalized_concurrence(s)
    assert a.value == b.value
    assert a.per_bipartition == b.per_bipartition


# ------------------------------------------------- tolerance and scale rules

def test_separability_rejects_bad_tol(bell, bell_exact):
    b = Bipartition((1,))
    for s in (bell, bell_exact):
        for tol in (-1.0, float("nan"), float("inf"), "x", None, True):
            with pytest.raises(MalformedInput, match="tol"):
                is_fully_separable(s, tol)
            with pytest.raises(MalformedInput, match="tol"):
                is_bipartite_separable(s, b, tol)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_measures_at_extreme_scales(scale):
    s = make_state([2, 2], [scale, 0, 0, scale])
    assert generalized_concurrence(s).value == pytest.approx(1.0, abs=1e-12)
    assert not is_fully_separable(s)


def test_object_array_flattening_is_exact():
    u = np.array([GaussRat(1, 2), GaussRat(Fraction(1, 3)), GaussRat(0, -1)], dtype=object)
    v = np.array([GaussRat(2), GaussRat(Fraction(-1, 2), 1)], dtype=object)
    rank1 = Flattening(3, 2, np.multiply.outer(u, v))
    assert rank1.exact
    assert minor_sum(rank1) == minor_sum_direct(rank1) == 0
    full = Flattening(2, 2, np.array([[GaussRat(1), GaussRat(0, 1)], [GaussRat(2), GaussRat(3)]], dtype=object))
    assert full.exact
    got = minor_sum(full)
    assert isinstance(got, Fraction)
    assert got == minor_sum_direct(full) == 13
