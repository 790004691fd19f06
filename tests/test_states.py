import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes

from qsegre import (
    Bipartition,
    DimensionMismatch,
    Flattening,
    GaussRat,
    IndexOutOfRange,
    LocalState,
    MalformedInput,
    NonFinite,
    NotProduct,
    PureState,
    QsegreError,
    ShapeError,
    TooLarge,
    ZeroVector,
    apply_local_unitary,
    canonical_bipartitions,
    flatten,
    is_bipartite_separable,
    is_fully_separable,
    local_factors,
    make_bipartition,
    make_local,
    make_state,
    normalize,
    permute_modes,
    segre_generators,
    segre_map,
    state_from_json,
    state_to_json,
)
from qsegre import segre
from qsegre.sampling import default_rng, random_exact_local, random_local_state

SQ2 = 1.0 / math.sqrt(2.0)


def flatten_oracle(s, left):
    """Independent flattening by explicit multi-index bookkeeping."""
    right = [j for j in range(1, s.num_modes + 1) if j not in left]
    rows = list(itertools.product(*(range(s.dims[j - 1]) for j in left)))
    cols = list(itertools.product(*(range(s.dims[j - 1]) for j in right)))
    out = []
    for r in rows:
        line = []
        for c in cols:
            full = [0] * s.num_modes
            for j, i in zip(left, r):
                full[j - 1] = i
            for j, i in zip(right, c):
                full[j - 1] = i
            line.append(s.amplitude(full))
        out.append(line)
    return out


# ---------------------------------------------------------------- make_state

def test_make_state_basis_vector():
    s = make_state([2, 2], [1, 0, 0, 0])
    assert s.dims == (2, 2)
    assert s.amplitude([0, 0]) == GaussRat(1)


def test_make_state_wrong_length():
    with pytest.raises(DimensionMismatch):
        make_state([2, 2], [1, 0, 0])
    # an array counts all its entries
    with pytest.raises(DimensionMismatch, match="amps has length 6, expected 4"):
        make_state([2, 2], np.ones((2, 3)))
    s = make_state([2, 2], np.array([[1, 0], [0, 1]]))
    assert s.dims == (2, 2) and s.amps == (1, 0, 0, 1) and not s.exact
    # a count of thousands of digits is not printed
    with pytest.raises(DimensionMismatch, match="amps has length 2, expected over 2\\*\\*64"):
        make_state([2] * 15000, [1, 0])


def test_flattening_rejects_ragged_rows():
    # one matrix rule, shared with pluecker_coordinates, then the declared shape
    with pytest.raises(ShapeError, match="entries has ragged rows"):
        Flattening(2, 2, [[1, 2], [3]])
    with pytest.raises(ShapeError, match="ragged"):
        Flattening(2, 2, [[1, 2, 3], [4]])
    with pytest.raises(ShapeError, match="sequence of rows"):
        Flattening(2, 2, [1, 2, 3, 4])
    with pytest.raises(ShapeError, match=r"shape \(4,\)"):
        Flattening(2, 2, np.ones(4))
    for rows, cols, entries in ((2, 2, np.ones((4, 1))), (2.0, 2, [[1, 2], [3, 4]]), (-2, 2, [[1, 2], [3, 4]])):
        with pytest.raises(ShapeError, match=r"expected \("):
            Flattening(rows, cols, entries)
    assert Flattening(2, 2, np.ones((2, 2))).entries.shape == (2, 2)


def test_offset_and_amplitude_check_the_multi_index():
    s = make_state([2, 3], [1, 2, 3, 4, 5, 6])
    assert s.offset((1, 2)) == 5 and s.amplitude((1, 2)) == 6
    for index in ((-1, 0), (1,), (2, 0), (0, 3), (0, 0, 0), (True, 0), (1.0, 0), (0, "1")):
        with pytest.raises(IndexOutOfRange, match="multi-index"):
            s.offset(index)
        with pytest.raises(IndexOutOfRange, match="multi-index"):
            s.amplitude(index)


def test_make_state_row_major_offset():
    ghz = make_state([2, 2, 2], [SQ2, 0, 0, 0, 0, 0, 0, SQ2])
    assert ghz.offset([1, 1, 1]) == 7
    assert ghz.amplitude([1, 1, 1]) == pytest.approx(SQ2)


def test_make_state_rejects_zero_and_nonfinite():
    with pytest.raises(ZeroVector):
        make_state([2, 2], [0, 0, 0, 0])
    with pytest.raises(NonFinite):
        make_state([2], [float("nan"), 1.0])
    with pytest.raises(NonFinite):
        make_state([2], [complex(0, float("inf")), 1.0])
    with pytest.raises(DimensionMismatch):
        make_state([2, 1], [1, 0])
    with pytest.raises(DimensionMismatch):
        make_state([], [])
    # the constructor checks any array, whichever builder made it
    with pytest.raises(ZeroVector):
        PureState(np.zeros((2, 2), dtype=np.complex128))
    with pytest.raises(NonFinite, match=r"amps\[1\] is not finite"):
        LocalState(np.array([1.0, np.nan], dtype=np.complex128))


def test_exact_backend_detection():
    assert make_state([2], [1, Fraction(1, 2)]).exact
    assert make_state([2], [GaussRat(0, 1), 0]).exact
    assert not make_state([2], [1.0, 0]).exact
    assert not make_state([2], [1j, Fraction(1, 2)]).exact


# ----------------------------------------------------------------- normalize

def test_normalize_scaling_exact():
    s = normalize(make_state([2, 2], [2, 0, 0, 0]))
    assert s.exact
    assert s.amps[0] == GaussRat(1)


def test_normalize_bell():
    s = normalize(make_state([2, 2], [1.0, 0, 0, 1.0]))
    assert s.amps[0] == pytest.approx(SQ2)
    assert s.amps[3] == pytest.approx(SQ2)


def test_normalize_345_stays_exact():
    s = normalize(make_state([2], [GaussRat(0, 3), 4]))
    assert s.exact
    assert s.amps[0] == GaussRat(0, Fraction(3, 5))
    assert s.amps[1] == GaussRat(Fraction(4, 5))


def test_normalize_irrational_norm_goes_float():
    s = normalize(make_state([2, 2], [1, 0, 0, 1]))
    assert not s.exact
    assert s.norm_sq() == pytest.approx(1.0)


def test_normalize_exact_beyond_float_range():
    big = normalize(make_state([2], [10**400, 1]))
    assert big.amps == (1 + 0j, 0j)
    tiny = normalize(make_state([2], [Fraction(1, 10**400), Fraction(1, 10**400)]))
    assert tiny.amps == pytest.approx((SQ2, SQ2))


def test_normalize_idempotent():
    rng = default_rng(7)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    s = make_state([2, 2, 2], list(map(complex, v)))
    once = normalize(s)
    twice = normalize(once)
    assert np.allclose(once.to_numpy(), twice.to_numpy())


def test_normalize_commutes_with_permutation():
    rng = default_rng(8)
    v = rng.normal(size=12) + 1j * rng.normal(size=12)
    s = make_state([2, 3, 2], list(map(complex, v)))
    perm = [3, 1, 2]
    a = permute_modes(normalize(s), perm)
    b = normalize(permute_modes(s, perm))
    assert np.allclose(a.to_numpy(), b.to_numpy())


# ----------------------------------------------------------------- segre_map

def test_segre_map_basis():
    s = segre_map([make_local([1, 0]), make_local([1, 0])])
    assert [complex(a) for a in s.amps] == [1, 0, 0, 0]


def test_segre_map_two_qubit_pattern():
    a0, a1 = GaussRat(2, 1), GaussRat(Fraction(1, 3))
    b0, b1 = GaussRat(0, 1), GaussRat(5)
    s = segre_map([make_local([a0, a1]), make_local([b0, b1])])
    assert s.amps == (a0 * b0, a0 * b1, a1 * b0, a1 * b1)


def test_segre_map_uniform_three_qubits():
    f = make_local([SQ2, SQ2])
    s = segre_map([f, f, f])
    expected = 2.0 ** (-1.5)
    # oracle: amplitude at each index is the direct product of factor entries
    for index in itertools.product(range(2), repeat=3):
        direct = 1.0
        for i in index:
            direct *= f.vec[i]
        assert s.amplitude(index) == pytest.approx(direct)
        assert abs(s.amplitude(index) - expected) < 1e-15


def test_segre_map_rejects_products_beyond_float_range():
    huge = make_local([1e308, 1e308])
    with pytest.raises(NonFinite):
        segre_map([huge, huge])
    with pytest.raises(NonFinite, match=r"factors\[0\]\[0\]"):
        segre_map([make_local([10**400, 1]), make_local([0.5, 1.0])])
    tiny = make_local([1e-200, 1e-200])
    with pytest.raises(ZeroVector, match="all amplitudes are zero"):
        segre_map([tiny, tiny])
    # exact factors stay exact at any size
    assert segre_map([make_local([10**400, 1]), make_local([1, 2])]).amplitude((0, 1)) == 2 * 10**400


def test_make_state_rejects_exact_entries_beyond_float_range_in_float_state():
    with pytest.raises(NonFinite, match=r"amps\[1\]"):
        make_state([2, 2], [0.5, GaussRat(10**400), 1, 0])


def test_exact_state_beyond_float_range_to_float_raises_non_finite():
    s = make_state([2, 2], [1, 1, 0, 10**400])
    with pytest.raises(NonFinite, match=r"amps\[3\]"):
        s.to_numpy()
    with pytest.raises(NonFinite, match=r"amps\[3\]"):
        apply_local_unitary(s, 1, np.eye(2))
    assert make_state([2, 2], [1, 1, 0, 10**300]).to_numpy()[3] == 1e300


def test_segre_map_needs_two_factors():
    with pytest.raises(DimensionMismatch):
        segre_map([make_local([1, 0])])


def test_segre_map_caps_the_product_of_factor_lengths():
    # 64 qubit factors would be 2^64 amplitudes; the cap refuses them before the outer product
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="^prod\\(dims\\) exceeds cap 4096$"):
        segre_map([make_local([1.0, 1.0])] * 64)
    with pytest.raises(TooLarge, match="prod\\(dims\\) = 8192 exceeds cap 4096"):
        segre_map([make_local([1, 1])] * 13)
    assert time.perf_counter() - start < 0.1
    assert segre_map([make_local([1.0, 1.0])] * 12).dims == (2,) * 12


def test_make_local_validation():
    with pytest.raises(ZeroVector):
        make_local([0, 0])
    with pytest.raises(DimensionMismatch):
        make_local([1])
    with pytest.raises(NonFinite):
        make_local([float("inf"), 0.0])
    with pytest.raises(DimensionMismatch, match="vec has length 4, expected 2"):
        make_local(np.eye(2))
    f = make_local([Fraction(1, 2), 0])
    assert f.dim == 2 and f.exact


# ------------------------------------------------------------------- flatten

def test_flatten_bell(bell):
    f = flatten(bell, make_bipartition([1], 2))
    assert f.rows == f.cols == 2
    assert f.entries[0][0] == pytest.approx(SQ2)
    assert f.entries[1][1] == pytest.approx(SQ2)
    assert abs(f.entries[0][1]) == 0 and abs(f.entries[1][0]) == 0


def test_flatten_ghz_mode2(ghz3):
    f = flatten(ghz3, make_bipartition([2], 3))
    assert (f.rows, f.cols) == (2, 4)
    assert f.entries[0][0] == pytest.approx(SQ2)
    assert f.entries[1][3] == pytest.approx(SQ2)
    zero_mask = np.ones((2, 4), dtype=bool)
    zero_mask[0, 0] = zero_mask[1, 3] = False
    assert np.all(np.abs(np.asarray(f.entries)[zero_mask]) == 0)


def test_flatten_matches_oracle_exact(ghz3_exact):
    f = flatten(ghz3_exact, make_bipartition([1, 3], 3))
    assert [list(r) for r in f.entries] == flatten_oracle(ghz3_exact, [1, 3])


def test_flatten_rejects_improper():
    s = make_state([2, 2], [1, 0, 0, 1])
    ghz = make_state([2, 2, 2], [1, 0, 0, 0, 0, 0, 0, 1])
    with pytest.raises(IndexOutOfRange):
        make_bipartition([1, 2], 2)
    with pytest.raises(IndexOutOfRange):
        flatten(s, Bipartition((1, 2)))
    with pytest.raises(IndexOutOfRange):
        flatten(s, Bipartition((0, 1)))
    with pytest.raises(IndexOutOfRange):
        make_bipartition([], 2)
    for mode in ("a", True, 1.0):
        with pytest.raises(IndexOutOfRange, match="expected an int"):
            make_bipartition([mode], 3)
        with pytest.raises(IndexOutOfRange):
            flatten(s, Bipartition((mode,)))
        with pytest.raises(IndexOutOfRange):
            is_bipartite_separable(ghz, Bipartition((mode,)))
    # a mode too large for str() is still named in the message
    with pytest.raises(IndexOutOfRange, match="2\\*\\*64"):
        make_bipartition([1, 10**5000], 3)
    for left in ((10**5000,), (2, 1), (1, 1)):
        with pytest.raises(IndexOutOfRange):
            flatten(ghz, Bipartition(left))


def test_mode_and_perm_must_be_ints():
    s = make_state([2, 2], [1.0, 0.5, 0, 1])
    for mode in (1.0, True, "1", 0, 3):
        with pytest.raises(IndexOutOfRange):
            apply_local_unitary(s, mode, np.eye(2))
    for perm in ([2.0, 1.0], [True, 2], [2, True], ["1", "2"], [1, 1]):
        with pytest.raises(IndexOutOfRange):
            permute_modes(s, perm)
    for perm in ((2, 1), np.array([2, 1])):
        assert permute_modes(s, perm).amplitude((0, 1)) == s.amplitude((1, 0))


def test_flatten_complement_transpose():
    rng = default_rng(11)
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    s = make_state([2, 2, 2, 2], list(map(complex, v)))
    b = make_bipartition([1, 3], 4)
    f = flatten(s, b)
    g = flatten(s, Bipartition(b.complement(4)))
    assert np.allclose(np.asarray(f.entries), np.asarray(g.entries).T)


def test_flatten_permutation_covariance():
    rng = default_rng(12)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    s = make_state([2, 2, 2], list(map(complex, v)))
    perm = [2, 3, 1]  # new mode k carries old mode perm[k-1]
    t = permute_modes(s, perm)
    # old modes {2,3} are the rows; in t they sit at new positions {1,2}
    f_old = flatten(s, Bipartition((2, 3)))
    f_new = flatten(t, Bipartition((1, 2)))
    assert np.allclose(np.asarray(f_old.entries), np.asarray(f_new.entries))


def test_canonical_bipartitions_count():
    for m in range(2, 7):
        parts = canonical_bipartitions(m)
        assert len(parts) == 2 ** (m - 1) - 1
        assert all(b.left[0] == 1 for b in parts)
        assert len(set(parts)) == len(parts)


def test_canonical_bipartitions_are_a_fresh_list():
    # each call builds its own list, so a caller's list cannot change the next one
    parts = canonical_bipartitions(4)
    parts.reverse()
    parts.pop()
    assert canonical_bipartitions(4) == sorted(parts + [Bipartition((1,))], key=lambda b: b.left)
    assert canonical_bipartitions(4) is not canonical_bipartitions(4)


def test_canonical_bipartitions_refuse_bad_mode_counts_at_once():
    # no state within MAX_AMPS has over 12 modes; 40 modes would be 2^39 splits
    start = time.perf_counter()
    for m in ("3", 3.0, True, None, 0, -3):
        with pytest.raises(DimensionMismatch, match="int"):
            canonical_bipartitions(m)
    for m in (13, 40, 10**5000):
        with pytest.raises(TooLarge, match="cap"):
            canonical_bipartitions(m)
    assert time.perf_counter() - start < 1.0
    assert len(canonical_bipartitions(12)) == 2047
    assert canonical_bipartitions(1) == []


def test_bipartition_canonicalize():
    b = Bipartition((2,)).canonicalize(3)
    assert b.left == (1, 3)
    assert Bipartition((1, 2)).canonicalize(3).left == (1, 2)


# ------------------------------------------------------------- local_factors

def test_local_factors_round_trip_exact():
    f1 = make_local([GaussRat(2), GaussRat(1)])
    f2 = make_local([GaussRat(1), GaussRat(0, 3)])
    s = segre_map([f1, f2])
    got = local_factors(s, 0)
    rebuilt = segre_map(got)
    # proportional to the input with a single global exact scale
    scale = s.amps[0] / rebuilt.amps[0]
    assert all(a == scale * b for a, b in zip(s.amps, rebuilt.amps))


def test_local_factors_bell_not_product(bell):
    with pytest.raises(NotProduct):
        local_factors(bell, 1e-10)


def test_local_factors_basis_state():
    s = make_state([2, 2, 2], [1, 0, 0, 0, 0, 0, 0, 0])
    factors = local_factors(s, 0)
    for f in factors:
        assert f.vec[0] == GaussRat(1)
        assert f.vec[1] == GaussRat(0)


def test_local_factors_single_mode():
    s = make_state([3], [0.0, 2.0, 0.0])
    (f,) = local_factors(s, 1e-10)
    assert abs(f.vec[1]) == pytest.approx(1.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=4))
def test_local_factors_round_trip_float(seed, m):
    rng = default_rng(seed)
    s = segre_map([random_local_state(rng, 2) for _ in range(m)])
    factors = local_factors(s, 1e-10)
    rebuilt = segre_map(factors).to_numpy()
    target = normalize(s).to_numpy()
    k = int(np.argmax(np.abs(target)))
    scale = target[k] / rebuilt[k]
    assert np.max(np.abs(target - scale * rebuilt)) <= 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=4))
def test_local_factors_round_trip_exact_random(seed, m):
    rng = default_rng(seed)
    s = segre_map([random_exact_local(rng, 2) for _ in range(m)])
    factors = local_factors(s, 0)
    rebuilt = segre_map(factors)
    k = next(i for i, a in enumerate(s.amps) if a)
    scale = s.amps[k] / rebuilt.amps[k]
    assert all(a == scale * b for a, b in zip(s.amps, rebuilt.amps))


# ---------------------------------------------------------------------- JSON

def test_state_json_round_trip_float(bell):
    s = state_from_json(state_to_json(bell))
    assert np.allclose(s.to_numpy(), bell.to_numpy())
    assert not s.exact


def test_state_json_round_trip_exact():
    s = make_state([2, 2], [GaussRat(Fraction(1, 3), Fraction(-2, 7)), 0, 1, 0])
    t = state_from_json(state_to_json(s))
    assert t.exact
    assert t.amps == s.amps


def test_state_json_int_components_are_exact():
    s = state_from_json({"dims": [2, 2], "amps": [[1, 0], [0, 0], [0, 0], [1, 0]]})
    assert s.exact


def test_state_json_float_anywhere_makes_float():
    s = state_from_json({"dims": [2], "amps": [[1, 0], [0.5, 0]]})
    assert not s.exact


def test_state_json_errors_name_fields():
    with pytest.raises(MalformedInput, match=r"dims\[1\]"):
        state_from_json({"dims": [2, 1], "amps": [[1, 0], [0, 0]]})
    with pytest.raises(MalformedInput, match=r"amps\[1\]\[0\]"):
        state_from_json({"dims": [2], "amps": [[1, 0], ["x/y", 0]]})
    with pytest.raises(MalformedInput, match="amps"):
        state_from_json({"dims": [2]})
    with pytest.raises(MalformedInput, match=r"amps\[0\]"):
        state_from_json({"dims": [2], "amps": [[1], [0, 0]]})
    with pytest.raises(MalformedInput, match=r"amps\[1\]\[1\]"):
        state_from_json({"dims": [2], "amps": [["1/2", "0"], ["1", 0.25]]}, exact=True)


def test_state_json_fraction_strings():
    s = state_from_json({"dims": [2], "amps": [["1/3", "-2/7"], ["0", "1"]]}, exact=True)
    assert s.exact
    assert s.amps[0] == GaussRat(Fraction(1, 3), Fraction(-2, 7))
    assert s.amps[1] == GaussRat(0, 1)


# ------------------------------------------------------ one array per state

def test_state_array_is_read_only():
    for amps in ([1, 0, 0, 1], [SQ2, 0, 0, SQ2]):
        s = make_state([2, 2], amps)
        assert s.array.shape == (2, 2)
        with pytest.raises(ValueError):
            s.array[0, 0] = 0
    f = make_local([1.0, 2.0])
    with pytest.raises(ValueError):
        f.array[0] = 0


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("u, error", [
    pytest.param(np.zeros((2, 2)), ZeroVector, id="zero"),
    pytest.param(np.full((2, 2), np.nan), NonFinite, id="nan"),
    pytest.param(np.array([[np.inf, 0], [0, 1]]), NonFinite, id="inf"),
    pytest.param(np.full((2, 2), 1.5e308), NonFinite, id="overflow"),
])
def test_apply_local_unitary_result_is_checked(exact, u, error):
    s = make_state([2, 2], [1, 1, 1, 1] if exact else [1.0, 1.0, 1.0, 1.0])
    with pytest.raises(error):
        apply_local_unitary(s, 1, u)


def test_apply_local_unitary_takes_the_matrix_by_the_one_rule():
    s = make_state([2, 2], [1.0, 0.5, 0, 1])
    for u in ([["a", 0], [0, 1]], [[True, False], [False, True]], np.eye(2, dtype=bool)):
        with pytest.raises(MalformedInput, match=r"u\[0\]"):
            apply_local_unitary(s, 1, u)
    with pytest.raises(NonFinite, match=r"u\[0\]"):
        apply_local_unitary(s, 1, [[10**400, 0], [0, 1]])
    # exact entries act as their float values
    swapped = apply_local_unitary(s, 1, [[0, 1], [GaussRat(1), 0]])
    assert swapped.amplitude((0, 1)) == s.amplitude((1, 1))


def test_make_state_rejects_bool_and_str():
    with pytest.raises(MalformedInput, match=r"amps\[0\]"):
        make_state([2], [True, False])
    with pytest.raises(MalformedInput, match=r"amps\[0\]"):
        make_state([2], ["1", "0"])
    with pytest.raises(MalformedInput, match=r"amps\[1\]"):
        make_state([2], [1.0, "0"])
    with pytest.raises(MalformedInput, match=r"vec\[1\]"):
        make_local([1, False])


def test_local_factors_rejects_bad_tol(bell, bell_exact):
    for s in (bell, bell_exact):
        for tol in (-1.0, float("nan"), float("inf"), "x", None, True):
            with pytest.raises(MalformedInput, match="tol"):
                local_factors(s, tol)


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-310, 5e-324])
def test_normalize_extreme_scales(scale):
    s = normalize(make_state([2, 2], [scale, 0, 0, scale]))
    assert s.amps[0] == pytest.approx(SQ2)
    assert s.amps[3] == pytest.approx(SQ2)


def test_normalize_matches_rescanning_the_largest_part():
    # normalize divides by the largest part as scale_parts reports it; a
    # second scan after the power-of-two scaling finds exactly that value, so
    # the bits are those of the two-scan reference, subnormals and signed
    # zeros included
    from qsegre.states import scale_parts

    rng = np.random.default_rng(5)
    cases = [[5e-324, -0.0, 0.0, -5e-324j], [1.7e308, -1.7e308j, 1e-320, 3.0], [-0.0, 1.0, -0.0j, -1e-310]]
    for scale in (1.0, 1e-310, 1e300):
        x = (rng.standard_normal(8) + 1j * rng.standard_normal(8)) * scale
        x[1::2] *= 1e-300
        cases.append(x)
    for amps in cases:
        arr = np.array(amps, dtype=np.complex128)
        ref = arr.copy()
        ref.real, ref.imag, _, _ = scale_parts(ref.real, ref.imag)
        ref = ref / max(np.abs(ref.real).max(), np.abs(ref.imag).max())
        ref = ref / np.linalg.norm(ref)
        out = normalize(make_state([len(arr)], arr)).array
        assert out.tobytes() == ref.tobytes()


def test_norm_sq_beyond_float_range_raises():
    # every term is at most the sum, so only a squared norm that is itself
    # beyond the float range overflows; it raises instead of returning inf
    with pytest.raises(NonFinite, match="squared norm"):
        make_state([2, 2], [1e200, 0, 0, 1e200]).norm_sq()
    with pytest.raises(NonFinite, match="squared norm"):
        make_state([2], [1e155j, 1e155]).norm_sq()
    assert make_state([2, 2], [1e150, 0, 0, 1e150]).norm_sq() == pytest.approx(2e300)
    assert make_state([2], [10**200, 1]).norm_sq() == 10**400 + 1


def test_state_json_size_cap_precedes_parsing():
    # amps is not even a list: the cap on prod(dims) is checked first
    with pytest.raises(TooLarge, match="prod\\(dims\\) = 8192 exceeds cap 4096"):
        state_from_json({"dims": [2] * 13, "amps": None})
    # the running product stops at the cap, so it names no count it did not finish
    for dims in ([2] * 14, [2] * 15000, [10**4000, 2]):
        with pytest.raises(TooLarge, match="^prod\\(dims\\) exceeds cap 4096$"):
            state_from_json({"dims": dims, "amps": None})
    s = state_from_json({"dims": [2] * 12, "amps": [[1, 0]] + [[0, 0]] * 4095})
    assert s.dims == (2,) * 12
    # the amplitude count is checked before any amplitude is parsed
    with pytest.raises(MalformedInput, match="length 3, expected 4"):
        state_from_json({"dims": [2, 2], "amps": [[1, 0], ["x", 0], [0, 0]]})


# ------------------------------------------------------------- the dims rule

def test_constructors_refuse_shapes_outside_the_dims_rule():
    # a 0-mode state, a 1-level mode, a local vector of two axes or one entry,
    # and dims that are not a sequence
    for build in (
        lambda: PureState(np.array(1 + 0j)),
        lambda: PureState(np.ones((2, 1))),
        lambda: LocalState(np.ones((2, 2))),
        lambda: make_local([1]),
        lambda: make_state(5, [1]),
        lambda: segre_generators(5),
        lambda: segre_generators((2, np.int64(2))),
    ):
        with pytest.raises(DimensionMismatch, match="dims|axis"):
            build()
    with pytest.raises(DimensionMismatch, match=r"dims\[1\] must be an int >= 2, got int64"):
        make_state([2, np.int64(2)], [1, 0, 0, 0])
    with pytest.raises(MalformedInput, match="dims must be a nonempty sequence"):
        state_from_json({"dims": 5, "amps": [[1, 0]]})


def test_constructor_refuses_dtypes_of_neither_backend():
    # an int array built a state that was neither backend, and a str array
    # raised a bare TypeError from np.isfinite
    for build in (
        lambda: PureState(np.array([1, 2])),
        lambda: PureState(np.array(["a", "b"])),
        lambda: PureState(np.ones((2, 2))),
        lambda: LocalState(np.array([1.0, 0.0])),
        lambda: LocalState(np.array([True, False])),
    ):
        with pytest.raises(MalformedInput, match="complex128 or object array, got dtype"):
            build()
    # the two backends' dtypes still build, the exact one without a scan of its entries
    assert not PureState(np.array([1, 2], dtype=np.complex128)).exact
    assert PureState(np.array([GaussRat(1), GaussRat(0)], dtype=object)).exact


def test_long_literals_give_short_messages():
    # the whole literal was printed: a 5000-digit string gave a 5,027-character message
    for build in (
        lambda: GaussRat("1" * 5000),
        lambda: GaussRat("x" * 5000),
        lambda: GaussRat("e" * 5000),
        lambda: state_from_json({"dims": [2], "amps": [["1" * 5000, 0], [1, 0]]}),
        lambda: state_from_json({"dims": [2], "amps": [[1, "\u00e9" * 5000], [1, 0]]}),
    ):
        with pytest.raises(MalformedInput, match="fraction literal") as info:
            build()
        assert len(str(info.value)) < 200 and "5000 characters" in str(info.value)
    # a short literal is shown whole, as its repr
    with pytest.raises(MalformedInput, match="re: bad fraction literal 'abc'$"):
        GaussRat("abc")


dims_entries = st.one_of(
    st.integers(-3, 6),
    st.integers(-10**5000, 10**5000),
    st.booleans(),
    st.floats(),
    st.integers(0, 6).map(np.int64),
    st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
)
any_dims = st.one_of(
    st.lists(dims_entries, max_size=5),
    st.lists(dims_entries, max_size=3).map(tuple),
    st.lists(st.integers(1, 4), max_size=14),  # mostly valid, some past the cap
    st.just([2] * 15000 + [1]),
    st.none(), st.integers(), st.floats(), st.text(max_size=3),
)


def result_or_short_error(call):
    """The call's result, or None when it raises a QsegreError of a short message."""
    try:
        return call()
    except QsegreError as exc:
        assert len(str(exc)) < 200
        return None


@settings(max_examples=300, deadline=None)
@given(any_dims, dims_entries)
def test_any_dims_give_a_result_or_a_short_error(dims, m):
    # prod(dims) amplitudes when dims are a short list of small ints, else two
    small = (isinstance(dims, (list, tuple)) and len(dims) <= 14
             and all(type(d) is int and 0 <= d <= 6 for d in dims))
    n = math.prod(dims) if small and math.prod(dims) <= 4096 else 2
    amps = [1] + [0] * (n - 1)
    s = result_or_short_error(lambda: make_state(dims, amps))
    t = result_or_short_error(lambda: state_from_json({"dims": dims, "amps": [[a, 0] for a in amps]}))
    if s is not None:
        assert s.dims == tuple(dims) and t.dims == s.dims
        assert is_fully_separable(normalize(s))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(segre, "MAX_TERMS", 2000)  # any shape within it is built in milliseconds
        ideal = result_or_short_error(lambda: segre_generators(dims))
    if ideal is not None:
        assert ideal.dims == tuple(dims) and len(dims) >= 2
    parts = result_or_short_error(lambda: canonical_bipartitions(m))
    if parts is not None:
        assert len(parts) == 2 ** (m - 1) - 1


@settings(max_examples=200, deadline=None)
@given(array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3), st.lists(st.integers(2, 3), max_size=13))
def test_states_of_any_shape_follow_the_dims_rule(shape, lengths):
    s = result_or_short_error(lambda: PureState(np.ones(shape, dtype=np.complex128)))
    if s is not None:
        assert s.num_modes >= 1 and min(s.dims) >= 2
        assert is_fully_separable(normalize(s))
        assert [f.dim for f in local_factors(s, 1e-10)] == list(s.dims)
    f = result_or_short_error(lambda: LocalState(np.ones(shape, dtype=np.complex128)))
    if f is not None:
        assert segre_map([f, f]).dims == (f.dim, f.dim)
    product = result_or_short_error(lambda: segre_map([make_local([1.0] * d) for d in lengths]))
    if product is not None:
        assert product.dims == tuple(lengths)
