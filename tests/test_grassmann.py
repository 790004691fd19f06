import functools
import itertools
import math
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsegre import (
    GaussRat,
    IndexOutOfRange,
    MalformedInput,
    MissingVariable,
    NonFinite,
    NotProduct,
    PluVar,
    ShapeError,
    TooLarge,
    WrongShape,
    check_relations,
    evaluate,
    flatten,
    format_poly,
    generalized_concurrence,
    is_bipartite_separable,
    is_fully_separable,
    is_homogeneous,
    local_factors,
    make_state,
    minor_sum,
    normalize,
    pluecker_coordinates,
    pluecker_measure,
    pluecker_relations,
    pluecker_set_to_json,
    segre_map,
)
from qsegre import grassmann
from qsegre.grassmann import PlueckerSet, _relation_family, _relation_term_count, _relation_terms
from qsegre.segre import DEFAULT_TOL
from qsegre.sampling import (
    default_rng,
    random_exact_matrix,
    random_gaussrat,
    random_haar_state,
    random_product_state,
    random_unitary,
)

from oracles import add, first_positive, mul, poly_rows, pv, render, term_rows

SQ2 = 1.0 / math.sqrt(2.0)


def det_oracle(rows):
    """Leibniz-formula determinant, independent of the library path."""
    n = len(rows)
    total = GaussRat(0) if isinstance(rows[0][0], GaussRat) else 0j
    for perm in itertools.permutations(range(n)):
        inv = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        term = rows[0][perm[0]]
        for r in range(1, n):
            term = term * rows[r][perm[r]]
        total = total + (-1) ** inv * term
    return total


def relation_product_oracle(k, n):
    """The (I, J) relation family built as oracle polynomials (tests/oracles.py)
    summed term by term, first coefficient positive, deduplicated (first
    (I, J) kept) and sorted by terms, as (polynomial, I, J)."""
    def coord(indices):
        ordered = tuple(sorted(indices))
        inv = sum(1 for a, b in itertools.combinations(indices, 2) if a > b)
        return mul((-1) ** inv, pv(*ordered))

    universe = range(1, n + 1)
    seen = {}
    for I in itertools.combinations(universe, k - 1):
        for J in itertools.combinations(universe, k + 1):
            poly = add(*(mul((-1) ** t, coord(I + (jt,)), coord(J[:t - 1] + J[t:]))
                         for t, jt in enumerate(J, start=1) if jt not in I))
            if poly:
                poly = first_positive(poly)
                seen.setdefault(term_rows(poly), (poly, I, J))
    return [seen[key] for key in sorted(seen)]


# ---------------------------------------------------------------- coordinates

def test_row_coordinates_for_k1():
    ps = pluecker_coordinates([[GaussRat(3), GaussRat(0, 1), GaussRat(Fraction(1, 2))]])
    assert ps.k == 1 and ps.N == 3
    assert ps.coords[(1,)] == GaussRat(3)
    assert ps.coords[(2,)] == GaussRat(0, 1)
    assert ps.coords[(3,)] == GaussRat(Fraction(1, 2))


def test_coordinate_plane():
    ps = pluecker_coordinates([[1, 0, 0, 0], [0, 1, 0, 0]])
    assert ps.coords[(1, 2)] == GaussRat(1)
    assert all(v == GaussRat(0) for key, v in ps.coords.items() if key != (1, 2))


def test_coordinates_match_det_oracle():
    rng = default_rng(61)
    mats = [random_exact_matrix(rng, k, n) for k, n in ((2, 4), (3, 5), (4, 6), (5, 7))]
    # rank-deficient: the last row is a combination of the others
    for k, n in ((3, 5), (4, 6)):
        m = random_exact_matrix(rng, k, n)
        m[-1] = [GaussRat(2, 1) * a - b for a, b in zip(m[0], m[1])]
        mats.append(m)
    # zero leading columns
    for k, n in ((2, 4), (4, 7)):
        m = random_exact_matrix(rng, k, n)
        for row in m:
            row[0] = row[1] = GaussRat(0)
        mats.append(m)
    for m in mats:
        k, n = len(m), len(m[0])
        ps = pluecker_coordinates(m)
        assert len(ps.coords) == math.comb(n, k)
        for subset, value in ps.coords.items():
            sub = [[row[i - 1] for i in subset] for row in m]
            assert value == det_oracle(sub)
    frng = np.random.default_rng(61)
    for k in range(1, 6):
        for n in (k + 1, k + 3):
            m = _random_float_matrix(frng, k, n)
            ps = pluecker_coordinates(m)
            dets = {s: np.linalg.det(m[:, [i - 1 for i in s]]) for s in ps.coords}
            scale = max(1.0, max(map(abs, dets.values())))
            assert all(type(v) is complex for v in ps.coords.values())
            assert max(abs(ps.coords[s] - d) for s, d in dets.items()) <= 1e-12 * scale


def test_coordinates_satisfy_klein_exactly():
    rng = default_rng(62)
    klein = pluecker_relations(2, 4)[0].poly
    for _ in range(25):
        ps = pluecker_coordinates(random_exact_matrix(rng, 2, 4))
        assignment = {PluVar(i): v for i, v in ps.coords.items()}
        assert evaluate(klein, assignment) == GaussRat(0)


def test_coordinates_shape_errors():
    # a square matrix is refused by _check_shape, the shape rule of G(k, N)
    with pytest.raises(ShapeError, match=re.escape("need 1 <= k < N, got k=2, N=2")):
        pluecker_coordinates([[1, 0], [0, 1]])
    with pytest.raises(ShapeError):
        pluecker_coordinates([[1, 0, 0], [0, 1]])
    # a k or N that is not an int is named by its type, not reported as out of bounds
    for k, n, message in ((np.int64(2), 4, "k must be an int, got int64"), (2, 4.0, "N must be an int, got float")):
        with pytest.raises(ShapeError, match=message):
            pluecker_relations(k, n)


def test_exact_is_the_backend_rule_of_the_coordinates():
    # PlueckerSet.exact runs states.exact_backend over the coordinates when it is read
    subsets = list(itertools.combinations(range(1, 5), 2))
    for values, exact in (([1, -2, 0, 3, 5, 7], True),
                          ([Fraction(1, 2), Fraction(-3), 0, 1, Fraction(2, 9), 4], True),
                          ([GaussRat(1, 2), 3, Fraction(1, 4), GaussRat(0), 1, 2], True),
                          ([0.5, 1.0, -2.0, 0.0, 1.5, 3.0], False),
                          ([1, Fraction(1, 2), GaussRat(0, 1), 2.5, 3, 4], False),
                          ([1, 2, 3, 4, 5, 1j], False)):
        ps = PlueckerSet(2, 4, dict(zip(subsets, values)))
        assert ps.exact is exact
        assert ps.get((1, 1)) == 0 and isinstance(ps.get((1, 1)), GaussRat if exact else complex)
    assert PlueckerSet(2, 4, {}).exact


def test_coordinates_cap_on_widest_level():
    # the expansion holds C(N, j) minors at its j-th row; the widest is j = min(k, N // 2)
    for shape in ((8, 16), (29, 30), (2, 142)):
        with pytest.raises(TooLarge, match="cap"):
            pluecker_coordinates(np.ones(shape))
    for k, n in ((7, 15), (14, 15), (2, 141)):
        assert len(pluecker_coordinates(np.ones((k, n))).coords) == math.comb(n, k)


def test_float_coordinates_beyond_float_range_raise():
    with pytest.raises(NonFinite, match="coords"):
        pluecker_coordinates([[1e200, 0, 1.0], [0, 1e200, 1.0]])
    with pytest.raises(NonFinite, match="coords"):
        pluecker_coordinates(np.full((3, 4), 1e200))
    ps = pluecker_coordinates([[2.0**500, 0, 1.0], [0, 2.0**500, 1.0]])
    assert ps.coords[(1, 2)] == 2.0**1000


def test_coordinates_reject_one_dimensional_input():
    for mat in ([1, 2, 3], np.array([1, 2, 3]), [GaussRat(1), GaussRat(2)]):
        with pytest.raises(ShapeError):
            pluecker_coordinates(mat)


def test_signed_lookup():
    rng = default_rng(63)
    ps = pluecker_coordinates(random_exact_matrix(rng, 2, 4))
    assert ps.get((3, 1)) == -ps.coords[(1, 3)]
    assert ps.get((1, 3)) == ps.coords[(1, 3)]
    assert ps.get((2, 2)) == GaussRat(0)
    ps3 = pluecker_coordinates(random_exact_matrix(rng, 3, 5))
    assert ps3.get((2, 1, 3)) == -ps3.coords[(1, 2, 3)]
    assert ps3.get((3, 1, 2)) == ps3.coords[(1, 2, 3)]
    for bad in ((1, 9), (1, "a"), 5, (1.0, 2), (1, 10**5000)):
        with pytest.raises(IndexOutOfRange):
            ps.get(bad)
    # the first entry that is not an int is named by its position and type
    with pytest.raises(IndexOutOfRange, match=re.escape("indices[0] must be an int, got int64")):
        ps.get((np.int64(2), 1))
    with pytest.raises(IndexOutOfRange, match=re.escape("indices[1] must be an int, got str")):
        ps.get([1, "a", 2.0])
    assert PlueckerSet(2, 4, {}).get((1, 1)) == 0


# ------------------------------------------------------------------ relations

def test_klein_quadric_is_unique_for_2_4():
    rels = pluecker_relations(2, 4)
    assert len(rels) == 1
    assert str(rels[0].poly) == "P[1,2]*P[3,4] - P[1,3]*P[2,4] + P[1,4]*P[2,3]"


def test_no_relations_for_k1():
    assert pluecker_relations(1, 5) == []


def test_relations_are_quadrics():
    for k, n in ((2, 4), (2, 5), (3, 5), (2, 6)):
        for rel in pluecker_relations(k, n):
            assert is_homogeneous(rel.poly) == 2
            assert len(rel.I) == k - 1 and len(rel.J) == k + 1


def test_relation_counts_for_k2_match_column_quadruples():
    # for two rows every relation is a Klein quadric on one 4-subset of columns
    for n in (4, 5, 6):
        rels = pluecker_relations(2, n)
        assert len(rels) == math.comb(n, 4)
        expected = set()
        for cols in itertools.combinations(range(1, n + 1), 4):
            a, b, c, d = cols
            poly = add(mul(pv(a, b), pv(c, d)), mul(-1, pv(a, c), pv(b, d)), mul(pv(a, d), pv(b, c)))
            expected.add(term_rows(first_positive(poly)))
        assert {poly_rows(r.poly) for r in rels} == expected


def test_relations_3_5_are_hodge_duals_of_2_5():
    universe = (1, 2, 3, 4, 5)

    def shuffle_sign(subset):
        seq = subset + tuple(i for i in universe if i not in subset)
        inv = sum(1 for x, y in itertools.combinations(seq, 2) if x > y)
        return (-1) ** inv

    def dualize(poly):
        # each term's coefficient is real: an imaginary part would show in the package's rows
        terms = []
        for mono, c in poly.terms.items():
            factors, sign = [], 1
            for v, e in mono.factors:
                comp = tuple(i for i in universe if i not in v.subset)
                sign *= shuffle_sign(v.subset) ** e
                factors += [pv(*comp)] * e
            terms.append(mul(sign * c.re, *factors))
        return term_rows(first_positive(add(*terms)))

    duals = {dualize(r.poly) for r in pluecker_relations(2, 5)}
    assert duals == {poly_rows(r.poly) for r in pluecker_relations(3, 5)}


@pytest.mark.parametrize("k, n", [(2, 4), (2, 6), (3, 5), (3, 6), (3, 7), (4, 7), (2, 8), (5, 7),
                                  (1, 4), (3, 4), (4, 5), (6, 8), (2, 9)])
def test_relations_match_product_oracle(k, n):
    rels, want = pluecker_relations(k, n), relation_product_oracle(k, n)
    assert [(poly_rows(r.poly), r.I, r.J) for r in rels] == [(term_rows(p), I, J) for p, I, J in want]
    assert [format_poly(r.poly) for r in rels] == [render(p) for p, _, _ in want]


def _supports(a, b, rel):
    terms = {}
    for r, x, y in zip(rel.tolist(), a.tolist(), b.tolist()):
        terms.setdefault(r, []).append((x, y))
    return sorted(sorted(t) for t in terms.values())


@pytest.mark.parametrize("n", [20, 26])
def test_relations_near_n_are_the_hodge_dual(n):
    # complementing k-subsets reverses their lexicographic order and maps the
    # family of G(2, N) onto that of G(N - 2, N) up to signs
    a, b, _, rel, pairs = _relation_terms(n - 2, n)
    da, db, _, drel, dual_pairs = _relation_terms(2, n)
    last = math.comb(n, 2) - 1
    assert len(pairs) == len(dual_pairs)
    assert _supports(a, b, rel) == _supports(last - db, last - da, drel)


@pytest.mark.parametrize("k, n", [(2, 6), (3, 8), (4, 8), (6, 8), (1, 5), (4, 5)])
def test_relation_term_count_is_the_raw_entry_count(k, n):
    # every (I, J, t) entry the build lays out, or none when every I is in
    # every J and the build returns the empty family at once
    pairs = [(I, J) for I in itertools.combinations(range(n), k - 1)
             for J in itertools.combinations(range(n), k + 1)]
    live = any(not set(I) <= set(J) for I, J in pairs)
    assert _relation_term_count(k, n) == (sum(len(J) for _, J in pairs) if live else 0)


def test_relations_cap_and_shape():
    # past N = 2048 the cap fires before any binomial is computed, even for 4001-digit N
    for k, n in ((4, 20), (2, 100), (6, 14), (10, 25), (2, 2049), (2, 10**4000), (2000, 10**4000)):
        start = time.perf_counter()
        with pytest.raises(TooLarge, match="cap"):
            pluecker_relations(k, n)
        with pytest.raises(TooLarge, match="cap"):
            check_relations(PlueckerSet(k, n, {}))
        assert time.perf_counter() - start < 1.0
    with pytest.raises(ShapeError):
        pluecker_relations(4, 4)
    with pytest.raises(ShapeError):
        pluecker_relations(0, 4)
    for k, n in ((2.0, 4), (True, 4), (2, 4.0)):
        with pytest.raises(ShapeError):
            pluecker_relations(k, n)
        with pytest.raises(ShapeError):
            check_relations(PlueckerSet(k, n, {}))


def test_relations_shape_and_cap_messages_are_short():
    # str() refuses ints of over 4300 digits
    huge = 10**5000
    for k, n, error in ((2, huge, TooLarge), (huge, huge, ShapeError), (huge // 10, huge, TooLarge),
                        (-huge, 4, ShapeError)):
        for call in (lambda: pluecker_relations(k, n), lambda: check_relations(PlueckerSet(k, n, {}))):
            with pytest.raises(error) as exc:
                call()
            assert len(str(exc.value)) < 200
    assert pluecker_relations(huge - 1, huge) == []


def test_relation_family_is_built_once_and_immutable(monkeypatch):
    _relation_family.cache_clear()
    first = _relation_terms(3, 7)
    rels = pluecker_relations(3, 7)
    rng = default_rng(37)
    check_relations(pluecker_coordinates(random_exact_matrix(rng, 3, 7)))
    assert _relation_family.cache_info().misses == 1
    assert _relation_terms(3, 7) is first
    *arrays, pairs = first
    assert isinstance(pairs, tuple) and not any(arr.flags.writeable for arr in arrays)
    assert [(rel.I, rel.J) for rel in rels] == list(pairs)
    # the cap still applies to a family that is already cached
    count = _relation_term_count(3, 7)
    monkeypatch.setattr(grassmann, "MAX_TERMS", count - 1)
    with pytest.raises(TooLarge, match="G\\(3,7\\) = 2940 exceeds cap 2939"):
        pluecker_relations(3, 7)
    with pytest.raises(TooLarge):
        check_relations(pluecker_coordinates(random_exact_matrix(rng, 3, 7)))
    monkeypatch.setattr(grassmann, "MAX_TERMS", count)
    assert len(pluecker_relations(3, 7)) == len(pairs)
    assert _relation_family.cache_info().misses == 1


@pytest.mark.parametrize("k, n", [(1, 2000), (199, 200), (1, 20000), (19999, 20000)])
def test_relations_empty_without_building(k, n):
    start = time.perf_counter()
    assert pluecker_relations(k, n) == []
    assert time.perf_counter() - start < 1.0


# ------------------------------------------------------------ check_relations

def test_check_relations_zero_on_minors():
    rng = default_rng(71)
    for k, n in ((2, 4), (2, 5), (3, 5)):
        ps = pluecker_coordinates(random_exact_matrix(rng, k, n))
        assert check_relations(ps) == 0


def test_check_relations_all_ones_residual():
    coords = {i: 1.0 + 0j for i in itertools.combinations(range(1, 5), 2)}
    ps = PlueckerSet(2, 4, coords)
    assert check_relations(ps) == pytest.approx(1.0)


def test_check_relations_vacuous_for_k1():
    ps = pluecker_coordinates([[GaussRat(1), GaussRat(2), GaussRat(3)]])
    assert check_relations(ps) == 0
    ps = pluecker_coordinates([list(range(1, 2001))])
    assert check_relations(ps) == 0


def _random_float_matrix(rng, k, n):
    return rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))


@pytest.mark.parametrize("k, n", [(2, 5), (3, 6), (3, 7)])
def test_check_relations_matches_polynomial_evaluation(k, n):
    # minors of random matrices (residual 0 or rounding) and random
    # coordinate vectors (nonzero residual), in both backends
    rng = default_rng(100 * k + n)
    subsets = list(itertools.combinations(range(1, n + 1), k))
    sets = [
        pluecker_coordinates(random_exact_matrix(rng, k, n)),
        pluecker_coordinates(_random_float_matrix(rng, k, n)),
        PlueckerSet(k, n, {i: random_gaussrat(rng) for i in subsets}),
        PlueckerSet(k, n, {i: complex(*rng.normal(size=2)) for i in subsets}),
    ]
    rels = pluecker_relations(k, n)
    for ps in sets:
        assignment = {PluVar(i): v for i, v in ps.coords.items()}
        values = [evaluate(rel.poly, assignment) for rel in rels]
        if ps.exact:
            worst = max(v.abs_sq() for v in values)
            assert check_relations(ps) == (0 if worst == 0 else math.sqrt(float(worst)))
        else:
            assert check_relations(ps) == pytest.approx(max(map(abs, values)), rel=0, abs=1e-12)


@pytest.mark.parametrize("k, n", [(2, 5), (3, 6), (3, 7)])
def test_exact_check_relations_equals_evaluate_oracle_on_perturbed_minors(k, n):
    # exact minors with a few coordinates nudged by small Gaussian rationals
    # of unlike denominators: the residual is nonzero, small and exact
    rng = default_rng(300 * k + n)
    rels = pluecker_relations(k, n)
    for trial in range(4):
        coords = dict(pluecker_coordinates(random_exact_matrix(rng, k, n)).coords)
        subsets = list(coords)
        for pos in rng.choice(len(subsets), size=trial + 1, replace=False):
            nudge = GaussRat(Fraction(1, int(rng.integers(2, 10**6))), Fraction(int(rng.integers(-3, 4)), 997))
            coords[subsets[pos]] += nudge
        ps = PlueckerSet(k, n, coords)
        assignment = {PluVar(i): v for i, v in coords.items()}
        worst = max(evaluate(rel.poly, assignment).abs_sq() for rel in rels)
        assert worst != 0
        assert check_relations(ps) == math.sqrt(float(worst))


def test_check_relations_exact_matches_float_image():
    # the exact and float backends share one expression: on exact minors
    # with nudged coordinates, the float image gives the exact residual
    rng = default_rng(41)
    for k, n in ((2, 5), (3, 7), (4, 8)):
        coords = dict(pluecker_coordinates(random_exact_matrix(rng, k, n)).coords)
        for subset in list(coords)[::5]:
            coords[subset] += GaussRat(Fraction(1, int(rng.integers(2, 1000))), Fraction(-1, 7))
        exact = check_relations(PlueckerSet(k, n, coords))
        image = check_relations(PlueckerSet(k, n, {i: complex(v) for i, v in coords.items()}))
        assert exact > 0 and image == pytest.approx(exact, rel=1e-12)
        # a set mixing both backends takes the float one, like amplitude_array
        mixed = {i: complex(v) if j % 2 else v for j, (i, v) in enumerate(coords.items())}
        assert check_relations(PlueckerSet(k, n, mixed)) == image


small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=9)
gaussrats = st.builds(GaussRat, small_fractions, small_fractions)


@st.composite
def exact_block_states(draw):
    """An exact state over m <= 5 modes: the tensor product of blocks of
    consecutive modes, each a nonzero exact tensor.  One block per mode gives
    a product state, one block a generic state, and blocks in between are
    separable at some splits only."""
    dims = draw(st.lists(st.sampled_from([2, 3]), min_size=2, max_size=5).filter(lambda d: math.prod(d) <= 48))
    cuts = sorted(draw(st.sets(st.integers(1, len(dims) - 1))))
    blocks = []
    for lo, hi in zip([0, *cuts], [*cuts, len(dims)]):
        n = math.prod(dims[lo:hi])
        amps = draw(st.lists(gaussrats, min_size=n, max_size=n).filter(any))
        blocks.append(np.array(amps, dtype=object).reshape(dims[lo:hi]))
    return make_state(dims, functools.reduce(np.multiply.outer, blocks).reshape(-1).tolist())


@st.composite
def exact_matrices(draw):
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k + 1, 6))
    return [draw(st.lists(gaussrats, min_size=n, max_size=n)) for _ in range(k)]


def proportional(u, v, rel=1e-12):
    """Float check that the vectors u and v span the same line."""
    u, v = (np.array([complex(x) for x in np.ravel(w)]) for w in (u, v))
    return np.linalg.norm(u - v * (np.vdot(v, u) / np.vdot(v, v))) <= rel * np.linalg.norm(u)


@settings(max_examples=60, deadline=None)
@given(exact_block_states())
def test_state_operations_agree_across_backends(exact):
    # every public state operation on an exact state and on its float image
    image = make_state(exact.dims, exact.to_numpy())
    report, image_report = generalized_concurrence(exact), generalized_concurrence(image)
    assert image_report.value == pytest.approx(report.value, abs=1e-12)
    for b, term in report.per_bipartition.items():
        assert image_report.per_bipartition[b] == pytest.approx(term, abs=1e-12)
    if all(d == 2 for d in exact.dims):
        for pivot in range(1, exact.num_modes + 1):
            assert pluecker_measure(image, pivot) == pytest.approx(pluecker_measure(exact, pivot), abs=1e-12)
    # the predicates agree on inputs kept clear of tol: every split term is
    # exactly 0 or far above tol^2 (a one-mode split's complement has the same term)
    tol = DEFAULT_TOL
    assume(all(t == 0 or t > 1e-12 for t in report.per_bipartition.values()))
    for b in report.per_bipartition:
        assert is_bipartite_separable(image, b, tol) == is_bipartite_separable(exact, b, tol)
    separable = is_fully_separable(exact, tol)
    assert is_fully_separable(image, tol) == separable
    assert separable == all(t == 0 for t in report.per_bipartition.values())
    if not separable:
        for s in (exact, image):
            with pytest.raises(NotProduct):
                local_factors(s, tol)
        return
    # the factors of both backends span the same lines, and their products the state
    factors, image_factors = local_factors(exact, tol), local_factors(image, tol)
    for u, v in zip(factors, image_factors):
        assert proportional(v.array, u.array)
    product = segre_map(factors).array.reshape(-1)
    amps = exact.array.reshape(-1)
    k = next(i for i, a in enumerate(amps) if a)
    assert (product == amps * (product[k] / amps[k])).all()
    assert proportional(segre_map(image_factors).array, image.array)


@settings(max_examples=60, deadline=None)
@given(exact_matrices(), gaussrats)
def test_pluecker_operations_agree_across_backends(rows, nudge):
    exact = pluecker_coordinates(rows)
    image = pluecker_coordinates([[complex(x) for x in row] for row in rows])
    # Hadamard: no k x k minor exceeds the product of the row norms
    bound = math.prod(math.hypot(*(abs(x) for x in row)) for row in rows)
    for subset, value in exact.coords.items():
        assert abs(image.coords[subset] - complex(value)) <= 1e-12 * bound
    assert check_relations(exact) == 0
    assert check_relations(image) <= 1e-12 * bound**2
    # off the Grassmannian, the float image of nudged coordinates gives the exact residual
    coords = dict(exact.coords)
    first = next(iter(coords))
    coords[first] += nudge
    nudged = PlueckerSet(exact.k, exact.N, coords)
    nudged_image = PlueckerSet(exact.k, exact.N, {i: complex(v) for i, v in coords.items()})
    scale = (bound + abs(nudge)) ** 2
    assert check_relations(nudged_image) == pytest.approx(float(check_relations(nudged)), abs=1e-12 * scale)


def test_float_check_relations_finite_near_float_range():
    # coordinates near 1e160 overflow every term P_A P_B; the residual of
    # minors is still small and finite
    ps = pluecker_coordinates(default_rng(0).normal(size=(2, 4)) * 1e80)
    big = max(abs(v) for v in ps.coords.values())
    residual = check_relations(ps)
    assert math.isfinite(residual) and residual / big <= 1e-12 * big
    # a residual that is itself beyond the float range raises
    with pytest.raises(NonFinite, match="residual"):
        check_relations(PlueckerSet(2, 4, {i: 1e160 + 0j for i in ps.coords}))


def test_check_relations_takes_coordinates_by_the_one_backend_rule():
    # the coordinates go through states.amplitude_array: a value that is not a
    # number or not finite is named, and int coordinates are exact
    ps = pluecker_coordinates(default_rng(5).normal(size=(2, 4)))
    for bad, error in (("a", MalformedInput), (True, MalformedInput), (None, MalformedInput),
                       (math.nan, NonFinite), (complex(0, math.inf), NonFinite)):
        with pytest.raises(error, match=r"coords\[0\]"):
            check_relations(PlueckerSet(2, 4, {**ps.coords, (1, 2): bad}))
    minors = pluecker_coordinates([[1, 2, 3, 4], [0, 1, 5, 2]]).coords
    ints = PlueckerSet(2, 4, {i: int(v.re) for i, v in minors.items()})
    assert ints.exact
    residual = check_relations(ints)
    assert isinstance(residual, Fraction) and residual == 0


def test_check_relations_missing_coordinate():
    coords = {i: GaussRat(1) for i in itertools.combinations(range(1, 5), 2)}
    del coords[(2, 3)]
    with pytest.raises(MissingVariable):
        check_relations(PlueckerSet(2, 4, coords))


@pytest.mark.parametrize("exact", [True, False])
def test_check_relations_missing_coordinate_is_named(exact):
    subsets = list(itertools.combinations(range(1, 8), 3))
    for missing in (subsets[0], subsets[17], subsets[-1]):
        coords = {i: GaussRat(i[0], i[1]) if exact else complex(*i[:2]) for i in subsets if i != missing}
        with pytest.raises(MissingVariable, match=re.escape(str(PluVar(missing)))):
            check_relations(PlueckerSet(3, 7, coords))


# ------------------------------------------------------------------ covariance

def test_left_multiplication_scales_by_det():
    rng = default_rng(72)
    for k, n in ((2, 4), (3, 5), (4, 6)):
        m = random_exact_matrix(rng, k, n)
        g = random_exact_matrix(rng, k, k)
        gm = [
            [sum((g[i][l] * m[l][j] for l in range(k)), GaussRat(0)) for j in range(n)]
            for i in range(k)
        ]
        detg = det_oracle(g)
        before = pluecker_coordinates(m)
        after = pluecker_coordinates(gm)
        for subset in before.coords:
            assert after.coords[subset] == detg * before.coords[subset]
        assert check_relations(after) == 0


def test_unitary_row_mixing_preserves_measure():
    rng = default_rng(73)
    s = random_haar_state(rng, [2, 2, 2])
    base = pluecker_measure(s, 1)
    u = random_unitary(rng, 2)
    from qsegre.states import apply_local_unitary

    rotated = apply_local_unitary(s, 1, u)
    assert pluecker_measure(rotated, 1) == pytest.approx(base, abs=1e-12)


# --------------------------------------------------------------------- measure

def test_measure_bell(bell, bell_exact):
    assert pluecker_measure(bell, 1) == pytest.approx(1.0, abs=1e-12)
    assert pluecker_measure(bell_exact, 1) == 1.0


def test_measure_product_states():
    rng = default_rng(74)
    for m in (2, 3, 4):
        s = random_product_state(rng, [2] * m)
        for pivot in range(1, m + 1):
            assert pluecker_measure(s, pivot) <= 1e-12


def test_measure_ghz(ghz3, ghz3_exact):
    assert pluecker_measure(ghz3, 1) == pytest.approx(1.0, abs=1e-12)
    assert pluecker_measure(ghz3_exact, 1) == 1.0
    assert pluecker_measure(ghz3_exact, 2) == 1.0


def test_measure_shape_errors(ghz3):
    with pytest.raises(WrongShape):
        pluecker_measure(make_state([2, 3], [1, 0, 0, 0, 0, 1]), 1)
    for pivot in (4, 0, np.int64(2), True, 1.0, "1"):
        with pytest.raises(IndexOutOfRange, match="pivot"):
            pluecker_measure(ghz3, pivot)
    with pytest.raises(WrongShape):
        pluecker_measure(make_state([2], [1, 0]), 1)


def test_measure_matches_minor_sum():
    from qsegre.states import Bipartition

    rng = default_rng(75)
    for m in (2, 3, 4):
        for _ in range(10):
            s = random_haar_state(rng, [2] * m)
            for pivot in range(1, m + 1):
                # Gram-identity path on the pivot-row flattening
                fp = flatten(normalize(s), Bipartition((pivot,)))
                expected = 2.0 * math.sqrt(minor_sum(fp))
                assert pluecker_measure(s, pivot) == pytest.approx(expected, abs=1e-12)


def test_pluecker_set_json():
    rng = default_rng(76)
    ps = pluecker_coordinates(random_exact_matrix(rng, 2, 4))
    obj = pluecker_set_to_json(ps)
    assert obj["k"] == 2 and obj["N"] == 4
    assert [e["I"] for e in obj["coords"]] == sorted(e["I"] for e in obj["coords"])
    assert len(obj["coords"]) == 6
    assert all(isinstance(e["re"], str) for e in obj["coords"])
    psf = pluecker_coordinates(np.asarray([[1.0, 0, 0, 0], [0, 1.0, 0, 0]]))
    objf = pluecker_set_to_json(psf)
    assert all(isinstance(e["re"], float) for e in objf["coords"])
