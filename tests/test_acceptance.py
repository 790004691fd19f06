"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Tolerances are fixed here, not configurable.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np

from qsegre import (
    Flattening,
    GaussRat,
    concurrence2,
    evaluate,
    generalized_concurrence,
    is_fully_separable,
    local_factors,
    make_state,
    minor_sum,
    normalize,
    pluecker_coordinates,
    pluecker_measure,
    pluecker_relations,
    check_relations,
    segre_generators,
    segre_map,
)
from qsegre.sampling import (
    default_rng,
    random_exact_local,
    random_exact_matrix,
    random_haar_state,
    random_local_state,
    random_product_state,
    random_unitary,
)
from qsegre.states import apply_local_unitaries, permute_modes

from oracles import minor_sum_direct, state_assignment

SQ2 = 1.0 / math.sqrt(2.0)


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({title}): FAIL")
        raise
    print(f"criterion {num} ({title}): PASS")


def test_criterion_1_two_qubit_coincidence():
    with criterion(1, "two-qubit measure coincidence"):
        rng = default_rng(101)
        start = time.perf_counter()
        for _ in range(1000):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            s = make_state([2, 2], list(map(complex, v)))
            a = generalized_concurrence(s).value
            b = concurrence2(s)
            c = pluecker_measure(s, 1)
            assert abs(a - b) <= 1e-12
            assert abs(a - c) <= 1e-12
            assert abs(b - c) <= 1e-12
        bell = make_state([2, 2], [SQ2, 0, 0, SQ2])
        basis01 = make_state([2, 2], [0, 1.0, 0, 0])
        for measure in (concurrence2, lambda s: generalized_concurrence(s).value, pluecker_measure):
            assert abs(measure(bell) - 1.0) <= 1e-12
            assert measure(basis01) == 0.0
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_golden_multiqubit_values():
    with criterion(2, "GHZ3 and W3 golden values"):
        ghz3 = make_state([2, 2, 2], [SQ2, 0, 0, 0, 0, 0, 0, SQ2])
        w3 = make_state([2, 2, 2], [0, 1, 1, 0, 1, 0, 0, 0])
        assert abs(generalized_concurrence(ghz3).value - 1.0) <= 1e-12
        assert abs(generalized_concurrence(w3).value - 2.0 * math.sqrt(2.0) / 3.0) <= 1e-12
        assert abs(pluecker_measure(ghz3, 1) - 1.0) <= 1e-12


def test_criterion_3_separability_soundness_completeness():
    with criterion(3, "separability at desk scale"):
        rng = default_rng(103)
        start = time.perf_counter()
        for m in (2, 3, 4, 5, 6):
            dims = [2] * m
            for _ in range(500):
                prod = random_product_state(rng, dims)
                assert is_fully_separable(prod, 1e-10)
                assert generalized_concurrence(prod).value < 1e-10
            for _ in range(500):
                haar = random_haar_state(rng, dims)
                assert generalized_concurrence(haar).value > 1e-3
                assert not is_fully_separable(haar, 1e-10)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_4_exact_ideal_vanishing():
    with criterion(4, "exact Segre ideal vanishing"):
        rng = default_rng(104)
        for m in (2, 3, 4):
            ideal = segre_generators([2] * m)
            for _ in range(200):
                s = segre_map([random_exact_local(rng, 2) for _ in range(m)])
                assignment = state_assignment(s)
                for gen in ideal.gens:
                    assert evaluate(gen, assignment) == GaussRat(0)
        for amps in (
            ([2, 2], [1, 0, 0, 1]),
            ([2, 2, 2], [1, 0, 0, 0, 0, 0, 0, 1]),
            ([2, 2, 2], [0, 1, 1, 0, 1, 0, 0, 0]),
        ):
            s = make_state(*amps)
            ideal = segre_generators(list(s.dims))
            values = [evaluate(g, state_assignment(s)) for g in ideal.gens]
            assert any(bool(v) for v in values)


def test_criterion_5_pluecker_relation_suite():
    with criterion(5, "Plucker relations on random matrices"):
        rng = default_rng(105)
        start = time.perf_counter()
        for k, n in ((2, 4), (2, 5), (3, 5), (2, 6)):
            for _ in range(100):
                ps = pluecker_coordinates(random_exact_matrix(rng, k, n))
                assert check_relations(ps) == 0
        rels = pluecker_relations(2, 4)
        assert len(rels) == 1
        assert str(rels[0].poly) == "P[1,2]*P[3,4] - P[1,3]*P[2,4] + P[1,4]*P[2,3]"
        for k, n in ((2, 4), (3, 5)):
            for _ in range(10):
                m = random_exact_matrix(rng, k, n)
                g = random_exact_matrix(rng, k, k)
                gm = [
                    [sum((g[i][l] * m[l][j] for l in range(k)), GaussRat(0)) for j in range(n)]
                    for i in range(k)
                ]
                det_g = evaluate_det(g)
                before = pluecker_coordinates(m).coords
                after = pluecker_coordinates(gm).coords
                assert all(after[i] == det_g * before[i] for i in before)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def evaluate_det(rows):
    n = len(rows)
    total = GaussRat(0)
    for perm in itertools.permutations(range(n)):
        inv = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        term = GaussRat((-1) ** inv)
        for r in range(n):
            term = term * rows[r][perm[r]]
        total = total + term
    return total


def test_criterion_6_minor_sum_oracle_equivalence():
    with criterion(6, "Gram identity vs minor enumeration"):
        rng = default_rng(106)
        for _ in range(1000):
            r = int(rng.integers(2, 9))
            c = int(rng.integers(2, 9))
            mat = rng.normal(size=(r, c)) + 1j * rng.normal(size=(r, c))
            f = Flattening(r, c, mat)
            a = minor_sum(f)
            b = minor_sum_direct(f)
            assert abs(a - b) <= 1e-9 * max(abs(a), abs(b))
        for _ in range(50):
            rows = random_exact_matrix(rng, 4, 4, span=6)
            f = Flattening(4, 4, tuple(tuple(r) for r in rows))
            assert minor_sum(f) == minor_sum_direct(f)


def test_criterion_7_invariance_suite():
    with criterion(7, "LU, permutation, and scale invariance"):
        rng = default_rng(107)
        for m in (3, 4):
            for _ in range(100):
                s = random_haar_state(rng, [2] * m)
                base = generalized_concurrence(s).value

                rotated = apply_local_unitaries(s, [random_unitary(rng, 2) for _ in range(m)])
                assert abs(generalized_concurrence(rotated).value - base) <= 1e-9

                perm = list(rng.permutation(m) + 1)
                shuffled = permute_modes(s, perm)
                assert abs(generalized_concurrence(shuffled).value - base) <= 1e-9

                lam = complex(rng.normal(), rng.normal())
                if abs(lam) > 1e-6:
                    scaled = make_state([2] * m, [lam * a for a in s.amps])
                    assert abs(generalized_concurrence(scaled).value - base) <= 1e-9


def test_criterion_8_round_trip():
    with criterion(8, "factor recovery round trip"):
        rng = default_rng(108)
        for trial in range(500):
            m = 2 + trial % 4  # m in 2..5
            s = segre_map([random_local_state(rng, 2) for _ in range(m)])
            factors = local_factors(s, 1e-10)
            rebuilt = segre_map(factors).to_numpy()
            target = normalize(s).to_numpy()
            k = int(np.argmax(np.abs(target)))
            scale = target[k] / rebuilt[k]
            assert np.max(np.abs(target - scale * rebuilt)) <= 1e-9
