import copy
import math
import pickle
from collections.abc import Mapping
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsegre import (
    ANY_DEGREE,
    Bipartition,
    GaussRat,
    IndexOutOfRange,
    MalformedInput,
    MissingVariable,
    Monomial,
    MultiPoly,
    NonFinite,
    PluVar,
    StateVar,
    evaluate,
    flatten,
    format_poly,
    is_homogeneous,
    make_local,
    make_state,
    pluecker_coordinates,
)
from qsegre.gaussrat import GR_MINUS_ONE, GR_ONE
from qsegre.sampling import default_rng, random_exact_matrix, random_gaussrat

from oracles import add, first_positive, mul, pv, render, sv, to_multipoly

ONE = Monomial(())
# the two quadrics as oracle polynomials (tests/oracles.py)
QUADRIC = add(mul(sv(0, 0), sv(1, 1)), mul(-1, sv(0, 1), sv(1, 0)))
KLEIN = add(mul(pv(1, 2), pv(3, 4)), mul(-1, pv(1, 3), pv(2, 4)), mul(pv(1, 4), pv(2, 3)))


def two_qubit_quadric():
    return to_multipoly(QUADRIC)


def klein_quadric():
    return to_multipoly(KLEIN)


# ------------------------------------------------ the oracle's sum, as a MultiPoly

def test_add_identity():
    assert add(QUADRIC, {}) == add(QUADRIC, 0) == QUADRIC
    assert to_multipoly(add(QUADRIC, {})) == two_qubit_quadric()


def test_add_cancellation():
    p = mul(sv(0, 0), sv(1, 1))
    assert add(p, mul(-1, p)) == {}
    assert to_multipoly(add(p, mul(-1, p))) == MultiPoly()
    assert to_multipoly(add(p, mul(-1, p))).is_zero()


def test_add_term_merge():
    q = mul(sv(0, 1), sv(1, 0))
    assert to_multipoly(add(QUADRIC, q)) == to_multipoly(mul(sv(0, 0), sv(1, 1)))


# -------------------------------------------- the oracle's product, as a MultiPoly

def test_mul_monomials():
    p = to_multipoly(mul(sv(0, 0), sv(1, 1)))
    assert len(p.terms) == 1
    ((mono, coeff),) = p.terms.items()
    assert coeff == GaussRat(1)
    assert mono.degree() == 2


def test_mul_difference_of_squares():
    x, y = sv(0,), sv(1,)
    assert to_multipoly(mul(add(x, y), add(x, mul(-1, y)))) == to_multipoly(add(mul(x, x), mul(-1, y, y)))


def test_mul_grading():
    p = add(sv(0, 0), mul(2, sv(1, 1)))
    q = add(sv(0, 1), mul(-1, sv(1, 0)))
    assert is_homogeneous(to_multipoly(p)) == 1
    assert is_homogeneous(to_multipoly(q)) == 1
    assert is_homogeneous(to_multipoly(mul(p, q))) == 2


# -------------------------------------------------------------- homogeneity

def test_is_homogeneous_quadric():
    assert is_homogeneous(two_qubit_quadric()) == 2
    assert is_homogeneous(klein_quadric()) == 2


def test_is_homogeneous_mixed():
    x = sv(0,)
    assert is_homogeneous(to_multipoly(add(x, mul(x, x)))) is None


def test_is_homogeneous_zero():
    assert is_homogeneous(MultiPoly()) is ANY_DEGREE


# ---------------------------------------------------------------- evaluation

def test_evaluate_bell_quadric():
    p = two_qubit_quadric()
    exact_amps = {
        StateVar((0, 0)): GaussRat(1),
        StateVar((0, 1)): GaussRat(0),
        StateVar((1, 0)): GaussRat(0),
        StateVar((1, 1)): GaussRat(1),
    }
    assert evaluate(p, exact_amps) == GaussRat(1)
    s = 2.0 ** -0.5
    float_amps = {
        StateVar((0, 0)): s,
        StateVar((0, 1)): 0.0,
        StateVar((1, 0)): 0.0,
        StateVar((1, 1)): s,
    }
    assert evaluate(p, float_amps) == pytest.approx(0.5)


def test_evaluate_zero_assignment():
    p = two_qubit_quadric()
    zeros = {v: GaussRat(0) for v in p.variables()}
    assert evaluate(p, zeros) == GaussRat(0)


def test_evaluate_klein_on_minors():
    rng = default_rng(3)
    for _ in range(20):
        m = [[random_gaussrat(rng) for _ in range(4)] for _ in range(2)]
        # oracle: brute-force 2x2 determinant expansion per column pair
        coords = {}
        for a in range(4):
            for b in range(a + 1, 4):
                coords[PluVar((a + 1, b + 1))] = m[0][a] * m[1][b] - m[0][b] * m[1][a]
        assert evaluate(klein_quadric(), coords) == GaussRat(0)


def test_evaluate_missing_variable():
    with pytest.raises(MissingVariable, match=r"^no value for a\[(01|10|11)\]$"):
        evaluate(two_qubit_quadric(), {StateVar((0, 0)): GaussRat(1)})


class CountingMapping(Mapping):
    """A read-only mapping that records each key it is asked for, by ``[]`` or ``in``."""

    def __init__(self, values):
        self.values, self.asked = dict(values), []

    def __getitem__(self, key):
        self.asked.append(key)
        return self.values[key]

    def __contains__(self, key):
        self.asked.append(key)
        return key in self.values

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)


def test_evaluate_looks_each_used_variable_up_once():
    p = two_qubit_quadric()
    point = CountingMapping({StateVar(i): GaussRat(1 + sum(i)) for i in ((0, 0), (0, 1), (1, 0), (1, 1))})
    assert evaluate(p, point) == GaussRat(1 * 3 - 2 * 2)
    assert sorted(point.asked, key=StateVar.key) == sorted(p.variables(), key=StateVar.key)
    # and with keys equal to the variables but not the same objects
    point = CountingMapping({StateVar(v.index): value for v, value in point.values.items()})
    assert evaluate(p, point) == GaussRat(-1) and len(point.asked) == 4


def test_evaluate_mixed_assignment_is_float():
    p = to_multipoly(mul(sv(0,), sv(1,)))
    out = evaluate(p, {StateVar((0,)): GaussRat(2), StateVar((1,)): 0.5 + 0j})
    assert isinstance(out, complex)
    assert out == pytest.approx(1.0)


def test_evaluate_takes_values_by_the_one_backend_rule():
    # bools and str are not numbers, and float values must be finite, as in states.amplitude_array
    p = to_multipoly(mul(sv(0,), sv(1,)))
    x, y = StateVar((0,)), StateVar((1,))
    for bad, other, error in (("a", 0.5, MalformedInput), (None, 0.5, MalformedInput),
                              (True, GaussRat(2), MalformedInput), (True, 0.5, MalformedInput),
                              (math.nan, 0.5, NonFinite), (10**400, 0.5, NonFinite)):
        with pytest.raises(error, match="assignment"):
            evaluate(p, {x: bad, y: other})
    assert evaluate(p, {x: 10**400, y: GaussRat(2)}) == GaussRat(2 * 10**400)


def test_evaluate_takes_shared_unit_coefficients_as_signs():
    # exact terms with GR_ONE or GR_MINUS_ONE start from their first factor and take the
    # sign once; fresh units, other coefficients and the float backend multiply as before,
    # and float terms are summed in stored order, the monomial key order
    x, y, z = StateVar((0,)), StateVar((1,)), StateVar((2,))
    xy, x2z, yz = Monomial(((x, 1), (y, 1))), Monomial(((x, 2), (z, 1))), Monomial(((y, 1), (z, 1)))
    shared = MultiPoly({xy: GR_ONE, x2z: GR_MINUS_ONE, yz: GaussRat(2, -1), ONE: GR_MINUS_ONE})
    assert shared.terms[xy] is GR_ONE and shared.terms[x2z] is GR_MINUS_ONE
    fresh = MultiPoly({m: GaussRat(c.re, c.im) for m, c in shared.terms.items()})
    assert not any(c is GR_ONE or c is GR_MINUS_ONE for c in fresh.terms.values())
    rng = default_rng(5)
    for _ in range(10):
        a, b, c = (random_gaussrat(rng, span=7) for _ in range(3))
        exact = {x: a, y: b, z: c}
        want = a * b - a * a * c + GaussRat(2, -1) * b * c - 1
        assert evaluate(shared, exact) == want == evaluate(fresh, exact)
        floats = {v: complex(w) for v, w in exact.items()}
        fa, fb, fc = floats[x], floats[y], floats[z]
        want = 0j + -1 + fa * fb + -1 * fa ** 2 * fc + complex(2, -1) * fb * fc
        assert evaluate(shared, floats) == want == evaluate(fresh, floats)


# ------------------------------------------------------------ hypothesis lane

fracs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
coeffs = st.builds(GaussRat, fracs, fracs)
variables = st.sampled_from([StateVar((0,)), StateVar((1,)), StateVar((0, 1)), PluVar((1, 2))])
monomials = st.lists(st.tuples(variables, st.integers(1, 3)), max_size=3).map(Monomial)
polys = st.dictionaries(monomials, coeffs, max_size=4).map(MultiPoly)


def oracle_terms(p: MultiPoly) -> dict:
    """A MultiPoly's terms as an oracle polynomial (tests/oracles.py)."""
    return {m.key(): c for m, c in p.terms.items()}


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    # the oracle arithmetic the family oracles rest on, read back through the constructor
    assert all(to_multipoly(oracle_terms(x)) == x for x in (p, q, r))
    p, q, r = map(oracle_terms, (p, q, r))
    assert add(add(p, q), r) == add(p, add(q, r))
    assert mul(mul(p, q), r) == mul(p, mul(q, r))
    assert mul(p, add(q, r)) == add(mul(p, q), mul(p, r))
    assert add(p, q) == add(q, p)
    assert mul(p, q) == mul(q, p)


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_degree_adds_for_homogeneous(p, q):
    dp, dq = is_homogeneous(p), is_homogeneous(q)
    if isinstance(dp, int) and isinstance(dq, int):
        prod = to_multipoly(mul(oracle_terms(p), oracle_terms(q)))
        d = is_homogeneous(prod)
        assert d == dp + dq or prod.is_zero()


@settings(max_examples=60, deadline=None)
@given(polys, polys, st.integers(0, 2 ** 32 - 1))
def test_evaluate_is_ring_homomorphism(p, q, seed):
    rng = default_rng(seed)
    used = p.variables() | q.variables()
    assignment = {v: random_gaussrat(rng, span=5) for v in used}
    lhs = evaluate(to_multipoly(mul(oracle_terms(p), oracle_terms(q))), assignment)
    rhs = evaluate(p, assignment) * evaluate(q, assignment)
    assert lhs == rhs
    total = to_multipoly(add(oracle_terms(p), oracle_terms(q)))
    assert evaluate(total, assignment) == evaluate(p, assignment) + evaluate(q, assignment)


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_equal_polynomials_hash_alike(p, q):
    # a MultiPoly equals only a MultiPoly, so equal values hash alike
    rebuilt = MultiPoly(dict(reversed(list(p.terms.items()))))
    assert p == rebuilt and hash(p) == hash(rebuilt)
    assert p != q or hash(p) == hash(q)
    for scalar in (0, 2, Fraction(1, 2), GaussRat(0, 1)):
        assert p != scalar and scalar != p


def test_a_constant_polynomial_is_not_its_scalar():
    two = MultiPoly({ONE: 2})
    assert two == MultiPoly({ONE: GaussRat(2)})
    assert two != 2 and two != GaussRat(2) and 2 not in {two}
    assert MultiPoly() != 0 and 0 not in {MultiPoly()}


# ------------------------------------------------- stored order and evaluate

# two-digit indices, so key order and text order differ: a[0,10] after a[01] by
# key and before it by text
keyed_vars = [StateVar((0,)), StateVar((2,)), StateVar((10,)), StateVar((0, 1)), StateVar((0, 10)),
              PluVar((1, 2)), PluVar((1, 10))]
keyed_monos = st.lists(st.tuples(st.sampled_from(keyed_vars), st.integers(1, 4)), max_size=3).map(Monomial)
big_fracs = st.builds(Fraction, st.integers(-2**40, 2**40), st.integers(1, 2**30))
keyed_coeffs = st.one_of(st.sampled_from([GR_ONE, GR_MINUS_ONE]), coeffs, st.builds(GaussRat, big_fracs, big_fracs))
keyed_polys = st.dictionaries(keyed_monos, keyed_coeffs, max_size=6).map(MultiPoly)


def key_sorted(p: MultiPoly) -> list:
    return sorted(p.terms, key=Monomial.key)


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(keyed_monos, keyed_coeffs, max_size=6)
       .flatmap(lambda terms: st.tuples(st.just(terms), st.permutations(list(terms.items())))))
def test_any_insertion_order_stores_key_order(case):
    terms, shuffled = case
    p, q = MultiPoly(terms), MultiPoly(dict(shuffled))
    assert list(p.terms) == list(q.terms) == key_sorted(p)
    assert list(p.terms.items()) == list(q.terms.items())
    assert format_poly(p) == format_poly(q) and p == q and hash(p) == hash(q)
    for built in clones(p):
        assert list(built.terms) == key_sorted(built)


@settings(max_examples=60, deadline=None)
@given(keyed_polys)
def test_leading_is_the_term_of_least_key(p):
    # the README's replacement for the removed leading(): the first stored term
    leading = next(iter(p.terms.items()), None)
    if p.is_zero():
        assert leading is None
    else:
        mono = min(p.terms, key=Monomial.key)
        assert leading == (mono, p.terms[mono])
        assert leading[1] is p.terms[mono]


def evaluate_oracle(p: MultiPoly, assignment, exact: bool):
    """Term by term in stored (key) order: GaussRat arithmetic for exact values, and
    ``complex(c) * x**e * ...`` summed from 0j for float values."""
    total = GaussRat(0) if exact else 0j
    for mono in key_sorted(p):
        c = p.terms[mono]
        term = c if exact else complex(c)
        for v, e in mono.factors:
            term = term * assignment[v] ** e
        total = total + term
    return total


# exact values: ints, Fractions and GaussRats, some whose parts, put over a common
# denominator, pass int64
exact_values = st.one_of(st.integers(-9, 9), fracs, coeffs, big_fracs, st.builds(GaussRat, big_fracs, big_fracs))
float_values = st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False)


@settings(max_examples=120, deadline=None)
@given(keyed_polys, st.lists(exact_values, min_size=len(keyed_vars), max_size=len(keyed_vars)))
def test_exact_evaluate_matches_gauss_rat_oracle(p, values):
    assignment = dict(zip(keyed_vars, values))
    got = evaluate(p, assignment)
    assert isinstance(got, GaussRat) and got == evaluate_oracle(p, assignment, True)


def test_exact_evaluate_on_parts_past_int64():
    # non-homogeneous, non-unit coefficients, a constant and exponents up to 4,
    # at values whose parts over their common denominator pass 2**63
    x, y, z = StateVar((0,)), StateVar((1,)), StateVar((0, 10))
    p = MultiPoly({Monomial(((x, 4), (y, 1))): GaussRat(Fraction(3, 7), -2), Monomial(((z, 2),)): GR_MINUS_ONE,
                   Monomial(((x, 1),)): GaussRat(0, Fraction(-5, 11)), ONE: GaussRat(Fraction(1, 3))})
    rng = default_rng(26)
    for _ in range(20):
        values = [GaussRat(Fraction(int(rng.integers(-2**62, 2**62)), int(rng.integers(1, 2**40))),
                          Fraction(int(rng.integers(-2**62, 2**62)), int(rng.integers(1, 2**40))))
                  for _ in range(3)]
        assignment = dict(zip((x, y, z), values))
        assert evaluate(p, assignment) == evaluate_oracle(p, assignment, True)


@settings(max_examples=120, deadline=None)
@given(keyed_polys, st.lists(float_values, min_size=len(keyed_vars), max_size=len(keyed_vars)))
def test_float_evaluate_matches_complex_oracle_in_key_order(p, values):
    assignment = dict(zip(keyed_vars, values))
    got = evaluate(p, assignment)
    # a polynomial with no variables uses no value, and takes the exact backend
    assert isinstance(got, complex if p.variables() else GaussRat)
    assert complex(got) == evaluate_oracle(p, assignment, False)


def test_float_evaluate_beyond_the_float_range_raises():
    # finite values whose product or power passes the float range: NonFinite, not inf or nan
    x, y = StateVar((0,)), StateVar((1,))
    xy, x2 = Monomial(((x, 1), (y, 1))), Monomial(((x, 2),))
    mixed = MultiPoly({ONE: 3, xy: GR_ONE, x2: GaussRat(-1, 2)})  # 3 + a[0]*a[1] - (1-2*i)*a[0]^2
    product, power = MultiPoly({xy: GR_ONE}), MultiPoly({Monomial(((x, 5),)): GaussRat(2)})
    for p, assignment in ((mixed, {x: 1e308, y: 1e308}), (product, {x: 1e200, y: 1e200}),
                          (product, {x: 1e200j, y: -1e200}), (power, {x: 1e62}), (power, {x: 1e62j})):
        with pytest.raises(NonFinite, match="beyond the float range"):
            evaluate(p, assignment)
    # terms that overflow on the way to a sum that would be 0 raise too
    with pytest.raises(NonFinite, match="beyond the float range"):
        evaluate(MultiPoly({xy: GR_ONE, x2: GR_MINUS_ONE}), {x: 1e200, y: 1e200})
    # a coefficient past the float range raises too, where its conversion would raise OverflowError
    for huge in (GaussRat(10**400), GaussRat(1, -(10**5000))):
        with pytest.raises(NonFinite, match="beyond the float range"):
            evaluate(MultiPoly({Monomial(((x, 1),)): huge}), {x: 1.0})
    # up to the edge of the range the value is returned, and exact values never overflow
    assert evaluate(product, {x: 1e154, y: 1e154}) == 1e154 * 1e154
    assert evaluate(power, {x: 1e61}) == 2 * complex(1e61) ** 5
    assert evaluate(power, {x: 10**400}) == GaussRat(2 * 10**2000)


def test_evaluate_raises_before_any_arithmetic():
    x, y = StateVar((0,)), StateVar((0, 10))
    p = MultiPoly({Monomial(((x, 3), (y, 1))): GaussRat(Fraction(2, 3), 1), ONE: GR_ONE})
    with pytest.raises(MissingVariable, match=r"a\[0,10\]"):
        evaluate(p, {x: GaussRat(1)})
    for bad in ("1", None, True):
        with pytest.raises(MalformedInput, match="assignment"):
            evaluate(p, {x: GaussRat(1), y: bad})
    with pytest.raises(NonFinite, match="assignment"):
        evaluate(p, {x: math.inf, y: GaussRat(1)})
    with pytest.raises(MalformedInput, match="Monomial"):
        MultiPoly({Monomial(((x, 1),)): GR_ONE, "a[0]": GR_ONE})
    assert evaluate(MultiPoly(), {}) == GaussRat(0)
    assert evaluate(MultiPoly({ONE: GaussRat(0, 2)}), {}) == GaussRat(0, 2)


# ----------------------------------------------------------------- rendering

def test_format_quadrics():
    assert format_poly(two_qubit_quadric()) == "a[00]*a[11] - a[01]*a[10]"
    assert format_poly(klein_quadric()) == "P[1,2]*P[3,4] - P[1,3]*P[2,4] + P[1,4]*P[2,3]"


def test_format_zero_and_constants():
    assert format_poly(MultiPoly()) == "0"
    assert format_poly(MultiPoly({ONE: GaussRat(Fraction(-1, 2), Fraction(3, 4))})) == "-(1/2-3/4*i)"


def test_format_coefficients_and_powers():
    x = sv(0,)
    y = sv(1,)
    p = to_multipoly(add(mul(Fraction(3, 2), x, x), mul(-1, GaussRat(0, 1), y)))
    assert format_poly(p) == "3/2*a[0]^2 - i*a[1]"


def test_sign_canonical_leading_positive():
    # the families' sign rule, first coefficient positive, as the oracle states it
    p = first_positive(mul(-1, QUADRIC))
    assert p == QUADRIC and first_positive(KLEIN) == KLEIN
    assert format_poly(to_multipoly(p)) == render(p) == "a[00]*a[11] - a[01]*a[10]"


def test_terms_sorted_canonically():
    p = to_multipoly(add(mul(pv(1, 4), pv(2, 3)), mul(pv(1, 2), pv(3, 4))))
    assert format_poly(p) == "P[1,2]*P[3,4] + P[1,4]*P[2,3]"


def test_variable_rendering_and_validation():
    assert str(StateVar((0, 1, 1))) == "a[011]"
    assert str(StateVar((0, 12))) == "a[0,12]"  # commas once indices pass 9
    assert str(PluVar((2, 11))) == "P[2,11]"
    assert str(StateVar((2**64 - 1,))) == f"a[{2**64 - 1}]"
    for bad in ((), [0], np.array([0, 1]), np.array([]), (-1,), (0, 1.0),
                (-10**5000,), (10**5000,), (2**64,)):
        with pytest.raises(IndexOutOfRange):
            StateVar(bad)
    for bad in ((2, 2), (3, 1), (0, 1), (10**5000, 1), (1, 10**5000)):
        with pytest.raises(IndexOutOfRange):
            PluVar(bad)


def test_format_parenthesizes_complex_coefficients():
    a00, a11 = (Monomial(((StateVar(i), 1),)) for i in ((0, 0), (1, 1)))
    p = MultiPoly({a00: GaussRat(1, 1), a11: GaussRat(-2, 3)})
    assert format_poly(p) == "(1+i)*a[00] - (2-3*i)*a[11]"
    assert format_poly(MultiPoly({m: -c for m, c in p.terms.items()})) == "-(1+i)*a[00] + (2-3*i)*a[11]"
    # one nonzero part needs no parentheses
    q = MultiPoly({a00: GaussRat(Fraction(1, 2)), a11: GaussRat(0, -3)})
    assert format_poly(q) == "1/2*a[00] - 3*i*a[11]"


def test_monomial_constructor_canonicalizes():
    x, y = StateVar((0, 0)), StateVar((1, 1))
    m = Monomial(((x, 1), (y, 1)))
    swapped = Monomial(((y, 1), (x, 1)))
    assert swapped == m and hash(swapped) == hash(m) and swapped.factors == m.factors
    assert StateVar((0, 0)) == x and hash(StateVar((0, 0))) == hash(x) and x != PluVar((1,))
    with pytest.raises(AttributeError):
        x.index = (1, 1)
    assert MultiPoly({swapped: GaussRat(2)}) == MultiPoly({m: GaussRat(2)})
    assert Monomial(((x, 1), (y, 0), (x, 2))).factors == ((x, 3),)
    assert Monomial(((x, 0),)) == Monomial(()) and str(Monomial(((x, 0),))) == "1"
    assert str(Monomial(((y, 2), (x, 1), (y, 1)))) == "a[00]*a[11]^3"
    assert Monomial([(y, 1), (x, 1)]) == m
    for bad in (-1, True, 1.0, -10**5000, 10**5000, 2**64):
        with pytest.raises(IndexOutOfRange):
            Monomial(((x, bad),))
    assert str(Monomial(((x, 2**64 - 1),))) == f"a[00]^{2**64 - 1}"
    with pytest.raises(IndexOutOfRange):
        Monomial(((x, 2**63), (x, 2**63)))  # merged past the bound


def clones(value):
    return pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)


def test_atoms_survive_pickle_and_copy():
    x, y = StateVar((0, 12)), PluVar((1, 3))
    for atom in (x, y, Monomial(((x, 2), (y, 1))), Monomial(())):
        for clone in clones(atom):
            assert clone == atom and hash(clone) == hash(atom) and str(clone) == str(atom)
            assert repr(clone) == repr(atom)
    # deleting a slot would leave an atom without its key, hash or text
    for atom, slot in ((x, "text"), (x, "index"), (y, "_key"), (Monomial(((x, 1),)), "factors")):
        with pytest.raises(AttributeError, match="immutable"):
            delattr(atom, slot)
        assert hasattr(atom, slot)


def test_exact_values_survive_pickle_and_copy():
    rng = default_rng(11)
    x = StateVar((0, 1))
    poly = MultiPoly({Monomial(((x, 2),)): GaussRat(Fraction(1, 2), -3), ONE: GaussRat(0, 5)})
    ps = pluecker_coordinates(random_exact_matrix(rng, 2, 4))
    for value in (GaussRat(Fraction(-1, 2), Fraction(3, 4)), poly, ps):
        for clone in clones(value):
            assert clone == value
    # the array types rebuild through their constructors, so clones keep
    # read-only arrays in both backends
    exact = make_state([2, 2], [random_gaussrat(rng) for _ in range(4)])
    floats = make_state([2, 3], rng.normal(size=6) + 1j * rng.normal(size=6))
    for state in (exact, floats):
        for clone in clones(state):
            assert clone.dims == state.dims and clone.amps == state.amps
            assert not clone.array.flags.writeable
    local = make_local([GaussRat(1, 2), Fraction(-1, 3)])
    for clone in clones(local):
        assert clone.vec == local.vec and not clone.array.flags.writeable
    for state in (exact, floats):
        f = flatten(state, Bipartition((1,)))
        for clone in clones(f):
            assert (clone.rows, clone.cols) == (f.rows, f.cols) and not clone.entries.flags.writeable
            assert clone.entries.tolist() == f.entries.tolist() and clone.exact == f.exact
    for value, slot in ((GaussRat(1, 2), "im"), (poly, "_terms"), (exact, "array")):
        with pytest.raises(AttributeError, match="immutable"):
            delattr(value, slot)
        assert hasattr(value, slot)


@settings(max_examples=40, deadline=None)
@given(keyed_polys)
def test_polynomials_survive_pickle_and_copy(p):
    # copy and pickle go back through the constructor, with the terms as a dict
    for clone in clones(p):
        assert type(clone) is MultiPoly and clone == p and hash(clone) == hash(p)
        assert list(clone.terms.items()) == list(p.terms.items())
        assert format_poly(clone) == format_poly(p)


@settings(max_examples=40, deadline=None)
@given(keyed_polys)
def test_terms_are_stored_as_one_tuple_of_pairs(p):
    # the stored tuple holds the (monomial, coefficient) pairs that terms returns, in its order
    assert type(p._terms) is tuple and all(type(t) is tuple and len(t) == 2 for t in p._terms)
    assert p._terms == tuple(p.terms.items())
    assert all(m is n and c is d for (m, c), (n, d) in zip(p._terms, p.terms.items()))
    assert p.terms is not p.terms


def test_float_coefficient_is_malformed():
    x = Monomial(((StateVar((0,)), 1),))
    for bad in (1.0, 1j):
        with pytest.raises(MalformedInput, match="exact"):
            MultiPoly({x: bad})
        with pytest.raises(MalformedInput, match="exact"):
            MultiPoly({ONE: bad})


def test_variables_reject_bool_indices():
    for index in ((True,), (0, False)):
        with pytest.raises(IndexOutOfRange, match="bool"):
            StateVar(index)
    for subset in ((1, True), (True, 2)):
        with pytest.raises(IndexOutOfRange, match="bool"):
            PluVar(subset)
