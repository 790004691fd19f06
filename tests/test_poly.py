import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsegre import (
    ANY_DEGREE,
    Bipartition,
    GaussRat,
    MissingVariable,
    Monomial,
    MultiPoly,
    PluVar,
    StateVar,
    evaluate,
    flatten,
    format_poly,
    is_homogeneous,
    make_local,
    make_state,
    pluecker_coordinates,
    poly_add,
    poly_mul,
)
from qsegre.poly import ONE_MONOMIAL
from qsegre.sampling import default_rng, random_exact_matrix, random_gaussrat


def sv(*index):
    return MultiPoly.variable(StateVar(tuple(index)))


def pv(*subset):
    return MultiPoly.variable(PluVar(tuple(subset)))


def two_qubit_quadric():
    return sv(0, 0) * sv(1, 1) - sv(0, 1) * sv(1, 0)


def klein_quadric():
    return pv(1, 2) * pv(3, 4) - pv(1, 3) * pv(2, 4) + pv(1, 4) * pv(2, 3)


# ------------------------------------------------------------------ addition

def test_add_identity():
    p = two_qubit_quadric()
    assert poly_add(p, MultiPoly.zero()) == p


def test_add_cancellation():
    p = sv(0, 0) * sv(1, 1)
    assert poly_add(p, -p) == MultiPoly.zero()
    assert poly_add(p, -p).is_zero()


def test_add_term_merge():
    p = two_qubit_quadric()
    q = sv(0, 1) * sv(1, 0)
    assert poly_add(p, q) == sv(0, 0) * sv(1, 1)


# ------------------------------------------------------------ multiplication

def test_mul_monomials():
    p = poly_mul(sv(0, 0), sv(1, 1))
    assert len(p.terms) == 1
    ((mono, coeff),) = p.terms.items()
    assert coeff == GaussRat(1)
    assert mono.degree() == 2


def test_mul_difference_of_squares():
    x, y = sv(0,), sv(1,)
    assert poly_mul(x + y, x - y) == x * x - y * y


def test_mul_grading():
    p = sv(0, 0) + 2 * sv(1, 1)
    q = sv(0, 1) - sv(1, 0)
    assert is_homogeneous(p) == 1
    assert is_homogeneous(q) == 1
    assert is_homogeneous(poly_mul(p, q)) == 2


# -------------------------------------------------------------- homogeneity

def test_is_homogeneous_quadric():
    assert is_homogeneous(two_qubit_quadric()) == 2
    assert is_homogeneous(klein_quadric()) == 2


def test_is_homogeneous_mixed():
    x = sv(0,)
    assert is_homogeneous(x + x * x) is None


def test_is_homogeneous_zero():
    assert is_homogeneous(MultiPoly.zero()) is ANY_DEGREE


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
    with pytest.raises(MissingVariable):
        evaluate(two_qubit_quadric(), {StateVar((0, 0)): GaussRat(1)})


def test_evaluate_mixed_assignment_is_float():
    p = sv(0,) * sv(1,)
    out = evaluate(p, {StateVar((0,)): GaussRat(2), StateVar((1,)): 0.5 + 0j})
    assert isinstance(out, complex)
    assert out == pytest.approx(1.0)


# ------------------------------------------------------------ hypothesis lane

fracs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
coeffs = st.builds(GaussRat, fracs, fracs)
variables = st.sampled_from([StateVar((0,)), StateVar((1,)), StateVar((0, 1)), PluVar((1, 2))])
monomials = st.lists(st.tuples(variables, st.integers(1, 3)), max_size=3).map(Monomial)
polys = st.dictionaries(monomials, coeffs, max_size=4).map(MultiPoly)


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert poly_add(poly_add(p, q), r) == poly_add(p, poly_add(q, r))
    assert poly_mul(poly_mul(p, q), r) == poly_mul(p, poly_mul(q, r))
    assert poly_mul(p, poly_add(q, r)) == poly_add(poly_mul(p, q), poly_mul(p, r))
    assert poly_add(p, q) == poly_add(q, p)
    assert poly_mul(p, q) == poly_mul(q, p)


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_degree_adds_for_homogeneous(p, q):
    dp, dq = is_homogeneous(p), is_homogeneous(q)
    if isinstance(dp, int) and isinstance(dq, int):
        prod = poly_mul(p, q)
        d = is_homogeneous(prod)
        assert d == dp + dq or prod.is_zero()


@settings(max_examples=60, deadline=None)
@given(polys, polys, st.integers(0, 2 ** 32 - 1))
def test_evaluate_is_ring_homomorphism(p, q, seed):
    rng = default_rng(seed)
    used = p.variables() | q.variables()
    assignment = {v: random_gaussrat(rng, span=5) for v in used}
    lhs = evaluate(poly_mul(p, q), assignment)
    rhs = evaluate(p, assignment) * evaluate(q, assignment)
    assert lhs == rhs
    assert evaluate(poly_add(p, q), assignment) == evaluate(p, assignment) + evaluate(q, assignment)


# ----------------------------------------------------------------- rendering

def test_format_quadrics():
    assert format_poly(two_qubit_quadric()) == "a[00]*a[11] - a[01]*a[10]"
    assert format_poly(klein_quadric()) == "P[1,2]*P[3,4] - P[1,3]*P[2,4] + P[1,4]*P[2,3]"


def test_format_zero_and_constants():
    assert format_poly(MultiPoly.zero()) == "0"
    assert format_poly(MultiPoly.const(GaussRat(Fraction(-1, 2), Fraction(3, 4)))) == "-(1/2-3/4*i)"


def test_format_coefficients_and_powers():
    x = sv(0,)
    y = sv(1,)
    p = MultiPoly.const(Fraction(3, 2)) * x * x - MultiPoly.const(GaussRat(0, 1)) * y
    assert format_poly(p) == "3/2*a[0]^2 - i*a[1]"


def test_sign_canonical_leading_positive():
    p = -two_qubit_quadric()
    assert format_poly(p.sign_canonical()) == "a[00]*a[11] - a[01]*a[10]"


def test_terms_sorted_canonically():
    p = pv(1, 4) * pv(2, 3) + pv(1, 2) * pv(3, 4)
    assert format_poly(p) == "P[1,2]*P[3,4] + P[1,4]*P[2,3]"


def test_variable_rendering_and_validation():
    assert str(StateVar((0, 1, 1))) == "a[011]"
    assert str(StateVar((0, 12))) == "a[0,12]"  # commas once indices pass 9
    assert str(PluVar((2, 11))) == "P[2,11]"
    with pytest.raises(ValueError):
        StateVar(())
    with pytest.raises(ValueError):
        PluVar((2, 2))
    with pytest.raises(ValueError):
        PluVar((3, 1))


def test_format_parenthesizes_complex_coefficients():
    a00, a11 = (Monomial(((StateVar(i), 1),)) for i in ((0, 0), (1, 1)))
    p = MultiPoly({a00: GaussRat(1, 1), a11: GaussRat(-2, 3)})
    assert format_poly(p) == "(1+i)*a[00] - (2-3*i)*a[11]"
    assert format_poly(-p) == "-(1+i)*a[00] + (2-3*i)*a[11]"
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
    for bad in (-1, True, 1.0):
        with pytest.raises(ValueError):
            Monomial(((x, bad),))


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
    poly = MultiPoly({Monomial(((x, 2),)): GaussRat(Fraction(1, 2), -3), ONE_MONOMIAL: GaussRat(0, 5)})
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


def test_variables_reject_bool_indices():
    for index in ((True,), (0, False)):
        with pytest.raises(ValueError, match="bool"):
            StateVar(index)
    for subset in ((1, True), (True, 2)):
        with pytest.raises(ValueError, match="bool"):
            PluVar(subset)
