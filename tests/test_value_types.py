"""The value types on ``gaussrat.Frozen``: what their constructors check, the one
equality rule of ``gaussrat.Keyed``, clones through the constructor, bounded
messages for huge or long inputs, and a fuzz of the exported constructors."""

import copy
import enum
import pickle
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qsegre import (
    Bipartition,
    DimensionMismatch,
    Flattening,
    GaussRat,
    IndexOutOfRange,
    LocalState,
    MalformedInput,
    MeasureReport,
    MissingVariable,
    Monomial,
    MultiPoly,
    PluVar,
    PlueckerRelation,
    PlueckerSet,
    PureState,
    QsegreError,
    SegreIdeal,
    ShapeError,
    StateVar,
    TooLarge,
    apply_local_unitary,
    check_relations,
    evaluate,
    flatten,
    generalized_concurrence,
    is_bipartite_separable,
    is_fully_separable,
    local_factors,
    make_bipartition,
    make_local,
    make_state,
    permute_modes,
    pluecker_coordinates,
    pluecker_measure,
    pluecker_relations,
    pluecker_set_to_json,
    segre_generators,
)

from oracles import add, pv, sv, to_multipoly

BIG = 10**5000  # str() refuses ints of over 4300 digits
SHORT = 300  # characters a message may take, whatever the input


def values_of_each_type():
    """One value of each of the five types, as the library builds them."""
    return {
        "Bipartition": Bipartition((1, 3)),
        "SegreIdeal": segre_generators((2, 2)),
        "PlueckerRelation": pluecker_relations(2, 4)[0],
        "MeasureReport": generalized_concurrence(make_state([2, 2], [1, 0, 0, 1])),
        "PlueckerSet": pluecker_coordinates([[1, 0, 2], [0, 1, 3]]),
    }


def test_motivating_cases_raise_short_qsegre_errors():
    for build, error in (
        (lambda: PlueckerSet(-1, -1, {}), ShapeError),
        (lambda: Bipartition((1, 1)), IndexOutOfRange),
        (lambda: Bipartition("ab"), IndexOutOfRange),
        (lambda: SegreIdeal("x", (1, 2)), DimensionMismatch),
        (lambda: MeasureReport("v", None), MalformedInput),
        (lambda: PlueckerRelation(1, 2, 3), MalformedInput),
        (lambda: pluecker_set_to_json(PlueckerSet(2, 4, {(1, 2): object()})), MalformedInput),
    ):
        with pytest.raises(error) as exc:
            build()
        assert len(str(exc.value)) <= SHORT


def test_pluecker_set_coords_are_read_only():
    ps = pluecker_coordinates([[1, 0, 2], [0, 1, 3]])
    with pytest.raises(TypeError):
        ps.coords[(1, 2)] = 1.5 + 0j
    assert ps.exact and ps.coords[(1, 2)] == GaussRat(1)
    # the set keeps its own copy, so the caller's dict cannot change it either
    given_coords = {(1, 2): 1, (1, 3): 2, (2, 3): 3}
    ps = PlueckerSet(2, 3, given_coords)
    given_coords[(1, 2)] = 1.5 + 0j
    assert ps.exact and ps.coords[(1, 2)] == 1


def test_constructors_check_each_field():
    for left in ((), [1, 2], (0, 1), (2, 1), (1, True), (1.0,), (1, 10**5000, 3)):
        with pytest.raises(IndexOutOfRange):
            Bipartition(left)
    assert Bipartition((1, 10**5000)).left == (1, 10**5000)  # the bound m is the caller's
    for k, n in ((0, 4), (4, 4), (2.0, 4), (True, 4), (2, "4"), (BIG, BIG)):
        with pytest.raises(ShapeError):
            PlueckerSet(k, n, {})
    for key in ((1,), (2, 1), (1, 1), (0, 2), (1, 5), (True, 2), (1, 2.0), "ab", 12, (np.int64(1), 2)):
        with pytest.raises(IndexOutOfRange, match="coords key"):
            PlueckerSet(2, 4, {(3, 4): 1, key: 1})
    # the keys are read once, in insertion order, and the first bad one is named
    with pytest.raises(IndexOutOfRange, match=re.escape("coords key (2, 1) is not")):
        PlueckerSet(2, 4, {(3, 4): 1, (2, 1): 1, (0, 2): 1})
    # an int subclass other than bool is an int (``is_int``), as Bipartition and PlueckerSet.get take it
    one = enum.IntEnum("Mode", "ONE TWO").ONE
    ps = PlueckerSet(2, 4, {(one, 2): 1})
    assert list(ps.coords) == [(1, 2)] and ps.get((2, 1)) == -1
    for bad in ("a", None, True, [1]):
        with pytest.raises(MalformedInput, match=r"coords\[1\]"):
            PlueckerSet(2, 4, {(1, 2): 1, (1, 3): bad})
    with pytest.raises(MalformedInput, match="mapping"):
        PlueckerSet(2, 4, [((1, 2), 1)])
    poly = pluecker_relations(2, 4)[0].poly
    for args in ((poly, [1], (2, 3, 4)), (poly, (1,), None), ("P", (1,), (2, 3, 4))):
        with pytest.raises(MalformedInput):
            PlueckerRelation(*args)
    gens = segre_generators((2, 2)).gens
    with pytest.raises(DimensionMismatch):
        SegreIdeal([2, 2], gens)
    with pytest.raises(DimensionMismatch):
        SegreIdeal((2, 1), gens)
    for bad in (list(gens), gens + ("x",)):
        with pytest.raises(MalformedInput):
            SegreIdeal((2, 2), bad)
    for value, per in ((1, {}), (0.5, [])):
        with pytest.raises(MalformedInput):
            MeasureReport(value, per)


def test_equality_hash_and_repr_are_pinned():
    v = values_of_each_type()
    b, ideal, rel, report, ps = (v[name] for name in v)
    assert repr(b) == "Bipartition(left=(1, 3))"
    assert hash(b) == hash(((1, 3),)) and b == Bipartition((1, 3))
    assert b != Bipartition((1,)) and b != (1, 3)
    assert repr(ideal) == "SegreIdeal(dims=(2, 2), gens=(MultiPoly(a[00]*a[11] - a[01]*a[10]),))"
    assert hash(ideal) == hash(((2, 2), ideal.gens)) and ideal == segre_generators((2, 2))
    assert repr(rel) == ("PlueckerRelation(poly=MultiPoly(P[1,2]*P[3,4] - P[1,3]*P[2,4] + P[1,4]*P[2,3]), "
                         "I=(1,), J=(2, 3, 4))")
    assert hash(rel) == hash((rel.poly, rel.I, rel.J)) and rel == pluecker_relations(2, 4)[0]
    assert rel != PlueckerRelation(rel.poly, rel.I, (1, 3, 4))
    assert repr(report) == "MeasureReport(value=1.0, per_bipartition={Bipartition(left=(1,)): 0.25})"
    assert report == MeasureReport(1.0, {Bipartition((1,)): 0.25})
    assert repr(ps) == ("PlueckerSet(k=2, N=3, coords=mappingproxy({(1, 2): GaussRat(1, 0), "
                        "(1, 3): GaussRat(3, 0), (2, 3): GaussRat(-2, 0)}))")
    assert ps == PlueckerSet(2, 3, dict(ps.coords)) and ps != PlueckerSet(2, 3, {})
    for unhashable in (report, ps):
        with pytest.raises(TypeError):
            hash(unhashable)
    # one rule across the types: a value equals only values of its own type
    assert Bipartition((1,)) != StateVar((1,)) and ideal != rel


def clones(value):
    return pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)


@pytest.mark.parametrize("name", sorted(values_of_each_type()))
def test_clones_are_rebuilt_through_the_constructor(monkeypatch, name):
    value = values_of_each_type()[name]
    cls = type(value)
    calls = []
    init = cls.__init__

    def counted(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(cls, "__init__", counted)
    for clone in clones(value):
        assert type(clone) is cls and clone == value and repr(clone) == repr(value)
    assert len(calls) == 3
    with pytest.raises(AttributeError, match="immutable"):
        setattr(value, cls.__slots__[0], None)


def test_pluecker_set_clones_stay_read_only():
    ps = pluecker_coordinates([[1.0, 0, 2], [0, 1, 3]])
    for clone in clones(ps):
        assert not clone.exact and dict(clone.coords) == dict(ps.coords)
        with pytest.raises(TypeError):
            clone.coords[(1, 2)] = GaussRat(1)


# ------------------------------------------------------- num_modes is checked

def test_complement_and_canonicalize_check_the_mode_count():
    b = Bipartition((2,))
    with pytest.raises(IndexOutOfRange):
        b.canonicalize(1)  # mode 2 is not a mode of 1
    with pytest.raises(IndexOutOfRange):
        Bipartition((1, 2)).canonicalize(2)  # not a proper subset
    for bad in (0, -1, 1.5, "x", True):
        with pytest.raises(DimensionMismatch):
            b.canonicalize(bad)
        with pytest.raises(DimensionMismatch):
            b.complement(bad)
    for huge in (13, 10**6, BIG):
        with pytest.raises(TooLarge) as exc:
            b.complement(huge)
        assert len(str(exc.value)) <= SHORT
    assert b.complement(3) == (1, 3) and b.canonicalize(3) == Bipartition((1, 3))
    with pytest.raises(DimensionMismatch):
        make_bipartition([1], "x")


# ------------------------------------- huge ints and long inputs, short messages

@pytest.fixture
def state():
    return make_state([2, 2], [1.0, 0.5, 0, 1])


@pytest.fixture
def product():
    return make_state([2, 2], [1, 0, 0, 0])


BOUNDED = {
    "offset": (lambda s, p: s.offset((BIG, 0)), IndexOutOfRange),
    "amplitude": (lambda s, p: s.amplitude((0, BIG)), IndexOutOfRange),
    "permute_modes-huge": (lambda s, p: permute_modes(s, [BIG, 1]), IndexOutOfRange),
    "permute_modes-long": (lambda s, p: permute_modes(s, list(range(100000))), IndexOutOfRange),
    "pluecker_measure": (lambda s, p: pluecker_measure(s, pivot=BIG), IndexOutOfRange),
    "apply_local_unitary": (lambda s, p: apply_local_unitary(s, BIG, np.eye(2)), IndexOutOfRange),
    "is_fully_separable": (lambda s, p: is_fully_separable(s, BIG), MalformedInput),
    "is_bipartite_separable": (lambda s, p: is_bipartite_separable(s, Bipartition((1,)), BIG), MalformedInput),
    "local_factors": (lambda s, p: local_factors(p, BIG), MalformedInput),
}


@pytest.mark.parametrize("name", sorted(BOUNDED))
def test_huge_or_long_inputs_give_short_messages(state, product, name):
    call, error = BOUNDED[name]
    with pytest.raises(error) as exc:
        call(state, product)
    assert len(str(exc.value)) <= SHORT


# inputs that ended in a bare TypeError, ValueError, OverflowError or
# AttributeError, or in an unbounded message, before the builders checked them
UNCHECKED_INPUTS = {
    "GaussRat-None": (lambda: GaussRat(None), MalformedInput),
    "GaussRat-inf": (lambda: GaussRat(0, float("inf")), MalformedInput),
    "GaussRat-complex": (lambda: GaussRat(1j), MalformedInput),
    # a bool is not an exact scalar (gaussrat.exact_scalar), as make_state and evaluate refuse it
    "GaussRat-bool": (lambda: GaussRat(True), MalformedInput),
    "GaussRat-bool-imaginary-part": (lambda: GaussRat(1, False), MalformedInput),
    "MultiPoly-bool-coefficient": (lambda: MultiPoly({Monomial(()): True}), MalformedInput),
    "make_state-not-iterable": (lambda: make_state([2], 5), MalformedInput),
    "make_local-not-sized": (lambda: make_local(5), MalformedInput),
    "make_bipartition-not-iterable": (lambda: make_bipartition(5, 3), IndexOutOfRange),
    "make_bipartition-long-mode": (lambda: make_bipartition(["x" * 10**5], 3), IndexOutOfRange),
    "Flattening-huge-rows": (lambda: Flattening(BIG, 2, [[1, 2]]), ShapeError),
    "flatten-not-a-bipartition": (lambda: flatten(make_state([2, 2], [1, 0, 0, 1]), (1,)), IndexOutOfRange),
    "Monomial-not-a-variable": (lambda: Monomial([(5, 1)]), MalformedInput),
    "Monomial-not-pairs": (lambda: Monomial([StateVar((0,))]), MalformedInput),
    "Monomial-not-iterable": (lambda: Monomial(5), MalformedInput),
    "Monomial-nested-long-strings": (lambda: Monomial([[["7" * 5000] * 3] * 3] * 3), MalformedInput),
    "StateVar-huge-entry-in-list": (lambda: StateVar(([BIG],)), IndexOutOfRange),
    "PureState-object-ints": (lambda: PureState(np.array([[1, 0], [0, 1]], dtype=object)), MalformedInput),
    "LocalState-object-ints": (lambda: LocalState(np.array([1, 2], dtype=object)), MalformedInput),
    "PureState-not-an-array": (lambda: PureState([[1, 0], [0, 1]]), MalformedInput),
    "LocalState-not-an-array": (lambda: LocalState(5), MalformedInput),
    "MultiPoly-str-key": (lambda: MultiPoly({"x": 1}), MalformedInput),
    "MultiPoly-not-a-mapping": (lambda: MultiPoly(5), MalformedInput),
    "MultiPoly-zero-not-a-mapping": (lambda: MultiPoly(0), MalformedInput),
    # a variable's text grows with its index; messages print a bounded prefix of it
    "Monomial-exponent-on-long-variable": (lambda: Monomial([(StateVar((0,) * 100000), -1)]), IndexOutOfRange),
    "evaluate-long-missing-variable": (lambda: evaluate(to_multipoly(sv(*(0,) * 100000)), {}),
                                       MissingVariable),
    "check_relations-long-missing-variable": (lambda: check_relations(PlueckerSet(200, 201, {})),
                                              MissingVariable),
}


@pytest.mark.parametrize("name", sorted(UNCHECKED_INPUTS))
def test_unchecked_inputs_raise_short_qsegre_errors(name):
    build, error = UNCHECKED_INPUTS[name]
    with pytest.raises(error) as exc:
        build()
    assert len(str(exc.value)) <= SHORT


def test_tol_past_the_float_range_is_malformed(product):
    for tol in (BIG, 10**400, Fraction(10**400, 3), -BIG):
        with pytest.raises(MalformedInput, match="tol"):
            is_fully_separable(product, tol)
    assert is_fully_separable(product, 10**300)  # within the float range


# ---------------------------------------------------------------------- fuzz

scalars = st.one_of(
    st.integers(-3, 3),
    st.integers(),
    # powers of ten past 2**64, the float range and str()'s digit limit, built by
    # a map: hypothesis prints its strategies, and str() refuses the last one
    st.sampled_from([20, 400, 5000]).map(lambda e: 10**e),
    st.sampled_from([20, 400, 5000]).map(lambda e: -10**e),
    st.booleans(),
    st.floats(),
    st.complex_numbers(),
    st.fractions(),
    st.builds(GaussRat, st.fractions(max_denominator=9), st.fractions(max_denominator=9)),
    st.text(max_size=4),
    st.just(5000).map(lambda n: "7" * n),
    st.none(),
    st.binary(max_size=2),
)
dtypes = st.sampled_from([np.bool_, np.int8, np.int64, np.uint64, np.float16, np.float32, np.float64,
                          np.complex64, np.complex128, "U2", "M8[D]"])
arrays = st.one_of(
    hnp.arrays(dtypes, hnp.array_shapes(min_dims=0, max_dims=3, max_side=3)),
    st.lists(scalars, max_size=6).map(lambda xs: np.array(xs, dtype=object)),
)
keys = st.one_of(st.tuples(st.integers(-1, 5), st.integers(-1, 5)), st.tuples(st.integers(1, 5)),
                 st.integers(0, 3), st.text(max_size=2), st.booleans())
values = st.recursive(
    st.one_of(scalars, arrays),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(keys, inner, max_size=3)),
    max_leaves=8,
)
numbers = st.one_of(st.integers(-3, 3), st.floats(-2, 2), st.complex_numbers(max_magnitude=2),
                    st.fractions(max_denominator=9), st.builds(GaussRat, st.integers(-2, 2), st.integers(-2, 2)))
small_ints = st.integers(-1, 5)
int_tuples = st.lists(st.integers(-1, 5), max_size=4).map(tuple)
splits = st.lists(st.integers(1, 6), min_size=1, max_size=4, unique=True).map(sorted).map(tuple)
variables = st.sampled_from([StateVar((0, 1)), StateVar((1, 1)), PluVar((1, 2))])
polys = st.sampled_from([MultiPoly(), to_multipoly(add(2)), to_multipoly(pv(1, 2))])
monomials = st.sampled_from([Monomial(()), Monomial(((StateVar((0, 1)), 1),)), Monomial(((PluVar((1, 2)), 2),))])
# arrays in either backend's dtype, or object arrays of anything numbers draws
state_arrays = st.one_of(
    hnp.arrays(np.complex128, hnp.array_shapes(min_dims=1, max_dims=3, max_side=3)),
    st.lists(numbers, min_size=1, max_size=6).map(lambda xs: np.array(xs, dtype=object)),
    st.lists(st.builds(GaussRat, st.integers(-2, 2), st.integers(-2, 2)), min_size=1, max_size=6)
    .map(lambda xs: np.array(xs, dtype=object)),
)


def args(*specific):
    """Each argument of its own type or, as often, any value at all."""
    return st.tuples(*(st.one_of(arg, values) for arg in specific))


@st.composite
def state_args(draw):
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    n = int(np.prod(dims))
    return dims, draw(st.lists(numbers, min_size=n, max_size=n))


@st.composite
def flattening_args(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return rows, cols, draw(st.lists(st.lists(numbers, min_size=cols, max_size=cols), min_size=rows, max_size=rows))


@st.composite
def pluecker_set_args(draw):
    n = draw(st.integers(2, 5))
    k = draw(st.integers(1, n - 1))
    subsets = draw(st.lists(st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True).map(sorted).map(tuple),
                            max_size=4))
    return k, n, {subset: draw(numbers) for subset in subsets}


# each builder with strategies for its whole argument tuple: one that mostly
# builds, and one that draws each argument from its own type or from anything
BUILDERS = {
    "make_state": (make_state, state_args() | args(st.lists(st.integers(1, 3), max_size=3), st.lists(scalars))),
    "make_local": (make_local, args(st.lists(numbers, min_size=2, max_size=3) | st.lists(scalars, max_size=3))),
    "make_bipartition": (make_bipartition, args(splits | int_tuples, small_ints)),
    "Flattening": (Flattening, flattening_args() | args(small_ints, small_ints, st.lists(st.lists(scalars)))),
    "GaussRat": (GaussRat, args(numbers | scalars, numbers | scalars)),
    "StateVar": (StateVar, args(int_tuples)),
    "PluVar": (PluVar, args(splits | int_tuples)),
    "Monomial": (Monomial, args(st.lists(st.tuples(variables, small_ints) | st.tuples(values, values), max_size=3))),
    "Bipartition": (Bipartition, args(splits | int_tuples)),
    "PlueckerSet": (PlueckerSet, pluecker_set_args()
                    | args(small_ints, small_ints, st.dictionaries(int_tuples | keys, scalars, max_size=4))),
    "PureState": (PureState, args(state_arrays | arrays)),
    "LocalState": (LocalState, args(state_arrays | arrays)),
    "MultiPoly": (MultiPoly, args(st.none() | st.dictionaries(monomials | keys, numbers | scalars, max_size=3))),
    "PlueckerRelation": (PlueckerRelation, args(polys, int_tuples, int_tuples)),
    "SegreIdeal": (SegreIdeal, args(int_tuples, st.lists(polys, max_size=2).map(tuple))),
    "MeasureReport": (MeasureReport, args(st.floats(), st.dictionaries(splits.map(Bipartition), st.floats()))),
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(BUILDERS)), st.data())
def test_constructors_give_a_value_or_a_short_qsegre_error(name, data):
    build, arguments = BUILDERS[name]
    try:
        build(*data.draw(arguments, label=f"{name} arguments"))
    except QsegreError as exc:
        assert len(str(exc)) <= SHORT
