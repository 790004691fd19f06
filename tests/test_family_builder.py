"""The unchecked construction path against the public constructors.

``segre_generators`` and ``pluecker_relations`` build their polynomials from
integer term arrays through ``poly._pair_polys``, and they, ``_pair_polys``
and ``pluecker_coordinates`` make their values through
``gaussrat._unchecked``, which skips the constructors' checks.  Every value
made that way must be the one the public constructors build from the same
arguments, down to keys, texts, hashes, pickles, copies and reprs, with a
polynomial's terms stored in key order as the constructor stores them.  The
builder also shares one factor tuple and one key part per variable among the
monomials that hold it, and one (monomial, coefficient) pair per signed
monomial among the polynomials that hold it, which the tests count by
identity, and it hashes no monomial, which a test counts too.
"""

import copy
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsegre import (GaussRat, Monomial, MultiPoly, PlueckerRelation, PluVar, SegreIdeal, StateVar, format_poly,
                    pluecker_coordinates, pluecker_relations, segre_generators)
from qsegre.gaussrat import Keyed
from qsegre.grassmann import PlueckerSet, _drop_table, _relation_family, _relation_terms
from qsegre.poly import _pair_polys
from qsegre.sampling import default_rng, random_exact_matrix
from qsegre.segre import _minor_keys
from test_golden_families import DIGESTS, PLUECKER_SHAPES, SEGRE_DIMS

# the golden files' shapes and those pinned by digest: segre_2x2x2x2x2x2, pluecker_4_8
GOLDEN_SEGRE = SEGRE_DIMS + tuple(tuple(map(int, name[len("segre_"):].split("x"))) for name in DIGESTS
                                  if name.startswith("segre_"))
GOLDEN_PLUECKER = PLUECKER_SHAPES + tuple(tuple(map(int, name.split("_")[1:])) for name in DIGESTS
                                          if name.startswith("pluecker_"))


def reference(variables, rows):
    """The polynomial of terms (a, b, c) through the public constructors."""
    return MultiPoly({Monomial(((variables[a], 1), (variables[b], 1))): GaussRat(c) for a, b, c in rows})


def assert_same(built: list[MultiPoly], expected: list[MultiPoly]):
    assert built == expected
    assert [hash(p) for p in built] == [hash(p) for p in expected]
    assert [repr(p) for p in built] == [repr(p) for p in expected]  # format_poly's line, wrapped
    for p, q in zip(built, expected):
        assert list(p.terms) == sorted(p.terms, key=Monomial.key)  # stored in key order
        assert list(p.terms) == list(q.terms)  # the same monomials in the same order
        for got, want in zip(p.terms, q.terms):
            assert got.key() == want.key() and got.text == want.text and hash(got) == hash(want)
            assert got.factors == want.factors
        assert all(c in (GaussRat(1), GaussRat(-1)) for c in p.terms.values())
        assert copy.copy(p) == p
    monos = [m for p in built for m in p.terms]
    assert pickle.loads(pickle.dumps(built)) == built and pickle.loads(pickle.dumps(monos)) == monos
    assert [copy.copy(m) for m in monos] == monos
    assert_shares_atoms(built)
    assert_shares_pairs(built)


def assert_shares_atoms(polys: list[MultiPoly]):
    """One monomial object per distinct monomial, and one factor tuple ``(v, 1)``
    and one key part ``(v.key(), 1)`` per variable used, shared by its monomials."""
    monos = {id(m): m for p in polys for m in p.terms}.values()
    used = {v for m in monos for v, _ in m.factors}
    assert len(monos) == len(set(monos))
    assert len({id(factor) for m in monos for factor in m.factors}) == len(used)
    assert len({id(part) for m in monos for part in m.key()}) == len(used)


def assert_shares_pairs(polys: list[MultiPoly]):
    """One stored ``(monomial, coefficient)`` pair object per distinct signed
    monomial, shared by every polynomial that holds the term."""
    pairs = {id(t): t for p in polys for t in p._terms}.values()
    assert len(pairs) == len(set(pairs))


def assert_same_value(built, expected):
    """A value made without its constructor's checks against the constructor's."""
    assert type(built) is type(expected) and built == expected and built.key() == expected.key()
    assert repr(built) == repr(expected) and built._hash is None
    assert pickle.loads(pickle.dumps(built)) == built == copy.copy(built) == copy.deepcopy(built)


def check_segre(dims):
    variables = [StateVar(index) for index in itertools.product(*(range(d) for d in dims))]
    ideal = segre_generators(dims)
    keys = _minor_keys(dims).tolist()
    assert len(ideal.gens) == len(keys)
    expected = [reference(variables, ((p, q, 1), (r, s, -1))) for p, q, r, s in keys]
    assert_same(list(ideal.gens), expected)
    assert_same_value(ideal, SegreIdeal(tuple(dims), tuple(expected)))
    assert hash(ideal) == hash(SegreIdeal(tuple(dims), tuple(expected)))


def check_pluecker(k, n):
    variables = [PluVar(subset) for subset in itertools.combinations(range(1, n + 1), k)]
    rels = pluecker_relations(k, n)
    a, b, c, rel, pairs = _relation_terms(k, n)
    assert [(r.I, r.J) for r in rels] == list(pairs)
    rows = list(zip(a.tolist(), b.tolist(), c.tolist()))
    bounds = np.searchsorted(rel, range(len(pairs) + 1)).tolist()
    expected = [reference(variables, rows[i:j]) for i, j in zip(bounds, bounds[1:])]
    assert_same([r.poly for r in rels], expected)
    for rel, poly, (I, J) in zip(rels, expected, pairs):
        assert_same_value(rel, PlueckerRelation(poly, I, J))
        assert hash(rel) == hash(PlueckerRelation(poly, I, J))


def test_golden_segre_families_match_the_constructors():
    for dims in GOLDEN_SEGRE:
        check_segre(dims)


def test_golden_pluecker_families_match_the_constructors():
    for k, n in GOLDEN_PLUECKER:
        check_pluecker(k, n)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(2, 4), min_size=2, max_size=4).filter(lambda d: np.prod(d) <= 36))
def test_random_segre_families_match_the_constructors(dims):
    check_segre(tuple(dims))


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 8).flatmap(lambda n: st.tuples(st.integers(1, n - 1), st.just(n))))
def test_random_pluecker_families_match_the_constructors(kn):
    check_pluecker(*kn)


def test_shared_atoms_are_counted_by_identity():
    x, y, z = StateVar((0,)), StateVar((1,)), StateVar((2,))
    shared = _pair_polys([x, y, z], np.array([0, 0, 1]), np.array([1, 2, 2]), np.array([1, -1, 1]), [0, 2, 3])
    assert_shares_atoms(shared)
    # the public constructor makes a factor tuple per monomial: x's two are not shared
    fresh = [reference([x, y, z], [(0, 1, 1), (0, 2, -1)]), reference([x, y, z], [(1, 2, 1)])]
    assert fresh == shared
    with pytest.raises(AssertionError):
        assert_shares_atoms(fresh)


def test_shared_pairs_are_counted_by_identity():
    # +a[0]*a[1] in two polynomials, a[0]*a[2] and a[1]*a[2] with both signs: five signed monomials
    x, y, z = StateVar((0,)), StateVar((1,)), StateVar((2,))
    rows = [[(0, 1, 1), (0, 2, -1)], [(0, 1, 1), (1, 2, -1)], [(0, 2, 1), (1, 2, 1)]]
    a, b, c = (np.array([term[i] for poly in rows for term in poly]) for i in range(3))
    shared = _pair_polys([x, y, z], a, b, c, [0, 2, 4, 6])
    assert len({id(t) for p in shared for t in p._terms}) == 5
    assert_shares_pairs(shared)
    # the public constructor makes a pair per term: +a[0]*a[1]'s two are not shared
    fresh = [reference([x, y, z], poly) for poly in rows]
    assert fresh == shared
    with pytest.raises(AssertionError):
        assert_shares_pairs(fresh)


def test_family_builds_hash_no_monomial(monkeypatch):
    calls = []

    def counted_hash(self):
        calls.append(self)
        return hash(self._key)

    monkeypatch.setattr(Keyed, "__hash__", counted_hash)
    mono = Monomial(((StateVar((0,)), 1), (StateVar((1,)), 1)))
    calls.clear()
    assert hash(mono) == hash(mono.key()) and calls == [mono]  # the count sees a monomial's hash
    calls.clear()
    _minor_keys.cache_clear(), _drop_table.cache_clear(), _relation_family.cache_clear()
    for _ in range(2):  # with the integer keys cold, then cached
        segre_generators((2,) * 4)
        pluecker_relations(3, 7)
    assert calls == []


@pytest.mark.parametrize("family", [lambda: list(segre_generators((2,) * 4).gens),
                                    lambda: [r.poly for r in pluecker_relations(3, 6)]],
                         ids=["segre_2x2x2x2", "pluecker_3_6"])
def test_family_polynomials_survive_pickle_and_copy(family):
    polys = family()
    for clones in (pickle.loads(pickle.dumps(polys)), copy.deepcopy(polys), [copy.copy(p) for p in polys]):
        assert clones == polys and [hash(p) for p in clones] == [hash(p) for p in polys]
        assert [list(p.terms.items()) for p in clones] == [list(p.terms.items()) for p in polys]
        assert list(map(format_poly, clones)) == list(map(format_poly, polys))
        assert all(type(clone) is MultiPoly and clone is not p for clone, p in zip(clones, polys))


@pytest.mark.parametrize("k, n", [(1, 2), (1, 5), (2, 5), (3, 6), (4, 5), (6, 7)])
def test_coordinates_equal_the_constructors_set(k, n):
    rng = default_rng(11 * k + n)
    for mat in (random_exact_matrix(rng, k, n), rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))):
        ps = pluecker_coordinates(mat)
        public = PlueckerSet(k, n, dict(ps.coords))
        assert type(ps) is PlueckerSet and ps == public and ps.key() == public.key()
        assert repr(ps) == repr(public) and ps.exact == public.exact == (not isinstance(mat, np.ndarray))
        assert list(ps.coords) == list(itertools.combinations(range(1, n + 1), k))
        with pytest.raises(TypeError):
            ps.coords[(1,) * k] = 0
        with pytest.raises(TypeError):
            hash(ps)
        assert pickle.loads(pickle.dumps(ps)) == ps == copy.copy(ps)
