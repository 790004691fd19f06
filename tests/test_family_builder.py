"""The family builder against the public constructors.

``segre_generators`` and ``pluecker_relations`` build their polynomials from
integer term arrays through ``poly._pair_polys``, which skips the
constructors' checks.  Every polynomial and monomial it builds must be the
one the public ``Monomial`` and ``MultiPoly`` constructors build from the
same terms, down to keys, texts, hashes, pickles and copies, with its terms
stored in key order as the constructor stores them.
"""

import copy
import itertools
import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qsegre import GaussRat, Monomial, MultiPoly, PluVar, StateVar, pluecker_relations, segre_generators
from qsegre.grassmann import _relation_terms
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
        assert list(p._terms) == sorted(p._terms, key=Monomial.key)  # stored in key order
        assert list(p.terms) == list(q.terms)  # the same monomials in the same order
        for got, want in zip(p.terms, q.terms):
            assert got.key() == want.key() and got.text == want.text and hash(got) == hash(want)
            assert got.factors == want.factors
        assert all(c in (GaussRat(1), GaussRat(-1)) for c in p.terms.values())
        assert copy.copy(p) == p
    monos = [m for p in built for m in p.terms]
    assert pickle.loads(pickle.dumps(built)) == built and pickle.loads(pickle.dumps(monos)) == monos
    assert [copy.copy(m) for m in monos] == monos


def check_segre(dims):
    variables = [StateVar(index) for index in itertools.product(*(range(d) for d in dims))]
    gens = segre_generators(dims).gens
    keys = _minor_keys(dims).tolist()
    assert len(gens) == len(keys)
    assert_same(list(gens), [reference(variables, ((p, q, 1), (r, s, -1))) for p, q, r, s in keys])


def check_pluecker(k, n):
    variables = [PluVar(subset) for subset in itertools.combinations(range(1, n + 1), k)]
    rels = pluecker_relations(k, n)
    a, b, c, rel, pairs = _relation_terms(k, n)
    assert [(r.I, r.J) for r in rels] == list(pairs)
    rows = list(zip(a.tolist(), b.tolist(), c.tolist()))
    bounds = np.searchsorted(rel, range(len(pairs) + 1)).tolist()
    assert_same([r.poly for r in rels], [reference(variables, rows[i:j]) for i, j in zip(bounds, bounds[1:])])


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
