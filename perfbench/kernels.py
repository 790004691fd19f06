"""The in-process workloads: float-measures, exact-certify and algebra-gen.

Each workload builds rounds of operations from a numpy Generator.  A round
has a fixed mix of calls, so ops/s and the latency percentiles compare like
with like across seeds; only the random inputs change.  Inputs are built
before the round runs and never timed.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import qsegre as q

from core import Op, Workload
from oracles import (
    EPS, RELATION_KN, SEGRE_DIMS, TOL, canonical_splits, concurrence, digest, dims_label,
    exact_outer, ij_pairs, load_golden, maximal_minors, minors_enumerated, outer, phase_residual,
    projectively_equal, split_term, splits_until_fail, unit,
)


def _raised(r) -> str | None:
    if isinstance(r, Exception):
        return f"raised {type(r).__name__}: {str(r)[:120]}"
    return None


# Denominators of the exact inputs, used in this order and then shuffled:
# every vector of one length draws on the same multiset, so the size of the
# Fractions, which sets the cost of exact arithmetic, does not vary by seed.
DENOMINATORS = (2, 3, 5, 7, 4, 9, 8, 6, 1)


def _exact_vec(rng, n: int) -> list[tuple[Fraction, Fraction]]:
    """Random exact complex vector; numerators are nonzero in [-9, 9]."""
    dens = rng.permutation(np.resize(DENOMINATORS, 2 * n))
    nums = rng.integers(1, 10, size=2 * n) * rng.choice((-1, 1), size=2 * n)
    parts = [Fraction(int(a), int(b)) for a, b in zip(nums, dens)]
    return list(zip(parts[0::2], parts[1::2]))


def _gauss(pairs) -> list:
    return [q.GaussRat(re, im) for re, im in pairs]


def _pairs(values) -> list[tuple[Fraction, Fraction]]:
    return [(g.re, g.im) for g in values]


def _parts(values):
    for g in values:
        yield g.re
        yield g.im


def _normal(rng, n: int) -> np.ndarray:
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def _expect_not_product(r, tally) -> str | None:
    if not isinstance(r, q.NotProduct):
        return _raised(r) or f"expected NotProduct, got {type(r).__name__}"
    tally.add("states.local_factors.not_product")
    return None


def _expect_bool(r, want: bool) -> str | None:
    if r is not want:
        return _raised(r) or f"returned {r!r}, expected {want}"
    return None


class FloatMeasures(Workload):
    """Float qubit states, half Haar and half product, four measures each."""

    name = "float-measures"
    # Haar/product state pairs per round and qubit count.  Call costs form
    # groups by m and branch; this mix keeps p50 and p90 inside a group
    # rather than on the edge between two.
    pairs = {4: 3, 6: 2, 8: 2, 10: 1}

    def warmup(self, rng) -> list[Op]:
        return self._state_ops(rng, 4, False) + self._state_ops(rng, 4, True)

    def round(self, rng) -> list[Op]:
        return [op for m, count in self.pairs.items() for _ in range(count)
                for product in (False, True) for op in self._state_ops(rng, m, product)]

    def _state_ops(self, rng, m: int, product: bool) -> list[Op]:
        dims = (2,) * m
        if product:
            vecs = [unit(_normal(rng, 2)) for _ in range(m)]
            amps = outer(vecs)
        else:
            amps = unit(_normal(rng, 2 ** m))
        s = q.make_state(dims, [complex(x) for x in amps])
        splits = canonical_splits(m)
        bips = [q.Bipartition(left) for left in splits]
        term1 = split_term(unit(amps), dims, (1,))
        n_ifs = len(splits) if product else splits_until_fail(amps, dims, TOL * TOL)
        key = f"gc-{id(s)}"

        def check_gc(r, st, tally):
            if _raised(r):
                return _raised(r)
            if len(r.per_bipartition) != len(splits):
                return f"{len(r.per_bipartition)} split terms, expected {len(splits)}"
            got = r.per_bipartition.get(q.Bipartition((1,)))
            if got is None or abs(got - term1) > EPS:
                return f"split (1,) term {got!r}, reference {term1!r}"
            if product and not r.value <= EPS:
                return f"product state measures {r.value!r}"
            if not product and not 0 < r.value < 2:
                return f"Haar state measures {r.value!r}"
            return None

        def check_pm(r, st, tally):
            if _raised(r):
                return _raised(r)
            terms = [term1]
            report = st.get(key)
            if isinstance(report, q.MeasureReport):
                terms.append(report.per_bipartition[q.Bipartition((1,))])
            for t in terms:
                if abs(r - 2.0 * math.sqrt(t)) > EPS:
                    return f"pluecker measure {r!r} != 2 sqrt({t!r})"
            return None

        def check_lf(r, st, tally):
            if not product:
                return _expect_not_product(r, tally)
            if _raised(r):
                return _raised(r)
            res = phase_residual(amps, [f.vec for f in r])
            if len(r) != m or not res <= TOL:
                return f"{len(r)} factors rebuild the state to within {res:.3e}"
            return None

        def replay_splits(n):
            def replay(r, st, rp):
                hat = rp.call("states.normalize", q.normalize, s)
                for b in bips[:n]:
                    rp.call("states.flatten", q.flatten, hat, b)
            return replay

        def replay_pm(r, st, rp):
            hat = rp.call("states.normalize", q.normalize, s)
            rp.call("states.flatten", q.flatten, hat, bips[0])

        def replay_lf(r, st, rp):
            rp.call("states.normalize", q.normalize, s)
            h = unit(amps).reshape(dims)
            pivot = np.unravel_index(int(np.argmax(np.abs(h))), dims)
            fibers = []
            for j in range(m):
                index = list(pivot)
                index[j] = slice(None)
                v = unit(h[tuple(index)])
                fibers.append(q.make_local([complex(x) for x in v]))
            rp.call("states.segre_map", q.segre_map, fibers)

        return [
            Op("segre.generalized_concurrence", lambda st: q.generalized_concurrence(s), check_gc,
               rung=f"m{m}", top=(m == 10 and not product), store=key,
               replay=replay_splits(len(splits)),
               counts={"inputs.states": 1, "inputs.product_states": int(product),
                       "segre.splits_evaluated": len(splits)}),
            Op("grassmann.pluecker_measure", lambda st: q.pluecker_measure(s, 1), check_pm,
               replay=replay_pm),
            Op("segre.is_fully_separable", lambda st: q.is_fully_separable(s, TOL),
               lambda r, st, tally: _expect_bool(r, product),
               replay=replay_splits(n_ifs), counts={"segre.splits_evaluated": n_ifs}),
            Op("states.local_factors", lambda st: q.local_factors(s, TOL), check_lf,
               replay=replay_lf),
        ]


class ExactCertify(Workload):
    """Exact Gaussian-rational states: product ones built by segre_map, and
    random entangled ones, each certified three ways."""

    name = "exact-certify"
    # state pairs per round and mode count: the three costly ops at m = 6
    # and m = 5 are then 12% of the mix, which keeps p90 inside the m = 5
    # group rather than on the edge between two groups
    pairs = {3: 4, 4: 1, 5: 1, 6: 1}

    def warmup(self, rng) -> list[Op]:
        return self._product_ops(rng, 3) + self._entangled_ops(rng, 3)

    def round(self, rng) -> list[Op]:
        return [op for m, count in self.pairs.items() for _ in range(count)
                for op in self._product_ops(rng, m) + self._entangled_ops(rng, m)]

    @staticmethod
    def _replay_exact(s, bips):
        def replay(r, st, rp):
            for b in bips:
                f = rp.call("states.flatten", q.flatten, s, b)
                rp.call("segre.minor_sum", q.minor_sum, f)
        return replay

    def _product_ops(self, rng, m: int) -> list[Op]:
        dims = (2,) * m
        vecs = [_exact_vec(rng, 2) for _ in range(m)]
        factors = [q.make_local(_gauss(v)) for v in vecs]
        amps = exact_outer(vecs)
        s = q.make_state(dims, _gauss(amps))
        bips = [q.Bipartition(left) for left in canonical_splits(m)]
        n = len(bips)

        def check_map(r, st, tally):
            if _raised(r):
                return _raised(r)
            if r.dims != dims or _pairs(r.amps) != amps:
                return "segre_map differs from the exact tensor product"
            tally.bits(_parts(r.amps))
            return None

        def check_lf(r, st, tally):
            if _raised(r):
                return _raised(r)
            if len(r) != m or not all(f.exact for f in r):
                return f"expected {m} exact factors"
            if not projectively_equal(amps, [_pairs(f.vec) for f in r]):
                return "factors do not rebuild the state exactly"
            tally.bits(x for f in r for x in _parts(f.vec))
            return None

        def check_gc(r, st, tally):
            if _raised(r):
                return _raised(r)
            if r.value != 0.0 or any(t != 0.0 for t in r.per_bipartition.values()):
                return f"exact product state measures {r.value!r}"
            return None

        return [
            Op("states.segre_map", lambda st: q.segre_map(factors), check_map, exact=True),
            Op("states.local_factors", lambda st: q.local_factors(s, 0), check_lf, exact=True,
               counts={"inputs.states": 1, "inputs.product_states": 1}),
            Op("segre.is_fully_separable", lambda st: q.is_fully_separable(s, 0),
               lambda r, st, tally: _expect_bool(r, True), rung=f"exact-m{m}", top=(m == 6),
               exact=True, replay=self._replay_exact(s, bips),
               counts={"segre.splits_evaluated": n}),
            Op("segre.generalized_concurrence", lambda st: q.generalized_concurrence(s), check_gc,
               exact=True, replay=self._replay_exact(s, bips),
               counts={"segre.splits_evaluated": n}),
        ]

    def _entangled_ops(self, rng, m: int) -> list[Op]:
        dims = (2,) * m
        pairs = _exact_vec(rng, 2 ** m)
        s = q.make_state(dims, _gauss(pairs))
        approx = np.array([complex(float(re), float(im)) for re, im in pairs])
        reference = concurrence(approx, dims)
        bips = [q.Bipartition(left) for left in canonical_splits(m)]
        n_ifs = splits_until_fail(approx, dims, 1e-24)

        def check_gc(r, st, tally):
            if _raised(r):
                return _raised(r)
            if abs(r.value - reference) > EPS:
                return f"measure {r.value!r}, reference {reference!r}"
            return None

        return [
            Op("states.local_factors", lambda st: q.local_factors(s, 0),
               lambda r, st, tally: _expect_not_product(r, tally), exact=True,
               counts={"inputs.states": 1, "inputs.product_states": 0}),
            Op("segre.is_fully_separable", lambda st: q.is_fully_separable(s, 0),
               lambda r, st, tally: _expect_bool(r, False), exact=True,
               replay=self._replay_exact(s, bips[:n_ifs]),
               counts={"segre.splits_evaluated": n_ifs}),
            Op("segre.generalized_concurrence", lambda st: q.generalized_concurrence(s), check_gc,
               exact=True, replay=self._replay_exact(s, bips),
               counts={"segre.splits_evaluated": len(bips)}),
        ]


class AlgebraGen(Workload):
    """The Segre ideal and Pluecker relation families, built, printed, used."""

    name = "algebra-gen"
    # four evaluation states add four ~25 ms calls next to the (3, 6)
    # relation and check calls, so p50 is a median of more like samples
    eval_states = 4
    matrices = ((2, 5), (3, 6), (3, 7))

    def __init__(self) -> None:
        self.golden = load_golden()

    def warmup(self, rng) -> list[Op]:
        return ([self._segre_op((2, 2, 2)), self._relations_op(2, 6),
                 self._format_op("seg", (2, 2, 2)), self._format_op("rel", (2, 6)),
                 self._evaluate_op(rng, (2, 2, 2))]
                + self._matrix_ops(rng, 2, 5, True) + self._matrix_ops(rng, 2, 5, False))

    def round(self, rng) -> list[Op]:
        ops = [self._segre_op(dims) for dims in SEGRE_DIMS]
        ops += [self._relations_op(k, n) for k, n in RELATION_KN]
        ops += [self._format_op("seg", dims) for dims in SEGRE_DIMS]
        ops += [self._format_op("rel", kn) for kn in RELATION_KN]
        ops += [self._evaluate_op(rng, (2, 2, 2, 2)) for _ in range(self.eval_states)]
        for k, n in self.matrices:
            ops += self._matrix_ops(rng, k, n, True) + self._matrix_ops(rng, k, n, False)
        return ops

    def _segre_op(self, dims) -> Op:
        label = dims_label(dims)
        want = self.golden["segre_generators"][label]["count"]

        def check(r, st, tally):
            if _raised(r):
                return _raised(r)
            if len(r.gens) != want:
                return f"{len(r.gens)} generators for {label}, golden {want}"
            tally.add("segre.generators", len(r.gens))
            return None

        return Op("segre.segre_generators", lambda st: q.segre_generators(dims), check,
                  rung=label, top=(dims == (2,) * 6), store=f"seg:{label}",
                  counts={"segre.minors_enumerated": minors_enumerated(dims)})

    def _relations_op(self, k: int, n: int) -> Op:
        label = f"{k}-{n}"
        want = self.golden["pluecker_relations"][label]["count"]

        def check(r, st, tally):
            if _raised(r):
                return _raised(r)
            if len(r) != want:
                return f"{len(r)} relations for G({k},{n}), golden {want}"
            tally.add("grassmann.relations", len(r))
            return None

        return Op("grassmann.pluecker_relations", lambda st: q.pluecker_relations(k, n), check,
                  rung=label, store=f"rel:{label}", counts={"grassmann.ij_pairs": ij_pairs(k, n)})

    def _format_op(self, family: str, shape) -> Op:
        label = dims_label(shape)
        key = f"{family}:{label}"
        section = "segre_generators" if family == "seg" else "pluecker_relations"
        want = self.golden[section][label]["sha256"]

        def call(st):
            polys = st[key].gens if family == "seg" else [rel.poly for rel in st[key]]
            return [q.format_poly(p) for p in polys]

        def check(r, st, tally):
            if _raised(r):
                return _raised(r)
            if digest(r) != want:
                return f"formatted {key} differs from golden"
            tally.add("poly.format_poly.bytes", sum(len(line.encode()) + 1 for line in r))
            return None

        return Op("poly.format_poly", call, check)

    def _evaluate_op(self, rng, dims) -> Op:
        vecs = [_exact_vec(rng, d) for d in dims]
        amps = exact_outer(vecs)
        indices = itertools.product(*(range(d) for d in dims))
        assignment = {q.StateVar(i): q.GaussRat(re, im) for i, (re, im) in zip(indices, amps)}
        key = f"seg:{dims_label(dims)}"

        def check(r, st, tally):
            if _raised(r):
                return _raised(r)
            if len(r) != len(st[key].gens) or any(not isinstance(v, q.GaussRat) or v for v in r):
                return "a generator does not vanish exactly on a product state"
            tally.add("poly.evaluate.calls", len(r))
            return None

        return Op("poly.evaluate", lambda st: [q.evaluate(g, assignment) for g in st[key].gens],
                  check, exact=True)

    def _matrix_ops(self, rng, k: int, n: int, exact: bool) -> list[Op]:
        if exact:
            pairs = [_exact_vec(rng, n) for _ in range(k)]
            mat = [_gauss(row) for row in pairs]
            approx = np.array([[complex(float(re), float(im)) for re, im in row] for row in pairs])
        else:
            mat = approx = np.array([_normal(rng, n) for _ in range(k)])
        reference = maximal_minors(approx)
        scale = max(1.0, max(abs(v) for v in reference.values()))
        key = f"ps:{k}-{n}-{exact}"

        def check_coords(r, st, tally):
            if _raised(r):
                return _raised(r)
            if sorted(r.coords) != sorted(reference):
                return f"coordinate subsets differ for G({k},{n})"
            worst = max(abs(complex(r.coords[c]) - reference[c]) for c in reference)
            if worst > EPS * scale:
                return f"coordinates differ from the determinants by {worst:.3e}"
            if exact:
                tally.bits(_parts(r.coords.values()))
            return None

        def check_relations(r, st, tally):
            if _raised(r):
                return _raised(r)
            if exact and not (isinstance(r, Fraction) and r == 0):
                return f"exact minors violate a relation by {r!r}"
            if not exact and not r <= EPS * scale * scale:
                return f"float minors violate a relation by {r!r}"
            return None

        def replay_check(r, st, rp):
            rels = rp.call("grassmann.pluecker_relations", q.pluecker_relations, k, n)
            rp.tally.add("grassmann.relations", len(rels))
            rp.tally.add("poly.evaluate.calls", len(rels))
            assignment = {q.PluVar(i): v for i, v in st[key].coords.items()}
            for rel in rels:
                rp.call("poly.evaluate", q.evaluate, rel.poly, assignment)

        return [
            Op("grassmann.pluecker_coordinates", lambda st: q.pluecker_coordinates(mat),
               check_coords, exact=exact, store=key),
            Op("grassmann.check_relations", lambda st: q.check_relations(st[key]),
               check_relations, exact=exact, replay=replay_check,
               counts={"grassmann.ij_pairs": ij_pairs(k, n)}),
        ]


WORKLOADS = {w.name: w for w in (FloatMeasures, ExactCertify, AlgebraGen)}
