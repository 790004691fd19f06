"""Reference implementations the tests compare the package against.

``minor_sum_direct`` enumerates every 2x2 minor, the oracle for both
``minor_sum`` kernels, and ``state_assignment`` maps a state's amplitude
variables to its values, the point at which the Segre generators are
evaluated.

The rest is a plain polynomial that shares no code with ``MultiPoly``: a dict
from monomial to coefficient, where a monomial is a sorted tuple of
(variable key, exponent) pairs, a variable key is ``("a", index)`` for an
amplitude and ``("P", subset)`` for a Plucker coordinate, as the package's
``key()`` reads, and zero coefficients are dropped.  The family oracles build
the Segre generators and the Plucker relations with it, and the tests compare
them with the package's term by term (:func:`term_rows` against
:func:`poly_rows`) and as text (:func:`render` against ``format_poly``).
Hand-built test polynomials are written in it and turned into a ``MultiPoly``
by :func:`to_multipoly`, through the public constructors.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from qsegre import Flattening, Monomial, MultiPoly, PluVar, PureState, StateVar
from qsegre.gaussrat import Scalar


def state_assignment(s: PureState) -> dict[StateVar, Scalar]:
    """Map each amplitude variable to the state's value there."""
    indices = itertools.product(*(range(d) for d in s.dims))
    return {StateVar(index): a for index, a in zip(indices, s.amps)}


def minor_sum_direct(f: Flattening):
    """Brute-force enumeration of all 2x2 minors; oracle for minor_sum."""
    if f.exact:
        total = Fraction(0)
        for (i, ri), (j, rj) in itertools.combinations(enumerate(f.entries), 2):
            for k, l in itertools.combinations(range(f.cols), 2):
                total += (ri[k] * rj[l] - ri[l] * rj[k]).abs_sq()
        return total
    mat = f.entries
    total = 0.0
    for i, j in itertools.combinations(range(f.rows), 2):
        for k, l in itertools.combinations(range(f.cols), 2):
            total += abs(mat[i, k] * mat[j, l] - mat[i, l] * mat[j, k]) ** 2
    return total


def sv(*index) -> dict:
    """The amplitude variable a[index]."""
    return {((("a", index), 1),): 1}


def pv(*subset) -> dict:
    """The Plucker coordinate P[subset]."""
    return {((("P", subset), 1),): 1}


def _poly(x) -> dict:
    return x if isinstance(x, dict) else {(): x} if x else {}


def add(*ps) -> dict:
    """The sum of polynomials and numbers."""
    out = {}
    for p in map(_poly, ps):
        for m, c in p.items():
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def mul(*ps) -> dict:
    """The product of polynomials and numbers."""
    out = {(): 1}
    for p in map(_poly, ps):
        prod = {}
        for (m1, c1), (m2, c2) in itertools.product(out.items(), p.items()):
            exps = dict(m1)
            for v, e in m2:
                exps[v] = exps.get(v, 0) + e
            m = tuple(sorted(exps.items()))
            prod[m] = prod.get(m, 0) + c1 * c2
        out = {m: c for m, c in prod.items() if c}
    return out


def first_positive(p: dict) -> dict:
    """p or -p, whichever has a positive first coefficient, for real coefficients."""
    return mul(-1, p) if p and p[min(p)] < 0 else p


def term_rows(p: dict) -> tuple:
    """A polynomial with real coefficients as ((monomial, (re, im)), ...) in key order."""
    return tuple((m, (c, 0)) for m, c in sorted(p.items()))


def poly_rows(p: MultiPoly) -> tuple:
    """A MultiPoly's terms as ((monomial key, (re, im)), ...) in stored order."""
    return tuple((m.key(), (c.re, c.im)) for m, c in p.terms.items())


def _var_text(kind: str, index: tuple) -> str:
    sep = "," if kind == "P" or max(index) > 9 else ""
    return f"{kind}[{sep.join(map(str, index))}]"


def render(p: dict) -> str:
    """The line format of a polynomial whose coefficients are 1 and -1."""
    text = ""
    for m, c in sorted(p.items()):
        mono = "*".join(_var_text(*v) + (f"^{e}" if e > 1 else "") for v, e in m)
        sign = "-" if c < 0 else "+"
        text += f" {sign} {mono}" if text else mono if c > 0 else f"-{mono}"
    return text or "0"


_VARIABLES = {"a": StateVar, "P": PluVar}


def to_multipoly(p: dict) -> MultiPoly:
    """A polynomial as a MultiPoly, built by the public constructors."""
    return MultiPoly({Monomial((_VARIABLES[kind](index), e) for (kind, index), e in m): c for m, c in p.items()})
