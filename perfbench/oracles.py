"""Reference computations that the output checks compare qsegre against.

Everything here uses numpy, ``fractions`` and ``hashlib`` only, never
qsegre, so a defect in the package cannot hide inside its own check.  Exact
complex numbers are ``(re, im)`` pairs of Fractions.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

EPS = 1e-12  # float outputs must agree with the reference this closely
TOL = 1e-10  # tolerance passed to the separability and factoring calls
GOLDEN_PATH = Path(__file__).with_name("golden.json")

# Fixed exact factors for the CLI segre-map command; its stdout is golden.
SEGRE_MAP_FACTORS = {"factors": [
    [[1, 0], ["1/2", "-1/3"]],
    [["2/3", 1], [0, "-1/4"]],
    [[3, 0], ["1/5", "2/7"]],
]}
# Argument lists of the CLI commands whose stdout is compared by digest.
DIGEST_COMMANDS = {
    "segre-ideal": ["segre-ideal", "--dims", "2,2,2"],
    "pluecker-relations": ["pluecker-relations", "--k", "2", "--n", "5"],
}
SEGRE_DIMS = [(2, 2, 2), (2, 2, 2, 2), (3, 3, 3), (2, 3, 4), (2, 2, 2, 2, 2), (2,) * 6]
RELATION_KN = [(2, 6), (3, 6), (3, 7), (3, 8), (4, 8)]


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def digest(lines) -> str:
    """sha256 of the lines as the CLI prints them, one per line."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8") + b"\n")
    return h.hexdigest()


def dims_label(dims) -> str:
    return "-".join(str(d) for d in dims)


def canonical_splits(m: int) -> list[tuple[int, ...]]:
    """Row groups of the 2^(m-1) - 1 splits that contain mode 1, sorted."""
    rest = range(2, m + 1)
    return sorted((1,) + extra for r in range(m - 1) for extra in itertools.combinations(rest, r))


def minors_enumerated(dims) -> int:
    """2x2 minors over every canonical flattening of a dims-shaped tensor."""
    total = 0
    for left in canonical_splits(len(dims)):
        rows = math.prod(dims[j - 1] for j in left)
        cols = math.prod(dims) // rows
        total += math.comb(rows, 2) * math.comb(cols, 2)
    return total


def ij_pairs(k: int, n: int) -> int:
    """(I, J) index pairs with |I| = k-1 and |J| = k+1 scanned for G(k, n)."""
    return math.comb(n, k - 1) * math.comb(n, k + 1)


def split_term(unit: np.ndarray, dims, left) -> float:
    """sum_{i<j} s_i^2 s_j^2 over the singular values of one flattening."""
    m = len(dims)
    right = [j for j in range(1, m + 1) if j not in left]
    rows = math.prod(dims[j - 1] for j in left)
    perm = [j - 1 for j in left] + [j - 1 for j in right]
    mat = unit.reshape(dims).transpose(perm).reshape(rows, -1)
    s2 = np.linalg.svd(mat, compute_uv=False) ** 2
    return float(np.sum(s2[1:] * np.cumsum(s2)[:-1]))


def unit(amps: np.ndarray) -> np.ndarray:
    return amps / np.linalg.norm(amps)


def concurrence(amps: np.ndarray, dims) -> float:
    """Generalized concurrence: 2 sqrt(mean split term) of the unit state."""
    u = unit(amps)
    terms = [split_term(u, dims, left) for left in canonical_splits(len(dims))]
    return 2.0 * math.sqrt(sum(terms) / len(terms))


def splits_until_fail(amps: np.ndarray, dims, threshold: float) -> int:
    """Splits a short-circuiting full-separability test evaluates."""
    u = unit(amps)
    splits = canonical_splits(len(dims))
    for n, left in enumerate(splits, start=1):
        if split_term(u, dims, left) > threshold:
            return n
    return len(splits)


def outer(vectors) -> np.ndarray:
    out = np.asarray(vectors[0], dtype=np.complex128)
    for v in vectors[1:]:
        out = np.multiply.outer(out, np.asarray(v, dtype=np.complex128))
    return out.reshape(-1)


def phase_residual(amps: np.ndarray, vectors) -> float:
    """max |unit state - lambda * (tensor of vectors)| at the best lambda."""
    h = unit(amps)
    t = outer(vectors)
    lam = np.vdot(t, h) / np.vdot(t, t)
    return float(np.max(np.abs(h - lam * t)))


def cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def exact_outer(vectors) -> list:
    """Exact tensor product, row-major with the first factor most significant."""
    out = []
    for combo in itertools.product(*vectors):
        p = (Fraction(1), Fraction(0))
        for x in combo:
            p = cmul(p, x)
        out.append(p)
    return out


def projectively_equal(amps, vectors) -> bool:
    """True iff amps is exactly a nonzero multiple of the tensor of vectors."""
    prod = exact_outer(vectors)
    if len(prod) != len(amps):
        return False
    pivot = next((i for i, a in enumerate(amps) if a != (0, 0)), None)
    if pivot is None or prod[pivot] == (0, 0):
        return False
    return all(cmul(a, prod[pivot]) == cmul(amps[pivot], p) for a, p in zip(amps, prod))


def maximal_minors(mat: np.ndarray) -> dict[tuple[int, ...], complex]:
    k, n = mat.shape
    return {cols: complex(np.linalg.det(mat[:, [c - 1 for c in cols]]))
            for cols in itertools.combinations(range(1, n + 1), k)}
