"""Byte-for-byte golden output of the Segre ideal and the Plucker relations.

Each file under ``tests/golden/`` holds one family as printed: one
``format_poly`` line per Segre generator, and one ``I | J | poly`` line per
Plucker relation, in the library's order.  Regenerate only on purpose:

    PYTHONPATH=src python tests/test_golden_families.py
"""

from pathlib import Path

import pytest

from qsegre import format_poly, pluecker_relations, segre_generators

GOLDEN = Path(__file__).resolve().parent / "golden"

SEGRE_DIMS = ((2, 2, 2), (2, 2, 2, 2), (3, 3, 3), (2, 3, 4), (2, 2, 2, 2, 2))
PLUECKER_SHAPES = ((2, 4), (2, 5), (3, 6), (2, 8))


def _ints(t) -> str:
    return ",".join(map(str, t))


def segre_lines(dims) -> str:
    return "".join(format_poly(g) + "\n" for g in segre_generators(dims).gens)


def pluecker_lines(k: int, n: int) -> str:
    return "".join(f"{_ints(r.I)} | {_ints(r.J)} | {format_poly(r.poly)}\n"
                   for r in pluecker_relations(k, n))


def segre_path(dims) -> Path:
    return GOLDEN / f"segre_{'x'.join(map(str, dims))}.txt"


def pluecker_path(k: int, n: int) -> Path:
    return GOLDEN / f"pluecker_{k}_{n}.txt"


@pytest.mark.parametrize("dims", SEGRE_DIMS, ids=lambda d: "x".join(map(str, d)))
def test_segre_generators_match_golden(dims):
    assert segre_lines(dims).encode() == segre_path(dims).read_bytes()


@pytest.mark.parametrize("shape", PLUECKER_SHAPES, ids=lambda s: f"{s[0]}_{s[1]}")
def test_pluecker_relations_match_golden(shape):
    assert pluecker_lines(*shape).encode() == pluecker_path(*shape).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for dims in SEGRE_DIMS:
        segre_path(dims).write_bytes(segre_lines(dims).encode())
    for k, n in PLUECKER_SHAPES:
        pluecker_path(k, n).write_bytes(pluecker_lines(k, n).encode())
