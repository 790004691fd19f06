"""Byte-for-byte golden output of the Segre ideal and the Plucker relations.

Each file under ``tests/golden/`` holds one family as printed: one
``format_poly`` line per Segre generator, and one ``I | J | poly`` line per
Plucker relation, in the library's order.  Regenerate only on purpose:

    PYTHONPATH=src python tests/test_golden_families.py

Larger families are pinned by the sha256 of the same text (``DIGESTS``), and
the ``segre-ideal`` command by the sha256 of its stdout; the script prints
them too.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from qsegre import format_poly, pluecker_relations, segre_generators
from qsegre.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# the last shape of each has a two-digit index, so its printed order is the key
# order and not the text order: a[0,10] after a[02], P[1,10] after P[1,2]
SEGRE_DIMS = ((2, 2, 2), (2, 2, 2, 2), (3, 3, 3), (2, 3, 4), (2, 2, 2, 2, 2), (2, 11))
PLUECKER_SHAPES = ((2, 4), (2, 5), (3, 6), (2, 8), (2, 11))

DIGESTS = {
    "segre_2x2x2x2x2x2": "3f0a0f4e629fc8278eb79b8d335c1e3f922a31741492006d0e9dbaf58d00a9ad",
    "pluecker_3_7": "df2162174b75a00e34b1bea4e36a72f7110fe3ee6f6c5cb5aca8ecf6efddd001",
    "pluecker_3_8": "4c4dca697734dae8279421db6c679ed8ac2feb619b726cc9fb1a2fff274dc2ec",
    "pluecker_4_8": "9f7e3c722865f0b0e1f158dc973f86e0bc6a7bd3c0b457902fe61de18e5de1eb",
}
CLI_DIGESTS = {
    "segre-ideal --dims 2,2,2,2,2,2": "3f0a0f4e629fc8278eb79b8d335c1e3f922a31741492006d0e9dbaf58d00a9ad",
}


def _ints(t) -> str:
    return ",".join(map(str, t))


def segre_lines(dims) -> str:
    return "".join(format_poly(g) + "\n" for g in segre_generators(dims).gens)


def pluecker_lines(k: int, n: int) -> str:
    return "".join(f"{_ints(r.I)} | {_ints(r.J)} | {format_poly(r.poly)}\n"
                   for r in pluecker_relations(k, n))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest_lines(name: str) -> str:
    family, *shape = name.split("_")
    if family == "segre":
        return segre_lines(tuple(map(int, shape[0].split("x"))))
    return pluecker_lines(*map(int, shape))


def cli_stdout(command: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert main(command.split()) == 0
    return out.getvalue()


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


@pytest.mark.parametrize("name", DIGESTS)
def test_large_families_match_digest(name):
    assert sha256(digest_lines(name)) == DIGESTS[name]


@pytest.mark.parametrize("command", CLI_DIGESTS)
def test_cli_stdout_matches_digest(command):
    assert sha256(cli_stdout(command)) == CLI_DIGESTS[command]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for dims in SEGRE_DIMS:
        segre_path(dims).write_bytes(segre_lines(dims).encode())
    for k, n in PLUECKER_SHAPES:
        pluecker_path(k, n).write_bytes(pluecker_lines(k, n).encode())
    for name in DIGESTS:
        print(f'"{name}": "{sha256(digest_lines(name))}",')
    for command in CLI_DIGESTS:
        print(f'"{command}": "{sha256(cli_stdout(command))}",')
