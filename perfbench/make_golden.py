#!/usr/bin/env python3
"""Record the benchmark's golden outputs from the qsegre in ``src/``.

    python3 perfbench/make_golden.py

Writes ``perfbench/golden.json``: generator and relation counts with the
sha256 of each formatted family, the sha256 of the exact CLI outputs, and
the float CLI values the numeric checks compare against.  Run it only when
a change of output is intended; the benchmark fails on any difference.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import qsegre as q  # noqa: E402

from oracles import (  # noqa: E402
    DIGEST_COMMANDS, GOLDEN_PATH, RELATION_KN, SEGRE_DIMS, SEGRE_MAP_FACTORS, digest, dims_label,
)
from worker import git_commit  # noqa: E402

EXPECTED_GENERATORS = [12, 100, 243, 174, 720, 4816]
EXPECTED_RELATIONS = [15, 45, 210, 700, 1316]


def cli(args, workdir: Path) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-m", "qsegre.cli", *args], env=env, cwd=workdir,
                         capture_output=True, check=True, timeout=120)
    return out.stdout


def main() -> int:
    golden: dict = {"commit": git_commit(), "segre_generators": {}, "pluecker_relations": {}}
    for dims, want in zip(SEGRE_DIMS, EXPECTED_GENERATORS):
        gens = q.segre_generators(dims).gens
        assert len(gens) == want, (dims, len(gens))
        golden["segre_generators"][dims_label(dims)] = {
            "count": len(gens), "sha256": digest(q.format_poly(p) for p in gens)}
    for (k, n), want in zip(RELATION_KN, EXPECTED_RELATIONS):
        rels = q.pluecker_relations(k, n)
        assert len(rels) == want, (k, n, len(rels))
        golden["pluecker_relations"][f"{k}-{n}"] = {
            "count": len(rels), "sha256": digest(q.format_poly(r.poly) for r in rels)}

    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        tmp = Path(tmp)
        (tmp / "factors.json").write_text(json.dumps(SEGRE_MAP_FACTORS) + "\n")
        s3 = 1 / math.sqrt(3)
        w3 = [[0.0, 0.0]] * 8
        w3[1] = w3[2] = w3[4] = [s3, 0.0]
        (tmp / "w3.json").write_text(json.dumps({"dims": [2, 2, 2], "amps": w3}))
        (tmp / "bell.json").write_text(json.dumps({"dims": [2, 2], "amps": [[1, 0], [0, 0], [0, 0], [1, 0]]}))
        ghz = [[0, 0]] * 8
        ghz[0] = ghz[7] = [1, 0]
        (tmp / "ghz3.json").write_text(json.dumps({"dims": [2, 2, 2], "amps": ghz}))
        report = json.loads(cli(["gen-concurrence", "--state", "w3.json"], tmp))
        golden["cli"] = {
            "segre-map": hashlib.sha256(cli(["segre-map", "--factors", "factors.json"], tmp)).hexdigest(),
            **{name: hashlib.sha256(cli(args, tmp)).hexdigest() for name, args in DIGEST_COMMANDS.items()},
            "bell_concurrence": json.loads(cli(["concurrence", "--state", "bell.json"], tmp))["value"],
            "ghz3_pluecker_measure": json.loads(cli(["pluecker-measure", "--state", "ghz3.json"], tmp))["value"],
            "w3_gen_concurrence": report["value"],
            "w3_term": report["per_bipartition"][0]["term"],
        }
    assert golden["cli"]["segre-ideal"] == golden["segre_generators"]["2-2-2"]["sha256"]
    assert abs(golden["cli"]["w3_gen_concurrence"] - 2 * math.sqrt(2 / 9)) < 1e-12
    assert abs(golden["cli"]["w3_term"] - 2 / 9) < 1e-12
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
