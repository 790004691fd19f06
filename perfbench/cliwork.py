"""The cli-oneshot workload: one ``python -m qsegre.cli`` process per call.

The fixtures are written once per run from the seed.  Exact outputs are
compared with golden digests, float outputs numerically.  The untraced run
never imports qsegre in the benchmark process; the traced run replays each
command in process through ``qsegre.cli.main`` with stdout captured.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from core import Op, Workload
from oracles import EPS, SEGRE_MAP_FACTORS, DIGEST_COMMANDS, TOL, load_golden, outer, phase_residual, unit

CALL_TIMEOUT_S = 60


@dataclass
class Command:
    label: str
    args: list[str]
    code: int
    check: Callable[[bytes], str | None]
    state: Path | None = None
    product: bool = False


def _json(stdout: bytes):
    return json.loads(stdout.decode("utf-8"))


def _close(got, want) -> bool:
    return isinstance(got, float) and abs(got - want) <= EPS


class CliOneshot(Workload):
    name = "cli-oneshot"
    spawns_processes = True
    top_label = "gen-concurrence"

    def __init__(self, root: Path, env: dict, workdir: Path) -> None:
        self.root = root
        self.env = env
        self.workdir = workdir
        self.golden = load_golden()
        self.commands: list[Command] = []

    def _write(self, name: str, obj) -> Path:
        path = self.workdir / name
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        return path

    def setup(self, rng) -> None:
        """Write this seed's fixtures and the commands that read them."""
        g = self.golden["cli"]
        k = int(rng.integers(1, 10))
        bell = self._write("bell.json", {"dims": [2, 2], "amps": [[k, 0], [0, 0], [0, 0], [k, 0]]})
        ghz = [[0, 0]] * 8
        ghz[0] = ghz[7] = [k, 0]
        ghz3 = self._write("ghz3.json", {"dims": [2, 2, 2], "amps": ghz})
        w = complex(rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * math.pi)) / math.sqrt(3))
        w_amps = [[0.0, 0.0] for _ in range(8)]
        for off in (1, 2, 4):
            w_amps[off] = [w.real, w.imag]
        w3 = self._write("w3.json", {"dims": [2, 2, 2], "amps": w_amps})
        vecs = [unit(rng.normal(size=2) + 1j * rng.normal(size=2)) for _ in range(3)]
        prod_amps = outer(vecs)
        product = self._write("product.json", {"dims": [2, 2, 2],
                                               "amps": [[x.real, x.imag] for x in prod_amps]})
        factors = self._write("factors.json", SEGRE_MAP_FACTORS)
        bad = self._write("bad.json", {"dims": [2, 2], "amps": [[1, 0], [0, 0], [0, 0]]})

        def value(want):
            def check(out):
                got = _json(out).get("value")
                return None if _close(got, want) else f"value {got!r}, golden {want!r}"
            return check

        def w3_report(out):
            obj = _json(out)
            terms = [p["term"] for p in obj["per_bipartition"]]
            if not _close(obj["value"], g["w3_gen_concurrence"]) or len(terms) != 3 \
                    or not all(_close(t, g["w3_term"]) for t in terms):
                return f"W3 report {obj!r} differs from golden"
            return None

        def separable(out):
            obj = _json(out)
            return None if obj == {"separable": True, "tol": TOL} else f"got {obj!r}"

        def factored(out):
            vs = [[complex(re, im) for re, im in f] for f in _json(out)["factors"]]
            res = phase_residual(prod_amps, vs)
            return None if len(vs) == 3 and res <= TOL else f"factors rebuild to {res:.3e}"

        def empty(out):
            return None if out == b"" else f"unexpected stdout {out[:80]!r}"

        def golden_digest(name):
            def check(out):
                return None if hashlib.sha256(out).hexdigest() == g[name] else f"{name} stdout differs"
            return check

        def st(cmd, path):
            return [cmd, "--state", str(path)]

        self.commands = [
            Command("concurrence", st("concurrence", bell), 0, value(g["bell_concurrence"]), bell),
            Command("gen-concurrence", st("gen-concurrence", w3), 0, w3_report, w3),
            Command("pluecker-measure", st("pluecker-measure", ghz3), 0,
                    value(g["ghz3_pluecker_measure"]), ghz3),
            Command("check-separable", st("check-separable", product), 0, separable, product, True),
            Command("factor-product", st("factor", product), 0, factored, product, True),
            Command("factor-ghz3", st("factor", ghz3), 1, empty, ghz3),
            Command("segre-map", ["segre-map", "--factors", str(factors)], 0,
                    golden_digest("segre-map")),
            Command("segre-ideal", DIGEST_COMMANDS["segre-ideal"], 0, golden_digest("segre-ideal")),
            Command("pluecker-relations", DIGEST_COMMANDS["pluecker-relations"], 0,
                    golden_digest("pluecker-relations")),
            Command("malformed", st("concurrence", bad), 2, empty, bad),
        ]

    def warmup(self, rng) -> list[Op]:
        return [self._op(self.commands[0])]

    def round(self, rng) -> list[Op]:
        return [self._op(self.commands[i]) for i in rng.permutation(len(self.commands))]

    def _op(self, cmd: Command) -> Op:
        argv = [sys.executable, "-m", "qsegre.cli", *cmd.args]

        def call(st):
            return subprocess.run(argv, capture_output=True, env=self.env, cwd=self.root,
                                  timeout=CALL_TIMEOUT_S)

        def check(r, st, tally):
            if isinstance(r, Exception):
                return f"raised {type(r).__name__}: {r}"
            if r.returncode != cmd.code:
                return f"exit {r.returncode}, expected {cmd.code}: {r.stderr[-200:]!r}"
            tally.add("cli.stdout_bytes", len(r.stdout))
            try:
                return cmd.check(r.stdout)
            except (ValueError, KeyError, TypeError) as exc:
                return f"unreadable stdout ({exc}): {r.stdout[:80]!r}"

        def replay(r, st, rp):
            import qsegre
            from qsegre import cli

            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                rp.call("cli.main", cli.main, list(cmd.args))
            if cmd.state is not None:
                obj = json.loads(cmd.state.read_text(encoding="utf-8"))
                try:
                    rp.call("states.state_from_json", qsegre.state_from_json, obj)
                except qsegre.QsegreError:
                    pass  # the malformed fixture is meant to be rejected

        return Op("cli.process", call, check, rung=cmd.label, top=(cmd.label == self.top_label),
                  replay=replay, counts={"inputs.states": int(cmd.state is not None),
                                         "inputs.product_states": int(cmd.product)})
