#!/usr/bin/env python3
"""qsegre benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload float-measures --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Each measurement
runs in a fresh ``worker.py`` process; the set-up time is the median over
several such processes.  Run records and spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from core import layer_units
from speed import REF_PROCESS_S, process_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("float-measures", "exact-certify", "algebra-gen", "cli-oneshot")
SETUP_RUNS = 7  # set-up is timed in this many fresh processes, the last one measures
DEADLINE_S = 170.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "top_rung_s": "s", "peak_rss_mb": "MB"}


def worker_env() -> dict:
    """Environment with BLAS capped at the CPUs this process may use."""
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        try:
            cap = min(nproc, int(env.get(var, nproc)))
        except ValueError:
            cap = nproc
        env[var] = str(max(1, cap))
    return env


def run_worker(args, env: dict, probe: bool, deadline: float) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out-dir", str(OUT_DIR)]
    if probe:
        argv.append("--probe")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("no time left for another worker")
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(argv + ["--spawned-at", repr(spawned)], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def timed_setups(args, env: dict, deadline: float) -> tuple[dict, list[tuple[float, float]]]:
    """Run SETUP_RUNS - 1 set-up probes and then the measuring worker.

    A process reference is timed before each of them; a set-up is scaled by
    the mean of the references on either side of it (the last by the one
    before it), since the speed changes within seconds.
    """
    ref = process_reference(env)
    ref()  # the first start pays for a cold file cache
    refs = [ref()]
    raws = []
    for _ in range(SETUP_RUNS - 1):
        raws.append(run_worker(args, env, True, deadline)["setup_s"])
        refs.append(ref())
    result = run_worker(args, env, False, deadline)
    raws.append(result["setup_s"])
    around = [(a + b) / 2 for a, b in zip(refs, refs[1:])] + [refs[-1]]
    return result, [(raw, REF_PROCESS_S / r) for raw, r in zip(raws, around)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "qsegre" / "__init__.py").is_file():
        print(f"run.py: no qsegre package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    env = worker_env()
    try:
        if args.trace:
            result = run_worker(args, env, False, deadline)
        else:
            result, setups = timed_setups(args, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, subprocess.CalledProcessError,
            ValueError) as exc:
        print(f"run.py: {args.workload} failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: {"value": result["layer"][name], "unit": unit}
                   for name, unit in layer_units().items()}
    else:
        result["raw"]["setup_s"] = statistics.median(raw for raw, _ in setups)
        result["setup_s"] = statistics.median(raw * scale for raw, scale in setups)
        metrics = {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END.items()}

    record = dict(result["record"], rounds=result["rounds"], loop_s=result["loop_s"])
    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in record.items() if k not in ("workload", "seed", "trace")))
    raw = result.get("raw", {})
    for name, m in metrics.items():
        unscaled = f"  (unscaled {raw[name]:.6g})" if name in raw else ""
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}{unscaled}")
    if not args.trace:
        print(f"{'op latency samples':48s} {result['samples']:>16d} ops "
              f"({result['top_samples']} top-rung, {result['speed_samples']} speed samples)")
        setup_list = ", ".join(f"{t:.3f}x{scale:.2f}" for t, scale in setups)
        print(f"{'setup_s samples (unscaled x scale)':48s} {setup_list}")
    print(f"{'failed_frac':48s} {result['failed'] / result['attempted']:>16.6g} "
          f"({result['failed']}/{result['attempted']})")

    with open(OUT_DIR / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"record": record, "metrics": metrics, "unscaled": raw,
                   "failures": result["failures"]}, fh, indent=1)
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
