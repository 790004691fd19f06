"""One benchmark process: set a workload up, run it as a closed loop, report.

``run.py`` starts this file in a fresh interpreter for every measurement, so
the peak RSS belongs to one workload.  The last line of stdout is a JSON
object.  ``--probe`` stops after set-up and reports only the set-up time.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from core import Replayer, Tally, Tracer, layer_metrics
from speed import REF_PROCESS_S, SpeedLog, process_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMA = 1
MIN_OPS = 100  # so that at least 10 samples lie beyond p90
WALL_CAP_S = 150.0  # hard stop for one measured loop
STARTUP_SAMPLES = 5


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded into this process, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def startup_probes(env: dict) -> dict[str, float]:
    """Median wall time of a bare interpreter, and of importing qsegre on top."""
    def median_of(code: str) -> float:
        times = []
        for _ in range(STARTUP_SAMPLES):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    interp = median_of("pass")
    return {"interp_start_s": interp, "import_s": median_of("import qsegre") - interp}


class Runner:
    """Executes rounds of ops, checks every output and keeps the samples."""

    def __init__(self, speed: SpeedLog) -> None:
        self.speed = speed
        # (start, end, top rung, pass) of every call; pass is "timed",
        # "untraced" or "traced"
        self.calls: list[tuple[float, float, bool, str]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.tracer = Tracer()
        self.tally = Tally()
        self.op_id = 0

    def run(self, ops, kind: str = "timed") -> None:
        """Run one pass over ``ops``."""
        state: dict = {}
        traced = kind == "traced"
        tally = self.tally if traced else Tally()
        for op in ops:
            self.speed.maybe_sample()
            t0 = time.perf_counter()
            try:
                result = op.call(state)
            except Exception as exc:  # every failure is counted, none stops the run
                result = exc
            t1 = time.perf_counter()
            if op.store is not None:
                state[op.store] = result
            self.attempted += 1
            self.calls.append((t0, t1, op.top, kind))
            try:
                problem = op.check(result, state, tally)
                if traced:
                    sid = self.tracer.record(op.name, t0, t1, None, self.op_id, op.rung)
                    if op.exact:
                        self.tracer.exact_ops.add(self.op_id)
                    for name, amount in op.counts.items():
                        tally.add(name, amount)
                    if op.replay is not None:
                        op.replay(result, state, Replayer(self.tracer, tally, sid, self.op_id,
                                                          self.speed.maybe_sample))
            except Exception:
                problem = "check or replay raised " + traceback.format_exc(limit=3)
            if problem is not None:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append(f"{op.name} [{op.rung}]: {problem}")
            self.op_id += 1

    def scaled(self, kind: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Raw times, speed factors and top-rung flags of one kind of pass."""
        calls = [c for c in self.calls if c[3] == kind]
        raw = np.array([t1 - t0 for t0, t1, _, _ in calls])
        scale = np.array([self.speed.scale(t0, t1) for t0, t1, _, _ in calls])
        return raw, scale, np.array([top for _, _, top, _ in calls], dtype=bool)


def make_workload(name: str, env: dict, workdir: Path):
    if name == "cli-oneshot":
        from cliwork import CliOneshot
        return CliOneshot(ROOT, env, workdir)
    from kernels import WORKLOADS
    return WORKLOADS[name]()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken just before this process started")
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    if not (SRC / "qsegre" / "__init__.py").is_file():
        print(f"worker: no qsegre package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    rng = np.random.default_rng(args.seed)
    warm_rng = np.random.default_rng([args.seed, 1])
    with tempfile.TemporaryDirectory(dir=args.out_dir, prefix="fixtures-") as tmp:
        workload = make_workload(args.workload, env, Path(tmp))
        imported = sys.modules.get("qsegre")
        if imported is not None and Path(imported.__file__).parent.resolve() != (SRC / "qsegre").resolve():
            print(f"worker: imported qsegre from {imported.__file__}", file=sys.stderr)
            return 2
        workload.setup(rng)
        ops = workload.round(rng)
        runner = Runner(SpeedLog())
        runner.run(workload.warmup(warm_rng), "warm-up")
        setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
        if args.probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if workload.spawns_processes:
            # each sample is a process start, so sample less often
            runner.speed = SpeedLog(process_reference(env), REF_PROCESS_S, every_s=2.0,
                                    window_s=4.0)
        result = measure(args, workload, runner, rng, ops, env)
    result.update(setup_s=setup_s, attempted=runner.attempted, failed=runner.failed,
                  failures=runner.failures)
    result["record"] = {
        "schema": SCHEMA, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": blas_threads(),
        "commit": git_commit(),
    }
    print(json.dumps(result))
    return 0


def measure(args, workload, runner: Runner, rng, ops, env) -> dict:
    """The closed loop: whole rounds until the next one would overrun."""
    traced = bool(args.trace)
    min_ops = 1 if traced else MIN_OPS
    rounds = 0
    start = time.perf_counter()
    while True:
        if traced:
            # the same round untraced and traced, in alternating order, so
            # the difference is the cost of tracing
            kinds = ("untraced", "traced") if rounds % 2 == 0 else ("traced", "untraced")
            for kind in kinds:
                runner.run(ops, kind)
        else:
            runner.run(ops)
        rounds += 1
        elapsed = time.perf_counter() - start
        done = rounds * len(ops) >= min_ops
        if (done and elapsed * (rounds + 1) / rounds > args.seconds) or elapsed > WALL_CAP_S:
            break
        gc.collect()
        ops = workload.round(rng)
    runner.speed.sample()
    out: dict = {"rounds": rounds, "loop_s": elapsed, "speed_samples": len(runner.speed.refs)}
    if traced:
        runner.tracer.scale = runner.speed.scale
        base = float(np.dot(*runner.scaled("untraced")[:2]))
        with_trace = float(np.dot(*runner.scaled("traced")[:2]))
        out["layer"] = layer_metrics(runner.tracer, runner.tally, startup_probes(env),
                                     with_trace / base - 1.0)
        runner.tracer.dump(args.out_dir / f"spans-{args.workload}-seed{args.seed}.json")
        return out
    raw, scale, top = runner.scaled("timed")
    who = resource.RUSAGE_CHILDREN if workload.spawns_processes else resource.RUSAGE_SELF
    out.update(samples=len(raw), top_samples=int(top.sum()),
               peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0,
               **latency_metrics(raw * scale, top), raw=latency_metrics(raw, top))
    return out


def latency_metrics(lat: np.ndarray, top: np.ndarray) -> dict[str, float]:
    return {"ops_per_s": len(lat) / float(lat.sum()),
            "op_p50_ms": float(np.percentile(lat, 50)) * 1e3,
            "op_p90_ms": float(np.percentile(lat, 90)) * 1e3,
            "top_rung_s": float(np.median(lat[top]))}


if __name__ == "__main__":
    sys.exit(main())
