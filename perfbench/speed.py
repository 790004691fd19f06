"""Scale measured times to a fixed machine speed.

The benchmark shares its machine, and the speed of a core can change by a
factor of 1.8 within a minute as other work comes and goes.  Medians within
one run cannot remove that from a comparison between runs.  So the benchmark
times a fixed reference between calls, never during one, and scales each
call's wall time by ``ref_s / reference time around the call``.

In-process calls use a kernel that builds binomials as dicts of tuple
monomials, deduplicates them by hash, sorts and prints them.  Of the kernels
tried (this one, Fraction arithmetic, and complex arrays with small SVDs), it
tracked the speed of every workload's calls best: over four minutes in which
raw times moved by 15%, it held the scaled times of float, exact and algebra
calls within 4-8%.  CLI calls, and the set-up of every workload, use a
process that only imports numpy, the bulk of their start-up.  Neither
reference runs qsegre code, so a change to qsegre shows in the scaled times
in full.
"""

from __future__ import annotations

import bisect
import itertools
import statistics
import subprocess
import sys
import time
from typing import Callable

# Median reference times on a shared 2.1 GHz x86-64 machine in its slower
# state, where the ROADMAP baseline table was measured; scaled times then
# compare with that table.
REF_S = 0.0057
REF_PROCESS_S = 0.25

_CELLS = list(itertools.product(range(2), repeat=5))


def reference() -> float:
    """Wall time of the in-process kernel, the faster of two runs."""
    return min(_kernel(), _kernel())


def _kernel() -> float:
    t0 = time.perf_counter()
    seen: dict = {}
    for r1, r2 in itertools.combinations(_CELLS[:7], 2):
        for c1, c2 in itertools.combinations(_CELLS[7:13], 2):
            plus = tuple(sorted((("a", r1 + c1), ("a", r2 + c2))))
            minus = tuple(sorted((("a", r1 + c2), ("a", r2 + c1))))
            seen.setdefault(frozenset({plus: 1, minus: -1}.items()), None)
    ordered = sorted(seen, key=lambda p: sorted(m for m, _ in p))
    "\n".join(" - ".join("*".join(f"a[{v}]" for _, v in m) for m, _ in sorted(p)) for p in ordered)
    return time.perf_counter() - t0


def process_reference(env: dict) -> Callable[[], float]:
    """Reference for CLI calls: wall time of a process that imports numpy."""
    def run() -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)
        return time.perf_counter() - t0
    return run


class SpeedLog:
    """Reference samples taken between calls, and the scale they imply.

    A sample is taken before a call when ``every_s`` has passed since the
    last one.  A call is scaled by the median of the samples within
    ``window_s`` of it, and at least two on either side: the speed changes
    over seconds, and one sample is noisier than that.
    """

    def __init__(self, ref: Callable[[], float] = reference, ref_s: float = REF_S,
                 every_s: float = 0.1, window_s: float = 1.0) -> None:
        self.ref = ref
        self.ref_s = ref_s
        self.every_s = every_s
        self.window_s = window_s
        ref()  # the first run pays for lazy initialisation
        self.times: list[float] = []
        self.refs: list[float] = []

    def sample(self) -> None:
        self.times.append(time.perf_counter())
        self.refs.append(self.ref())

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= self.every_s:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """Factor for a call that ran from t0 to t1."""
        lo = min(bisect.bisect_left(self.times, t0 - self.window_s),
                 bisect.bisect_left(self.times, t0) - 2)
        hi = max(bisect.bisect_right(self.times, t1 + self.window_s),
                 bisect.bisect_right(self.times, t1) + 2)
        return self.ref_s / statistics.median(self.refs[max(0, lo):hi])
