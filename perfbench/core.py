"""Operations, spans and the per-layer metric catalogue shared by the workloads.

An :class:`Op` is one timed call the benchmark makes into a public function
of a ``qsegre`` module.  Its output is checked after the clock stops.  In a
traced run the benchmark records one span per op and, for composite calls,
replays the public sub-calls on the same inputs under child spans, so each
module gets a self time without instrumenting the package.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, NamedTuple


@dataclass
class Tally:
    """Work counted from inputs and outputs during a traced run."""

    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    max_bits: int = 0

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def bits(self, fractions) -> None:
        for f in fractions:
            self.max_bits = max(self.max_bits, f.numerator.bit_length(), f.denominator.bit_length())


@dataclass
class Op:
    """One timed call.

    ``call(state)`` runs the operation; ``state`` is a dict shared by the ops
    of one round, and the result is stored there under ``store`` for later
    ops that read it.  ``check(result, state, tally)`` returns None when the
    result (or the exception raised) is the correct answer, else a message.
    ``replay(result, state, replayer)`` repeats the public sub-calls in a
    traced run.
    ``counts`` is work computed from the inputs, added to the tally when the
    op runs traced.
    """

    name: str
    call: Callable[[dict], object]
    check: Callable[[object, dict, Tally], str | None]
    rung: str | None = None
    top: bool = False
    exact: bool = False
    store: str | None = None
    replay: Callable[[object, dict, "Replayer"], None] | None = None
    counts: dict[str, float] = field(default_factory=dict)


class Workload:
    """A named mix of calls.  ``round(rng)`` builds one round of ops on
    fresh inputs; ``warmup(rng)`` builds one call of each kind."""

    name = ""
    spawns_processes = False  # its calls run in child processes

    def setup(self, rng) -> None:
        """Write whatever the calls read; most workloads need nothing."""

    def warmup(self, rng) -> list[Op]:
        raise NotImplementedError

    def round(self, rng) -> list[Op]:
        raise NotImplementedError


class Span(NamedTuple):
    id: int
    name: str
    module: str
    start: float
    end: float
    parent: int | None
    op_id: int
    rung: str | None


class Tracer:
    """Spans kept in memory and written once at the end of the run.

    Span times are read through ``scale(start, end)``, the speed factor the
    end-to-end metrics use too (see speed.py), so that a replayed sub-call
    and its parent compare at the same machine speed.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.exact_ops: set[int] = set()  # op ids of calls on exact inputs
        self.scale: Callable[[float, float], float] = lambda start, end: 1.0

    def record(self, name: str, start: float, end: float, parent: int | None, op_id: int,
               rung: str | None = None) -> int:
        sid = len(self.spans)
        self.spans.append(Span(sid, name, name.split(".", 1)[0], start, end, parent, op_id, rung))
        return sid

    def duration(self, s: Span) -> float:
        return (s.end - s.start) * self.scale(s.start, s.end)

    def total(self, name: str) -> float:
        return sum(self.duration(s) for s in self.spans if s.name == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_time(self, name: str) -> float:
        """Span time of ``name`` minus the time of its replayed sub-calls."""
        children: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent] += self.duration(s)
        return sum(self.duration(s) - children[s.id] for s in self.spans if s.name == name)

    def rung_median(self, name: str, rung: str) -> float:
        """Median time per top-level call of ``name`` at ``rung``; 0 if never run."""
        times = [self.duration(s) for s in self.spans
                 if s.name == name and s.rung == rung and s.parent is None]
        return statistics.median(times) if times else 0.0

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": list(Span._fields), "spans": [list(s) for s in self.spans]}, fh)


class Replayer:
    """Runs sub-calls of one traced op under child spans of that op's span."""

    def __init__(self, tracer: Tracer, tally: Tally, parent: int, op_id: int,
                 between: Callable[[], None]) -> None:
        self.tracer = tracer
        self.tally = tally
        self.parent = parent
        self.op_id = op_id
        self.between = between

    def call(self, name: str, fn, *args, **kwargs):
        self.between()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.tracer.record(name, start, time.perf_counter(), self.parent, self.op_id)


# Per-rung times for the four ROADMAP ladders: (span name, rung).
RUNGS = (
    [("segre.generalized_concurrence", f"m{m}") for m in (4, 6, 8, 10)]
    + [("segre.is_fully_separable", f"exact-m{m}") for m in (3, 4, 5, 6)]
    + [("segre.segre_generators", r) for r in
       ("2-2-2", "2-2-2-2", "3-3-3", "2-3-4", "2-2-2-2-2", "2-2-2-2-2-2")]
    + [("grassmann.pluecker_relations", r) for r in ("2-6", "3-6", "3-7", "3-8", "4-8")]
)

# Span totals reported as "<name>.s".
SPAN_TOTALS = (
    "states.flatten", "states.normalize", "states.segre_map", "states.local_factors",
    "states.state_from_json", "segre.generalized_concurrence", "segre.is_fully_separable",
    "segre.minor_sum", "segre.segre_generators", "grassmann.pluecker_measure",
    "grassmann.pluecker_relations", "grassmann.pluecker_coordinates",
    "grassmann.check_relations", "poly.format_poly", "poly.evaluate", "cli.main",
)

SELF_TIMES = ("segre.generalized_concurrence", "grassmann.check_relations")

# Counts from the tally, reported under their own names.
TALLY_COUNTS = (
    "states.local_factors.not_product", "segre.splits_evaluated", "segre.minors_enumerated",
    "segre.generators", "grassmann.ij_pairs", "grassmann.relations",
    "poly.format_poly.bytes", "poly.evaluate.calls", "cli.stdout_bytes",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, tally: Tally, probes: dict[str, float],
                  overhead_frac: float) -> dict[str, float]:
    """Every per-layer metric of a traced run; layers a workload skips read 0."""
    c = tally.counts
    out: dict[str, float] = {}
    for name in SPAN_TOTALS:
        out[f"{name}.s"] = tracer.total(name)
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = tracer.self_time(name)
    for name in TALLY_COUNTS:
        out[name] = c[name]
    out["states.flatten.calls"] = tracer.count("states.flatten")
    out["states.product_share"] = _ratio(c["inputs.product_states"], c["inputs.states"])
    out["segre.dedup_yield"] = _ratio(c["segre.generators"], c["segre.minors_enumerated"])
    out["grassmann.relation_yield"] = _ratio(c["grassmann.relations"], c["grassmann.ij_pairs"])
    out["gaussrat.exact_s"] = sum(tracer.duration(s) for s in tracer.spans
                                  if s.parent is None and s.op_id in tracer.exact_ops)
    out["gaussrat.max_bits"] = tally.max_bits
    out["cli.interp_start_s"] = probes["interp_start_s"]
    out["cli.import_s"] = probes["import_s"]
    out["trace.overhead_frac"] = overhead_frac
    for name, rung in RUNGS:
        out[f"{name}.s.{rung}"] = tracer.rung_median(name, rung)
    return out


def layer_units() -> dict[str, str]:
    """Unit of each per-layer metric, in the order ``layer_metrics`` builds them."""
    units = {f"{n}.s": "s" for n in SPAN_TOTALS}
    units.update({f"{n}.self_s": "s" for n in SELF_TIMES})
    for name in TALLY_COUNTS:
        units[name] = "bytes" if name.endswith("bytes") else "count"
    units.update({
        "states.flatten.calls": "count", "states.product_share": "ratio",
        "segre.dedup_yield": "ratio", "grassmann.relation_yield": "ratio",
        "gaussrat.exact_s": "s", "gaussrat.max_bits": "bits",
        "cli.interp_start_s": "s", "cli.import_s": "s", "trace.overhead_frac": "ratio",
    })
    units.update({f"{n}.s.{r}": "s" for n, r in RUNGS})
    return units
