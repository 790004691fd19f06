"""Command-line surface: state I/O, measures, ideal and relation generation.

Every subcommand is a thin adapter over the library operations; no numeric
logic lives here.  Structured results go to stdout as compact JSON, one
object per invocation; polynomial families print one line per polynomial.

Exit codes: 0 success (yes/no questions report their answer in the JSON and
still exit 0), 1 domain failures (a state that is NotProduct), 2 malformed or
oversized input (bad JSON, bad shapes, exceeded caps).

Input files:
  state JSON    {"dims": [2, 2], "amps": [[re, im], ...]}  row-major, mode 1
                most significant; components are numbers, or integers /
                "p/q" strings for the exact backend.
  factors JSON  {"factors": [[[re, im], ...], ...]}  one local vector per
                mode, same component rules.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import MalformedInput, NotProduct, QsegreError, TooLarge
from .grassmann import pluecker_measure, pluecker_relations
from .poly import format_poly
from .segre import (
    DEFAULT_TOL,
    concurrence2,
    generalized_concurrence,
    is_bipartite_separable,
    is_fully_separable,
    local_factors,
    measure_report_to_json,
    segre_generators,
)
from .states import (
    DEFAULT_MAX_AMPS,
    amplitudes_to_json,
    make_bipartition,
    make_local,
    parse_amplitudes,
    segre_map,
    state_from_json,
    state_to_json,
)


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise MalformedInput(f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"{path}: invalid JSON ({exc.msg} at line {exc.lineno})") from None


def _load_state(args):
    return state_from_json(_load_json(args.state), exact=args.exact, max_amps=args.max_amps)


def _parse_ints(text: str, flag: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise MalformedInput(f"{flag}: expected comma-separated integers, got {text!r}") from None


def _load_factors(args):
    obj = _load_json(args.factors)
    if not isinstance(obj, dict) or "factors" not in obj:
        raise MalformedInput("factors: missing")
    raw = obj["factors"]
    if not isinstance(raw, list) or len(raw) < 2:
        raise MalformedInput("factors: expected a list of >= 2 local vectors")
    for j, vec in enumerate(raw):
        if not isinstance(vec, list) or len(vec) < 2:
            raise MalformedInput(f"factors[{j}]: expected a list of >= 2 [re, im] pairs")
    total = math.prod(map(len, raw))
    if total > DEFAULT_MAX_AMPS:
        raise TooLarge(f"product of factor lengths = {total} exceeds cap {DEFAULT_MAX_AMPS}")
    return [make_local(parse_amplitudes(vec, f"factors[{j}]", args.exact)) for j, vec in enumerate(raw)]


def _cmd_check_separable(args) -> int:
    s = _load_state(args)
    if args.partition is not None:
        b = make_bipartition(_parse_ints(args.partition, "--partition"), s.num_modes)
        ok = is_bipartite_separable(s, b, args.tol)
        _emit({"separable": ok, "left": list(b.left), "tol": args.tol})
    else:
        ok = is_fully_separable(s, args.tol)
        _emit({"separable": ok, "tol": args.tol})
    return 0


def _cmd_concurrence(args) -> int:
    _emit({"value": concurrence2(_load_state(args))})
    return 0


def _cmd_gen_concurrence(args) -> int:
    _emit(measure_report_to_json(generalized_concurrence(_load_state(args))))
    return 0


def _cmd_pluecker_measure(args) -> int:
    _emit({"value": pluecker_measure(_load_state(args), pivot=args.pivot)})
    return 0


def _cmd_segre_ideal(args) -> int:
    ideal = segre_generators(_parse_ints(args.dims, "--dims"))
    sys.stderr.write(f"{len(ideal.gens)} generators\n")
    for gen in ideal.gens:
        sys.stdout.write(format_poly(gen) + "\n")
    return 0


def _cmd_pluecker_relations(args) -> int:
    for rel in pluecker_relations(args.k, args.n):
        sys.stdout.write(format_poly(rel.poly) + "\n")
    return 0


def _cmd_segre_map(args) -> int:
    _emit(state_to_json(segre_map(_load_factors(args))))
    return 0


def _cmd_factor(args) -> int:
    factors = local_factors(_load_state(args), args.tol)
    _emit({"factors": [amplitudes_to_json(f.array) for f in factors]})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qsegre", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state_flags(p):
        p.add_argument("--state", required=True, help="path to a state JSON file")
        p.add_argument("--exact", action="store_true", help="require the exact rational backend")
        p.add_argument("--max-amps", type=int, default=DEFAULT_MAX_AMPS, help="largest prod(dims) accepted")

    p = sub.add_parser("check-separable", help="rank-1 test across bipartitions")
    add_state_flags(p)
    p.add_argument("--partition", help="comma-separated row modes; omit to test all splits")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=_cmd_check_separable)

    p = sub.add_parser("concurrence", help="two-qubit concurrence")
    add_state_flags(p)
    p.set_defaults(func=_cmd_concurrence)

    p = sub.add_parser("gen-concurrence", help="multipartite concurrence with per-split terms")
    add_state_flags(p)
    p.set_defaults(func=_cmd_gen_concurrence)

    p = sub.add_parser("pluecker-measure", help="Plucker-coordinate measure of a qubit state")
    add_state_flags(p)
    p.add_argument("--pivot", type=int, default=1, help="mode whose flattening is used")
    p.set_defaults(func=_cmd_pluecker_measure)

    p = sub.add_parser("segre-ideal", help="print the 2x2 minor generators for given dims")
    p.add_argument("--dims", required=True, help="comma-separated mode dimensions")
    p.set_defaults(func=_cmd_segre_ideal)

    p = sub.add_parser("pluecker-relations", help="print the quadratic relations of G(k, N)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_pluecker_relations)

    p = sub.add_parser("segre-map", help="tensor a factors file into a state JSON")
    p.add_argument("--factors", required=True, help="path to a factors JSON file")
    p.add_argument("--exact", action="store_true")
    p.set_defaults(func=_cmd_segre_map)

    p = sub.add_parser("factor", help="recover local factors of a product state")
    add_state_flags(p)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=_cmd_factor)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotProduct as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except QsegreError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
