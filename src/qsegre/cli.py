"""Command-line surface: state I/O, measures, ideal and relation generation.

Every subcommand is a thin adapter over the library operations; no numeric
logic lives here.  Structured results go to stdout as compact JSON, one
object per invocation; polynomial families print one line per polynomial.

Exit codes: 0 success (yes/no questions report their answer in the JSON and
still exit 0), 1 domain failures (a state that is NotProduct), 2 malformed or
oversized input (a usage error, bad JSON, bad shapes, exceeded caps).  Each
failure prints one ``error:`` line to stderr.

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
import sys

from .errors import MAX_AMPS, MalformedInput, NonFinite, NotProduct, QsegreError, ZeroVector, check_cap, short_text
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


def _path_text(path: str) -> str:
    """A path for a message: its repr, so control characters (an ESC, a NUL) are
    escaped, whole up to 160 characters, else its last 140 after ``...`` and its
    length, so the file name stays and the error line stays within main's cut."""
    text = repr(path)
    return text if len(text) <= 160 else f"...{text[-140:]} ({len(path)} characters)"


def _load_json(path: str):
    name = _path_text(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise MalformedInput(f"{name}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{name}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except ValueError as exc:  # open refuses a path holding a NUL character
        raise MalformedInput(f"{name}: unreadable path ({exc})") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"{name}: invalid JSON ({exc.msg} at line {exc.lineno})") from None
    except RecursionError:
        raise MalformedInput(f"{name}: invalid JSON (arrays or objects nested too deeply)") from None
    except ValueError:  # json refuses int literals past the digit limit (4300 by default)
        raise MalformedInput(f"{name}: invalid JSON (an integer literal past the digit limit)") from None


def _load_state(args):
    return state_from_json(_load_json(args.state), exact=args.exact)


def _parse_ints(text: str, flag: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise MalformedInput(f"{flag}: expected comma-separated integers, got {short_text(text)}") from None


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
    check_cap("product of factor lengths", [len(vec) for vec in raw], MAX_AMPS)
    factors = []
    for j, vec in enumerate(raw):
        amps = parse_amplitudes(vec, f"factors[{j}]", args.exact)
        try:
            factors.append(make_local(amps))
        except (ZeroVector, NonFinite) as exc:  # the vector's own messages do not name the factor
            raise MalformedInput(f"factors[{j}]: {exc}") from None
    return factors


def _cmd_check_separable(args) -> None:
    s = _load_state(args)
    if args.partition is not None:
        b = make_bipartition(_parse_ints(args.partition, "--partition"), s.num_modes)
        ok = is_bipartite_separable(s, b, args.tol)
        _emit({"separable": ok, "left": list(b.left), "tol": args.tol})
    else:
        ok = is_fully_separable(s, args.tol)
        _emit({"separable": ok, "tol": args.tol})


def _cmd_concurrence(args) -> None:
    _emit({"value": concurrence2(_load_state(args))})


def _cmd_gen_concurrence(args) -> None:
    _emit(measure_report_to_json(generalized_concurrence(_load_state(args))))


def _cmd_pluecker_measure(args) -> None:
    _emit({"value": pluecker_measure(_load_state(args), pivot=args.pivot)})


def _cmd_segre_ideal(args) -> None:
    ideal = segre_generators(_parse_ints(args.dims, "--dims"))
    sys.stderr.write(f"{len(ideal.gens)} generators\n")
    for gen in ideal.gens:
        sys.stdout.write(format_poly(gen) + "\n")


def _cmd_pluecker_relations(args) -> None:
    for rel in pluecker_relations(args.k, args.n):
        sys.stdout.write(format_poly(rel.poly) + "\n")


def _cmd_segre_map(args) -> None:
    _emit(state_to_json(segre_map(_load_factors(args))))


def _cmd_factor(args) -> None:
    factors = local_factors(_load_state(args), args.tol)
    _emit({"factors": [amplitudes_to_json(f.array) for f in factors]})


class _Parser(argparse.ArgumentParser):  # subparsers take its class, and its error()
    def error(self, message):  # a usage error leaves through main like any input error
        raise MalformedInput(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qsegre", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state_flags(p):
        p.add_argument("--state", required=True, help="path to a state JSON file")
        p.add_argument("--exact", action="store_true", help="require the exact rational backend")

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
    """The one exit: 0, or one error line, its message cut to 280 characters, and 1 for NotProduct, else 2."""
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
    except QsegreError as exc:
        text = " ".join(str(exc).splitlines())
        sys.stderr.write(f"error: {text if len(text) <= 280 else text[:276] + ' ...'}\n")
        return 1 if isinstance(exc, NotProduct) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
