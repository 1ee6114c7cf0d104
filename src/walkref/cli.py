"""Command-line interface: generators, refinement runs, and experiments.

Exit codes: 0 on success / all verdicts passing, 1 on a property failure
(a verdict is false or a run cannot satisfy its precondition) or when
stdout closes before the output is written (``BrokenPipeError``), 2 on usage
errors (bad flags, a ``--column`` with no Duplicator scenario, unreadable or
oversized inputs, an ``--out`` path that cannot be written), 3 when the two
prime-field algebra runs disagree (``AlgebraCrossCheckError``), so no result
is trusted, and 4 when a computation is refused because it would exceed its
work budget (``BudgetExceeded``: naive walk enumeration, formula evaluation,
Duplicator verification).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .algebra import AlgebraCrossCheckError
from .cfi import build_cfi, default_twist, grid_base
from .experiments import (
    run_lower_bound,
    run_property_suite,
    run_remark_disagreement,
    walk_dimension_chain,
)
from .game import (
    NoScenarioError,
    duplicator_bijection,
    opening_scenario,
    verify_component_bound,
    verify_round_safe,
    wall_adjacent_scenario,
    wall_nonadjacent_scenario,
)
from .graph_core import BudgetExceeded, load_graph_json
from .refinement import (
    ARITH_MODES,
    RefinementKind,
    Workspace,
    iterations_to_distinguish,
    stabilize,
)
from .walk_logic import (
    eval_sentence,
    synth_distinguishing_sentence,
    to_sexpr,
)

REPORT_COMMANDS = ("remark", "lower-bound", "suite")
# a grid of n columns builds 8n - 5 vertices: 256 keeps every CFI graph
# within the loader's 2048-vertex limit
MAX_GRID = 256


class UsageError(Exception):
    pass


def _load_graph(path: str):
    try:
        with open(path) as fh:
            return load_graph_json(fh.read())
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read graph {path!r}: {exc}") from exc


def int_list(text: str) -> tuple:
    return tuple(int(x) for x in text.split(","))


def _at_least(flag: str, value, minimum: int) -> None:
    if value is not None and value < minimum:
        raise UsageError(f"{flag} {value} is below {minimum}")


def _at_most(flag: str, value, maximum: int) -> None:
    if value is not None and value > maximum:
        raise UsageError(f"{flag} {value} is above {maximum}")


def _kind_from_args(args) -> RefinementKind:
    if args.kind == "kwalk":
        if args.k is None:
            raise UsageError("--kind kwalk requires --k")
        _at_least("--k", args.k, 2)
        return RefinementKind.kwalk(args.k)
    if args.k is not None:
        raise UsageError(f"--kind {args.kind} takes no --k")
    return RefinementKind.wl() if args.kind == "wl" else RefinementKind.walk()


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    except OSError as exc:
        raise UsageError(f"cannot write {path!r}: {exc}") from exc


def _emit(args, text: str) -> None:
    if args.out:
        _write(args.out, text)
    else:
        print(text)


def _emit_report(args, report) -> int:
    _emit(args, report.to_csv() if args.format == "csv" else report.to_json())
    return 0 if report.passed else 1


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> int:
    _at_least("--grid", args.grid, 3)
    _at_most("--grid", args.grid, MAX_GRID)
    base = grid_base(args.grid)
    twist = default_twist(base) if args.twist else None
    cfi = build_cfi(base, twist)
    _emit(args, _json(cfi.graph.to_json_dict()))
    if args.out:
        sidecar = (args.out[:-5] if args.out.endswith(".json") else args.out)
        sidecar += ".origins.json"
        origins = {
            "vertex_origin": [
                [int(bv), [int(b) for b in bits]]
                for bv, bits in (cfi.vertex_origin[x] for x in range(cfi.graph.n))
            ],
            "twist": list(twist) if twist else None,
        }
        _write(sidecar, _json(origins))
    return 0


def _cmd_refine(args) -> int:
    _at_least("--max-iters", args.max_iters, 0)
    kind = _kind_from_args(args)
    g = _load_graph(args.graph)
    hist = stabilize(
        Workspace.from_graphs(g),
        kind,
        max_iterations=args.max_iters,
        seed=args.seed,
        arith=args.arith,
    )
    _emit(args, _json(hist.to_json_dict()))
    return 0


def _cmd_distinguish(args) -> int:
    _at_least("--max-iters", args.max_iters, 0)
    kind = _kind_from_args(args)
    g1, g2 = (_load_graph(p) for p in args.graphs)
    result = iterations_to_distinguish(
        g1, g2, kind, max_iterations=args.max_iters, seed=args.seed,
        arith=args.arith,
    )
    _emit(args, _json({
        "kind": kind.name,
        "k": kind.k,
        "distinguishing_iterations": result,
        "distinguished": result is not None,
    }))
    return 0


def _cmd_dims(args) -> int:
    g = _load_graph(args.graph)
    _emit(args, _json(walk_dimension_chain(g, arith=args.arith,
                                           seed=args.seed)))
    return 0


def _cmd_remark(args) -> int:
    _at_least("--n-min", args.n_min, 2)
    if args.n_min > args.n_max:
        raise UsageError(f"--n-min {args.n_min} exceeds --n-max {args.n_max}")
    _at_most("--n-max", args.n_max, MAX_GRID)
    report = run_remark_disagreement(
        tuple(range(args.n_min, args.n_max + 1)),
        seed=args.seed, arith=args.arith,
        include_timing=not args.no_timing,
    )
    return _emit_report(args, report)


def _cmd_lower_bound(args) -> int:
    n = args.n_values
    _at_least("--n-values", min(n), 3)
    _at_most("--n-values", max(n), MAX_GRID)
    if any(a >= b for a, b in zip(n, n[1:])):
        raise UsageError(f"--n-values {','.join(map(str, n))} is not "
                         "strictly increasing")
    report = run_lower_bound(args.n_values, seed=args.seed, arith=args.arith,
                             include_timing=not args.no_timing)
    return _emit_report(args, report)


def _cmd_formula(args) -> int:
    _at_least("--k", args.k, 3)
    g1, g2 = (_load_graph(p) for p in args.graphs)
    sentence, details = synth_distinguishing_sentence(
        g1, g2, args.k, return_details=True
    )
    v1, v2 = eval_sentence(sentence, g1), eval_sentence(sentence, g2)
    _emit(args, _json({
        "sentence": to_sexpr(sentence),
        "quantifier_depth": sentence.quantifier_depth,
        "dag_size": sentence.dag_size,
        "value_on_first": v1,
        "value_on_second": v2,
        "details": details,
    }))
    return 0 if v1 != v2 else 1


def _cmd_verify_duplicator(args) -> int:
    _at_least("--grid", args.grid, 3)
    _at_most("--grid", args.grid, MAX_GRID)
    _at_least("--k", args.k, 2)
    # wall-nonadjacent also pebbles column + 1
    last = args.grid - (2 if args.scenario == "wall-nonadjacent" else 1)
    if args.scenario != "opening" and not 0 <= args.column <= last:
        raise UsageError(f"--column {args.column} is outside 0..{last}")
    base = grid_base(args.grid)
    twist = default_twist(base)
    g_plain, g_twisted = build_cfi(base), build_cfi(base, twist)
    try:
        if args.scenario == "wall-adjacent":
            scen = wall_adjacent_scenario(base, twist, args.column, args.k)
        elif args.scenario == "wall-nonadjacent":
            scen = wall_nonadjacent_scenario(base, twist, args.column, args.k)
        else:
            scen = opening_scenario(base, twist, args.k)
    except NoScenarioError as exc:
        raise UsageError(str(exc)) from exc
    bij = duplicator_bijection(g_plain, g_twisted, scen.pebbles,
                               scen.v, scen.e1, scen.e2)
    safe, counterexample = verify_round_safe(
        bij, g_plain, g_twisted, scen.pebbles, return_counterexample=True
    )
    bound_ok = verify_component_bound(bij, scen.ell)
    _emit(args, _json({
        "scenario": args.scenario,
        "grid": args.grid,
        "k": args.k,
        "pebbles": [scen.pebbles.u1, scen.pebbles.u2],
        "v": scen.v,
        "e1": list(scen.e1),
        "e2": list(scen.e2),
        "round_safe": safe,
        "component_bound": bound_ok,
        "counterexample": list(counterexample) if counterexample else None,
    }))
    return 0 if safe and bound_ok else 1


def _cmd_suite(args) -> int:
    report = run_property_suite(arith=args.arith,
                                include_timing=not args.no_timing)
    return _emit_report(args, report)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walkref",
        description="Walk refinement experiments and generators.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, report=False):
        p.add_argument("--arith", choices=ARITH_MODES, default="prime2")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if report:
            p.add_argument("--no-timing", action="store_true",
                           help="zero the ms column for byte-stable output")

    p = sub.add_parser("gen", help="generate a grid CFI graph as JSON")
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--twist", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("refine", help="run one refinement to stability")
    p.add_argument("--graph", required=True)
    p.add_argument("--kind", choices=("wl", "kwalk", "walk"), default="walk")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--max-iters", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("distinguish",
                       help="joint refinement iterations to distinguish")
    p.add_argument("--graphs", nargs=2, required=True)
    p.add_argument("--kind", choices=("wl", "kwalk", "walk"), default="walk")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--max-iters", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_distinguish)

    p = sub.add_parser("dims", help="walk-refinement dimension chain")
    p.add_argument("--graph", required=True)
    common(p)
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("remark", help="WL vs n-walk per-iteration trails")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=10)
    common(p, report=True)
    p.set_defaults(func=_cmd_remark)

    p = sub.add_parser("lower-bound",
                       help="distinguishing-count growth on CFI pairs")
    p.add_argument("--n-values", type=int_list, default="4,6,8,10")
    common(p, report=True)
    p.set_defaults(func=_cmd_lower_bound)

    p = sub.add_parser("formula", help="synthesize a distinguishing sentence")
    p.add_argument("--graphs", nargs=2, required=True)
    p.add_argument("--k", type=int, default=3)
    common(p)
    p.set_defaults(func=_cmd_formula)

    p = sub.add_parser("verify-duplicator",
                       help="exhaustively verify a Duplicator round")
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--scenario", required=True,
                   choices=("wall-adjacent", "wall-nonadjacent", "opening"))
    p.add_argument("--column", type=int, default=2)
    common(p)
    p.set_defaults(func=_cmd_verify_duplicator)

    p = sub.add_parser("suite", help="bundled invariant property suite")
    common(p, report=True)
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format == "csv" and args.command not in REPORT_COMMANDS:
        parser.exit(2, f"error: --format csv is only supported by "
                       f"{', '.join(REPORT_COMMANDS)}\n")
    try:
        _at_least("--seed", args.seed, 0)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AlgebraCrossCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader left: send what is still buffered to devnull, so the
        # interpreter's final flush of stdout cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
