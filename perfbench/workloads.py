"""The benchmark's four workloads: instances, timed operations and checks.

A workload is a list of instances built from the seed; each instance is a
list of operations.  An operation is one top-level call into walkref on one
instance; it may take its input from earlier operations' results.  Its check
runs right after it, untimed, and returns a list of problems (empty when the
output is right); it may read every result of the round so far, which is
how cross-instance properties (counts growing with n) are checked.  Every
check compares against a separate computation or a property the paper
proves, never against stored output.

walkref functions are looked up through their modules at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import walkref.cfi as cfi
import walkref.cli as cli
import walkref.experiments as experiments
import walkref.game as game
import walkref.refinement as refinement
import walkref.walk_logic as walk_logic
from walkref.refinement import RefinementKind, Workspace

Results = dict  # (instance name, op name) -> result of the op


@dataclass
class Op:
    name: str
    call: Callable[[Results], Any]
    check: Callable[[Any, Results], list]


@dataclass
class Instance:
    name: str
    ops: list = field(default_factory=list)

    def add(self, name, call, check):
        self.ops.append(Op(name, call, check))


@dataclass
class Workload:
    instances: list
    largest: str          # instance whose op time is ``largest_s``


def _relabel(g, seed: int, salt: int):
    """The graph under a vertex permutation drawn from (seed, salt)."""
    perm = np.random.default_rng((seed, salt)).permutation(g.n)
    return g.relabel(perm.tolist())


def _stable_wl(g):
    """Stable 2-WL partition, computed by ``wl_step`` alone."""
    ws = Workspace.from_graphs(g)
    prev = ws.partition()
    while True:
        refinement.wl_step(ws)
        cur = ws.partition()
        if cur == prev:
            return cur
        prev = cur


def _dims_problems(dims, iterations, n, wl_classes) -> list:
    out = []
    if dims[-1] != wl_classes:
        out.append(f"last dimension {dims[-1]} != {wl_classes} stable WL "
                   "classes")
    if any(b < a for a, b in zip(dims, dims[1:])):
        out.append(f"dimension chain decreases: {dims}")
    if iterations > 2 * n:
        out.append(f"{iterations} walk iterations > 2|V| = {2 * n}")
    return out


# ---------------------------------------------------------------------------
# random-dims


RANDOM_SIZES = (8, 10, 12, 14)


def random_dims(seed: int) -> Workload:
    instances = []
    for n in RANDOM_SIZES:
        g = experiments.seeded_random_graph(n, seed)
        inst = Instance(f"random-{n}")

        def check(hist, _, g=g):
            wl = _stable_wl(g)
            out = _dims_problems(hist.dims, hist.iterations, g.n,
                                 wl.num_classes)
            if hist.stable_partition != wl:
                out.append("stable walk partition != stable WL partition")
            return out

        inst.add("walk-dims", lambda _, g=g: refinement.stabilize(
            Workspace.from_graphs(g), RefinementKind.walk(),
            record_dims=True), check)
        instances.append(inst)
    return Workload(instances, largest=f"random-{RANDOM_SIZES[-1]}")


# ---------------------------------------------------------------------------
# cfi-single


SINGLE_GRIDS = (3, 6, 7)  # 19 vertices: exact engine; 43 and 51: sampled
DIMS_GRIDS = (3,)         # dimension chains, by both engines


def cfi_single(seed: int) -> Workload:
    instances = []
    for n in SINGLE_GRIDS:
        g = _relabel(cfi.build_cfi(cfi.grid_base(n)).graph, seed, n)
        inst = Instance(f"cfi-{n}")
        wl_key, dims_key = (inst.name, "wl"), (inst.name, "dims")

        def check_wl(hist, _, g=g):
            return [] if hist.stable_partition == _stable_wl(g) else [
                "stabilize(wl) disagrees with iterated wl_step"]

        def check_dims(chain, res, g=g, wl_key=wl_key):
            # walk refinement refines WL at every iteration, so equal class
            # counts make the stable partitions equal
            wl = res[wl_key].stable_partition
            return _dims_problems(chain["dims"], chain["iterations"], g.n,
                                  wl.num_classes)

        def check_sampled_dims(chain, res, dims_key=dims_key,
                               check_dims=check_dims):
            exact = res[dims_key]["dims"]
            out = [] if chain["dims"] == exact else [
                f"sampled dims {chain['dims']} != exact dims {exact}"]
            return out + check_dims(chain, res)

        def check_nwalk(hist, res, wl_key=wl_key):
            wl = res[wl_key]
            out = []
            if hist.stable_partition != wl.stable_partition:
                out.append("stable n-walk partition != stable WL partition")
            pre_kw = [p for p in hist.partitions[1:]
                      if p != hist.stable_partition]
            pre_wl = [p for p in wl.partitions[1:]
                      if p != wl.stable_partition]
            if any(p == q for p in pre_kw for q in pre_wl):
                out.append("a pre-stable n-walk partition equals a "
                           "pre-stable WL partition")
            return out

        inst.add("wl", lambda _, g=g: refinement.stabilize(
            Workspace.from_graphs(g), RefinementKind.wl()), check_wl)
        if n in DIMS_GRIDS:
            inst.add("dims", lambda _, g=g: experiments.walk_dimension_chain(
                g, seed=seed), check_dims)
            inst.add("dims-sampled", lambda _, g=g:
                     experiments.walk_dimension_chain(
                         g, seed=seed, method="sampled"), check_sampled_dims)
        inst.add("n-walk", lambda _, g=g, n=n: refinement.stabilize(
            Workspace.from_graphs(g), RefinementKind.kwalk(n), seed=seed),
            check_nwalk)
        instances.append(inst)
    return Workload(instances, largest=f"cfi-{SINGLE_GRIDS[-1]}")


# ---------------------------------------------------------------------------
# cfi-pairs


PAIR_GRIDS = (4, 6, 7)  # 54, 86 and 102 joint vertices
CONTROL_GRID = 6


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _walk_count(res, n):
    code, text = res[(f"pair-{n}", "lower-bound")]
    rows = {row["kind"]: row for row in json.loads(text)["rows"]}
    return rows["walk"]["dist_iters"], rows["kwalk"]["dist_iters"]


def cfi_pairs(seed: int) -> Workload:
    instances = []
    for i, n in enumerate(PAIR_GRIDS):
        base = cfi.grid_base(n)
        plain = cfi.build_cfi(base).graph
        twisted = _relabel(cfi.build_cfi(base, cfi.default_twist(base)).graph,
                           seed, n)
        inst = Instance(f"pair-{n}")
        prev = PAIR_GRIDS[i - 1] if i else None

        def check_lb(result, res, n=n, prev=prev):
            code, _ = result
            walk, four = _walk_count(res, n)
            out = [] if code == 0 else [f"lower-bound exit code {code}"]
            if walk is None or walk != four:
                out.append(f"walk count {walk} != 4-walk count {four}")
            if prev is not None and not walk > _walk_count(res, prev)[0]:
                out.append(f"walk count at n={n} does not exceed n={prev}")
            return out

        def check_wl(hist, res, n=n, n_tot=plain.n + twisted.n):
            walk = _walk_count(res, n)[0]
            wl = hist.distinguished_at
            ceiling = walk * math.ceil(math.log2(n_tot * n_tot))
            if wl is None or not walk <= wl <= ceiling:
                return [f"WL count {wl} outside [{walk}, {ceiling}]"]
            return []

        argv = ["lower-bound", "--n-values", str(n), "--no-timing",
                "--seed", str(seed)]
        inst.add("lower-bound", lambda _, argv=argv: _run_cli(argv), check_lb)
        inst.add("wl", lambda _, a=plain, b=twisted: refinement.stabilize(
            Workspace.from_graphs([a, b]), RefinementKind.wl()), check_wl)
        instances.append(inst)

    g = cfi.build_cfi(cfi.grid_base(CONTROL_GRID)).graph
    copy = _relabel(g, seed, 0)

    def check_control(hist, _):
        at = hist.distinguished_at
        return [] if at is None else [f"isomorphic pair distinguished at {at}"]

    control = Instance(f"control-{CONTROL_GRID}")
    control.add("walk", lambda _: refinement.stabilize(
        Workspace.from_graphs([g, copy]), RefinementKind.walk(), seed=seed),
        check_control)
    return Workload(instances + [control], largest=f"pair-{PAIR_GRIDS[-1]}")


# ---------------------------------------------------------------------------
# logic-game


FORMULA_GRAPHS = ((5, 0), (6, 1))  # (n, seed), as in criterion 8
SENTENCE_GRID = 2  # the CFI-2 pair: 2 x 11 vertices
GAME_K = 4
SCENARIOS = {
    "adjacent": lambda base, twist: game.wall_adjacent_scenario(
        base, twist, 2, GAME_K),
    "nonadjacent": lambda base, twist: game.wall_nonadjacent_scenario(
        base, twist, 1, GAME_K),
}
# grid -> scenarios: criterion 7 on grid 4, the wall-adjacent one on grid 5
GAME_CASES = {4: ("adjacent", "nonadjacent"), 5: ("adjacent",)}


def _formula_instance(n, s, seed) -> Instance:
    g = _relabel(experiments.seeded_random_graph(n, s), seed, n)
    inst = Instance(f"random-{n}")
    records, formulas = (inst.name, "kwalk-records"), (inst.name, "formulas")

    def check_records(hist, _):
        ws = Workspace.from_graphs(g)
        for m, part in enumerate(hist.partitions[1:], start=1):
            refinement.k_walk_step(ws, 3)
            if ws.partition() != part:
                return [f"iteration {m} differs from the algebra route"]
        return []

    def evaluate(res):
        hist, table = res[records], res[formulas]
        return {
            (m, cls): walk_logic.eval_matrix(table[cls], g)
            for m, rec in enumerate(hist.walk_records, start=1)
            for cls in np.unique(rec.new_tables[0]).tolist()
        }

    def check_eval(values, res):
        hist, table = res[records], res[formulas]
        out = []
        for (m, cls), mat in values.items():
            depth = table[cls].quantifier_depth
            if depth != m:
                out.append(f"class {cls} formula has depth {depth} != {m}")
            colors = hist.walk_records[m - 1].new_tables[0]
            if not np.array_equal(mat, colors == cls):
                out.append(f"class {cls} formula is not its indicator")
        return out

    inst.add("kwalk-records", lambda _: refinement.stabilize(
        Workspace.from_graphs(g), RefinementKind.kwalk(3), max_iterations=3,
        record_walk_multisets=True), check_records)
    inst.add("formulas", lambda res: walk_logic.class_formulas(res[records]),
             lambda table, _: [])
    inst.add("eval", evaluate, check_eval)
    return inst


def _sentence_instance(seed) -> Instance:
    base = cfi.grid_base(SENTENCE_GRID, allow_degenerate=True)
    g1 = _relabel(cfi.build_cfi(base).graph, seed, 1)
    g2 = _relabel(cfi.build_cfi(base, cfi.default_twist(base)).graph, seed, 2)
    inst = Instance(f"pair-{SENTENCE_GRID}")
    sentence_key = (inst.name, "sentence")

    def check_sentence(sentence, _):
        dist = refinement.stabilize(
            Workspace.from_graphs([g1, g2]),
            RefinementKind.kwalk(3)).distinguished_at
        out = []
        if dist is None or sentence.quantifier_depth != dist + 1:
            out.append(f"sentence depth {sentence.quantifier_depth} != "
                       f"distinguished_at {dist} + 1")
        # the sentence holds class formulas of every operator as subterms
        text = walk_logic.to_sexpr(sentence)
        if walk_logic.parse_sexpr(text) is not sentence:
            out.append("the sentence does not survive an S-expression "
                       "round trip")
        return out

    def check_values(values, _):
        return [] if values[0] != values[1] else [
            f"sentence has value {values[0]} on both graphs"]

    inst.add("sentence", lambda _: walk_logic.synth_distinguishing_sentence(
        g1, g2, 3), check_sentence)
    inst.add("sentence-eval", lambda res: tuple(
        walk_logic.eval_sentence(res[sentence_key], h) for h in (g1, g2)),
        check_values)
    return inst


def _verdict(what):
    return lambda ok, _: [] if ok is True else [f"{what} fails"]


def _game_instance(grid, labels) -> Instance:
    base = cfi.grid_base(grid)
    twist = cfi.default_twist(base)
    g_plain, g_twisted = cfi.build_cfi(base), cfi.build_cfi(base, twist)
    inst = Instance(f"grid-{grid}")

    def check_onto(bij, _):
        images = {bij.map_tuple(w)
                  for w in np.ndindex(*([g_plain.n] * (GAME_K - 1)))}
        want = g_plain.n ** (GAME_K - 1)
        return [] if len(images) == want else [
            f"bijection hits {len(images)} of {want} tuples"]

    for label in labels:
        scen = SCENARIOS[label](base, twist)
        key = (inst.name, f"{label}-bijection")
        inst.add(key[1], lambda _, scen=scen: game.duplicator_bijection(
            g_plain, g_twisted, scen.pebbles, scen.v, scen.e1, scen.e2),
            check_onto)
        inst.add(f"{label}-round-safe",
                 lambda res, scen=scen, key=key: game.verify_round_safe(
                     res[key], g_plain, g_twisted, scen.pebbles),
                 _verdict("round safety"))
        inst.add(f"{label}-component-bound",
                 lambda res, scen=scen, key=key: game.verify_component_bound(
                     res[key], scen.ell),
                 _verdict("component bound"))
    return inst


def logic_game(seed: int) -> Workload:
    instances = [_formula_instance(n, s, seed) for n, s in FORMULA_GRAPHS]
    instances.append(_sentence_instance(seed))
    instances += [_game_instance(grid, labels)
                  for grid, labels in GAME_CASES.items()]
    return Workload(instances, largest=f"grid-{max(GAME_CASES)}")


WORKLOADS = {
    "random-dims": random_dims,
    "cfi-single": cfi_single,
    "cfi-pairs": cfi_pairs,
    "logic-game": logic_game,
}
