"""Experiment drivers and report emission.

Each driver runs a family of refinement experiments and returns an
``ExperimentReport``: one row per refinement history with a fixed CSV
column set, a dictionary of boolean verdicts, and the configuration the
verdicts were checked against.  Reports are deterministic given
(parameters, seed, arithmetic mode) when timing capture is disabled.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .cfi import build_cfi, default_twist, grid_base
from .graph_core import PartitionOrder, SimpleGraph, compare_partitions
from .refinement import (
    RefinementHistory,
    RefinementKind,
    Workspace,
    check_arith,
    k_walk_step,
    naive_k_walk_step,
    stabilize,
    wl_step,
)

CSV_COLUMNS = (
    "n", "kind", "k", "stab_iters", "dist_iters", "dim_first", "dim_last", "ms"
)


def lower_bound_window(n: int) -> tuple:
    """Expected distinguishing-count window for grid parameter n.

    The constants were frozen after the first empirical pass (measured
    counts 2, 3, 4, 5 at n = 4, 6, 8, 10) and are reported as
    configuration, not as ground truth.
    """
    return (math.ceil((n - 6) / 2), math.ceil(n / 2) + 2)


EDGE_PROBABILITY = 0.35

# the property suite's corpus: seeded random graphs on 4 + seed % 4
# vertices, the k-walk steps checked on each, and CFI grids
SUITE_SEEDS = tuple(range(12))
SUITE_K_VALUES = (2, 3, 4)
SUITE_CFI_GRIDS = (3, 4)


def seeded_random_graph(n: int, seed: int) -> SimpleGraph:
    """Deterministic Erdos-Renyi-style graph keyed by (n, seed)."""
    rng = np.random.default_rng((n, seed))
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n)
        if rng.random() < EDGE_PROBABILITY
    ]
    return SimpleGraph.from_edges(n, edges)


@dataclass
class ExperimentReport:
    """Rows plus verdicts; JSON mirrors the CSV and adds the verdicts."""

    name: str
    arith: str
    include_timing: bool
    rows: list = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        def leaves(v):
            if isinstance(v, dict):
                for x in v.values():
                    yield from leaves(x)
            elif isinstance(v, bool):
                yield v

        return all(leaves(self.verdicts))

    def add_row(self, n: int, hist: RefinementHistory,
                seconds: float) -> None:
        """One row for instance parameter ``n``, read off its history."""
        self.rows.append({
            "n": n,
            "kind": hist.kind.name,
            "k": hist.kind.k,
            "stab_iters": hist.iterations,
            "dist_iters": hist.distinguished_at,
            "dim_first": hist.dims[0] if hist.dims else None,
            "dim_last": hist.dims[-1] if hist.dims else None,
            "ms": round(seconds * 1000, 1) if self.include_timing else 0.0,
        })

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.name,
            "version": __version__,
            "arith": self.arith,
            "config": self.config,
            "rows": [
                {**row, "version": __version__, "arith": self.arith}
                for row in self.rows
            ],
            "verdicts": self.verdicts,
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for row in self.rows:
            lines.append(",".join(
                "" if row[c] is None else str(row[c]) for c in CSV_COLUMNS
            ))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# dimension chains


def walk_dimension_chain(g: SimpleGraph, *, arith: str = "prime2",
                         seed: int = 0, method: str = "auto") -> dict:
    """Induced-algebra dimension per walk-refinement iteration.

    ``dims[i]`` is the dimension of the coloring entering iteration i + 1;
    ``strictly_increasing`` asserts strict growth at every iteration that
    refined the partition.  Note the final refining iteration can leave the
    algebra unchanged (the refined partition may already be spanned by the
    closed algebra), in which case the flag is honestly False.

    The chain comes from the exact closure at every size, so ``seed`` and
    ``method`` are not used; they stay in the signature because the
    benchmark's ``cfi-single`` workload passes both.
    """
    ws = Workspace.from_graphs(g)
    hist = stabilize(ws, RefinementKind.walk(), record_dims=True,
                     arith=arith)
    dims = hist.dims
    return {
        "n": g.n,
        "dims": [int(d) for d in dims],
        "strictly_increasing": all(
            dims[i] > dims[i - 1] for i in range(1, len(dims))
        ),
        "iterations": hist.iterations,
    }


# ---------------------------------------------------------------------------
# experiment: WL vs n-walk per-iteration disagreement on the grid family


def run_remark_disagreement(n_values=tuple(range(2, 11)), *, seed: int = 0,
                            arith: str = "prime2",
                            include_timing: bool = True) -> ExperimentReport:
    """On the CFI graph of the pendant 2 x n grid, compare the WL and
    n-walk iteration trails: every pre-stable partition of one should
    differ from every pre-stable partition of the other, while the stable
    partitions coincide.  (At n = 2 the 2-walk refinement IS WL, so the
    pre-stable trails coincide and the disagreement verdict fails there.)
    """
    report = ExperimentReport("remark-disagreement", arith, include_timing)
    if n_values:
        # refuse the largest graph's arithmetic before refining any
        check_arith(arith, _remark_graph(max(n_values)).n)
    per_n = {}
    for n in n_values:
        g = _remark_graph(n)
        t0 = time.perf_counter()
        hist_wl = stabilize(Workspace.from_graphs(g), RefinementKind.wl())
        t1 = time.perf_counter()
        hist_kw = stabilize(Workspace.from_graphs(g), RefinementKind.kwalk(n),
                            seed=seed, arith=arith)
        t2 = time.perf_counter()
        pre_wl = [p for p in hist_wl.partitions[1:]
                  if p != hist_wl.stable_partition]
        pre_kw = [p for p in hist_kw.partitions[1:]
                  if p != hist_kw.stable_partition]
        disagree = all(p != q for p in pre_wl for q in pre_kw)
        stable_equal = hist_wl.stable_partition == hist_kw.stable_partition
        per_n[str(n)] = {"pre_stable_disagree": disagree,
                         "stable_equal": stable_equal}
        report.add_row(n, hist_wl, t1 - t0)
        report.add_row(n, hist_kw, t2 - t1)
    report.verdicts = {
        "per_n": per_n,
        "all_disagree_except_stable": all(
            v["pre_stable_disagree"] and v["stable_equal"]
            for v in per_n.values()
        ),
    }
    return report


def _remark_graph(n: int) -> SimpleGraph:
    """The CFI graph of the pendant 2 x n grid, degenerate at n = 2."""
    return build_cfi(grid_base(n, allow_degenerate=n < 3)).graph


# ---------------------------------------------------------------------------
# experiment: distinguishing-iteration lower-bound shape on CFI pairs


def run_lower_bound(n_values=(4, 6, 8, 10), *, seed: int = 0,
                    arith: str = "prime2",
                    include_timing: bool = True) -> ExperimentReport:
    """Walk vs 4-walk distinguishing counts on (plain, twisted) CFI pairs.

    Checks that both refinements need the same number of iterations, that
    the count grows by 1 or 2 per n-step of 2, and that it stays inside
    the frozen window around n / 2.  Additionally, one n-walk iteration
    separates loop classes of different gadgets while one 4-walk iteration
    does not (checked for n > 4; at n = 4 both operators coincide).
    """
    n_values = tuple(n_values)
    if n_values:
        # refuse the largest pair's arithmetic before refining any
        check_arith(arith, 2 * build_cfi(grid_base(max(n_values))).n)
    report = ExperimentReport("lower-bound", arith, include_timing)
    report.config["window"] = {
        str(n): list(lower_bound_window(n)) for n in n_values
    }
    counts = {}
    equal_counts, in_window, stab_bound, gadget_sep = {}, {}, {}, {}
    for n in n_values:
        base = grid_base(n)
        cfi = build_cfi(base)
        g1 = cfi.graph
        g2 = build_cfi(base, default_twist(base)).graph
        for kind in (RefinementKind.walk(), RefinementKind.kwalk(4)):
            t0 = time.perf_counter()
            hist = stabilize(Workspace.from_graphs([g1, g2]), kind,
                             seed=seed, arith=arith)
            report.add_row(n, hist, time.perf_counter() - t0)
            counts[(n, kind.name)] = hist.distinguished_at
            if kind.name == "walk":
                stab_bound[str(n)] = hist.iterations <= 2 * (g1.n + g2.n)
        equal_counts[str(n)] = counts[(n, "walk")] == counts[(n, "kwalk")]
        lo, hi = lower_bound_window(n)
        in_window[str(n)] = (counts[(n, "walk")] is not None
                             and lo <= counts[(n, "walk")] <= hi)
        if n > 4:
            gadget_sep[str(n)] = _gadget_separation_beats_4walk(
                cfi, n, seed=seed, arith=arith
            )
    walk_counts = [counts[(n, "walk")] for n in n_values]
    steps = list(zip(walk_counts, walk_counts[1:]))
    report.verdicts = {
        "counts_equal_walk_vs_4walk": equal_counts,
        "strictly_increasing": all(a < b for a, b in steps),
        "growth_steps_in_1_2": all(b - a in (1, 2) for a, b in steps),
        "in_window": in_window,
        "walk_stabilizes_within_2n": stab_bound,
        "n_walk_gadget_separation_beats_4walk": gadget_sep,
    }
    report.config["walk_counts"] = {
        str(n): counts[(n, "walk")] for n in n_values
    }
    return report


def _gadget_separation_beats_4walk(cfi, n, *, seed, arith) -> bool:
    """After one iteration, n-walk splits some pair of loop classes across
    gadgets that 4-walk leaves merged."""
    loops = {}
    for k in (4, n):
        ws = Workspace.from_graphs(cfi.graph)
        k_walk_step(ws, k, seed=seed, arith=arith)
        loops[k] = np.diag(ws.colorings[0].color)
    origin = np.array([bv for bv, _ in cfi.vertex_origin])
    split = (np.triu(origin[:, None] != origin[None, :], 1)
             & (loops[4][:, None] == loops[4][None, :])
             & (loops[n][:, None] != loops[n][None, :]))
    return bool(split.any())


# ---------------------------------------------------------------------------
# experiment: bundled invariant suite


def run_property_suite(*, arith: str = "prime2",
                       include_timing: bool = True) -> ExperimentReport:
    """Oracle equivalence, simulation, monotonicity, dimension-chain, and
    isomorphism-invariance checks over the seeded random graphs and CFI
    grids of the suite's corpus."""
    report = ExperimentReport("property-suite", arith, include_timing)
    randoms = [seeded_random_graph(4 + s % 4, s) for s in SUITE_SEEDS]
    graphs = randoms + [build_cfi(grid_base(n)).graph for n in SUITE_CFI_GRIDS]
    # the isomorphism check refines each graph jointly with a relabelled copy
    check_arith(arith, 2 * max(g.n for g in graphs))

    oracle_ok, wl_ok = True, True
    for g in randoms:
        for k in SUITE_K_VALUES:
            ws_a = Workspace.from_graphs(g)
            k_walk_step(ws_a, k, arith=arith)
            ws_b = Workspace.from_graphs(g)
            naive_k_walk_step(ws_b, k)
            if ws_a.partition() != ws_b.partition():
                oracle_ok = False
            if k == 2:
                # WL against the naive 2-walk enumeration, not the sampler
                ws_c = Workspace.from_graphs(g)
                wl_step(ws_c)
                if ws_b.partition() != ws_c.partition():
                    wl_ok = False

    simulation_ok = True
    for g in graphs:
        for k in SUITE_K_VALUES:
            ws_w = Workspace.from_graphs(g)
            for _ in range(math.ceil(math.log2(k))):
                wl_step(ws_w)
            ws_k = Workspace.from_graphs(g)
            k_walk_step(ws_k, k, arith=arith)
            order = compare_partitions(ws_w.partition(), ws_k.partition())
            if order not in (PartitionOrder.EQUAL, PartitionOrder.FINER):
                simulation_ok = False

    monotone_ok, dims_ok, iso_ok = True, True, True
    for idx, g in enumerate(graphs):
        t0 = time.perf_counter()
        ws = Workspace.from_graphs(g)
        hist = stabilize(ws, RefinementKind.walk(), record_dims=True,
                         arith=arith)
        for prev, cur in zip(hist.partitions, hist.partitions[1:]):
            if compare_partitions(cur, prev) not in (
                PartitionOrder.EQUAL, PartitionOrder.FINER
            ):
                monotone_ok = False
        if any(b < a for a, b in zip(hist.dims, hist.dims[1:])):
            dims_ok = False
        rng = np.random.default_rng((g.n, idx))
        perm = rng.permutation(g.n).tolist()
        ws2 = Workspace.from_graphs([g, g.relabel(perm)])
        hist2 = stabilize(ws2, RefinementKind.walk(), arith=arith)
        if hist2.distinguished_at is not None:
            iso_ok = False
        report.add_row(g.n, hist, time.perf_counter() - t0)

    report.verdicts = {
        "oracle_equivalence": oracle_ok,
        "two_walk_equals_wl": wl_ok,
        "simulation_log_wl_refines_kwalk": simulation_ok,
        "refinement_monotone": monotone_ok,
        "dims_nondecreasing": dims_ok,
        "isomorphism_invariance": iso_ok,
    }
    return report


__all__ = [
    "CSV_COLUMNS",
    "ExperimentReport",
    "lower_bound_window",
    "seeded_random_graph",
    "walk_dimension_chain",
    "run_remark_disagreement",
    "run_lower_bound",
    "run_property_suite",
]
