"""Spans and counts around calls into walkref's public functions.

The tracer is installed from outside the package: each traced function is
replaced by a wrapper in every walkref module that holds a reference to it,
because the package binds names with ``from ... import``.  A span records
its name, start, end and parent; spans stay in memory until the round ends.
Counts are read from the wrapped calls' return values (and, for products
tried, from ``MatrixSpanBasis.insert``).  While ``active`` is false the
wrappers call straight through, so correctness checks add nothing.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (metric name, unit, better); ``.s`` metrics are summed self time
PER_LAYER = (
    ("cfi.build_cfi.s", "s", "lower"),
    ("graph_core.PairPartition.from_colorings.s", "s", "lower"),
    ("refinement.stabilize.s", "s", "lower"),
    ("refinement.stabilize.iterations", "count", "lower"),
    ("refinement.wl_step.s", "s", "lower"),
    ("refinement.wl_step.calls", "count", "lower"),
    ("refinement.k_walk_step.s", "s", "lower"),
    ("refinement.walk_step.s", "s", "lower"),
    ("refinement.naive_k_walk_step.s", "s", "lower"),
    ("algebra.grow_products.s", "s", "lower"),
    ("algebra.grow_products.check.s", "s", "lower"),
    ("algebra.grow_products.basis_mib", "MiB", "lower"),
    ("algebra.MatrixSpanBasis.insert.calls", "count", "lower"),
    ("algebra.MatrixSpanBasis.insert.kept", "count", "lower"),
    ("algebra.closure.keep_ratio", "ratio", "higher"),
    ("algebra.partition_from_span.s", "s", "lower"),
    ("algebra.sampled_span_profile.ranked.s", "s", "lower"),
    ("algebra.sampled_span_profile.unranked.s", "s", "lower"),
    ("algebra.sampled_span_profile.calls", "count", "lower"),
    ("algebra.sampled_span_profile.lengths_used", "count", "lower"),
    ("algebra.sampled.useful_length_ratio", "ratio", "higher"),
    ("walk_logic.class_formulas.s", "s", "lower"),
    ("walk_logic.synth_distinguishing_sentence.s", "s", "lower"),
    ("walk_logic.eval_matrix.s", "s", "lower"),
    ("walk_logic.eval_matrix.calls", "count", "lower"),
    ("walk_logic.dag_size", "count", "lower"),
    ("game.duplicator_bijection.s", "s", "lower"),
    ("game.verify_round_safe.s", "s", "lower"),
    ("game.verify_round_safe.tuples", "count", "lower"),
    ("game.verify_component_bound.s", "s", "lower"),
    ("experiments.driver.s", "s", "lower"),
    ("cli.main.s", "s", "lower"),
)

_MIB = 1024.0 * 1024.0


class Tracer:
    """In-memory span list plus named counters for one round."""

    def __init__(self):
        self.active = False
        self.spans = []      # [name, start, end, parent index, child time]
        self._stack = []
        self.counts = defaultdict(int)

    def enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, 0.0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def leave(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self._stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]

    def wrap(self, fn, name, on_result=None):
        """``name`` is a string or a function of the call's arguments."""

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            label = name if isinstance(name, str) else name(*args, **kwargs)
            index = self.enter(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave(index)
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> dict:
        out = defaultdict(float)
        for name, start, end, _, child in self.spans:
            out[name] += (end - start) - child
        return out

    def span_counts(self) -> dict:
        out = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out

    def per_layer(self) -> dict:
        """Every PER_LAYER metric; 0 where the workload skips the layer."""
        st, calls, c = self.self_times(), self.span_counts(), self.counts
        values = {
            "algebra.sampled_span_profile.calls":
                calls["algebra.sampled_span_profile.ranked"]
                + calls["algebra.sampled_span_profile.unranked"],
            "refinement.wl_step.calls": calls["refinement.wl_step"],
            "walk_logic.eval_matrix.calls": calls["walk_logic.eval_matrix"],
            "algebra.closure.keep_ratio": _ratio(
                c["algebra.MatrixSpanBasis.insert.kept"],
                c["algebra.MatrixSpanBasis.insert.calls"]),
            "algebra.sampled.useful_length_ratio": _ratio(
                c["algebra.sampled_span_profile.stabilized_length"],
                c["algebra.sampled_span_profile.lengths_used"]),
        }
        for name, unit, _ in PER_LAYER:
            if name in values:
                continue
            if unit == "s":
                values[name] = st[name[:-2]]
            else:
                values[name] = c[name]
        return {name: values[name] for name, _, _ in PER_LAYER}


def _ratio(num, den):
    return num / den if den else 0.0


def _replace_everywhere(original, replacement) -> None:
    """Rebind every walkref module attribute that refers to ``original``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("walkref"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the traced walkref functions; call once per process."""
    import walkref.algebra as algebra
    import walkref.cfi as cfi
    import walkref.cli as cli
    import walkref.experiments as experiments
    import walkref.game as game
    import walkref.graph_core as graph_core
    import walkref.refinement as refinement
    import walkref.walk_logic as walk_logic

    c = tracer.counts

    def stabilize_done(hist, *args, **kwargs):
        c["refinement.stabilize.iterations"] += hist.iterations

    def grow_name(basis, *args, **kwargs):
        # the second-prime closure is the cross-check of the first
        if getattr(basis.domain, "p", None) == algebra.PRIME_2:
            return "algebra.grow_products.check"
        return "algebra.grow_products"

    def grow_done(result, *args, **kwargs):
        rows = result[0].row_vectors()
        nbytes = getattr(rows, "nbytes", 0) / _MIB
        key = "algebra.grow_products.basis_mib"
        c[key] = max(c[key], nbytes)

    def sampled_name(*args, want_rank=False, **kwargs):
        kind = "ranked" if want_rank else "unranked"
        return f"algebra.sampled_span_profile.{kind}"

    def sampled_done(prof, *args, **kwargs):
        c["algebra.sampled_span_profile.lengths_used"] += prof.lengths_used
        c["algebra.sampled_span_profile.stabilized_length"] += \
            prof.stabilized_length

    def formulas_done(table, *args, **kwargs):
        c["walk_logic.dag_size"] += sum(f.dag_size for f in table.values())

    def sentence_done(result, *args, **kwargs):
        sentence = result[0] if isinstance(result, tuple) else result
        c["walk_logic.dag_size"] += sentence.dag_size

    def round_safe_done(result, bij, g_plain, g_twisted, pebbles, *a, **k):
        c["game.verify_round_safe.tuples"] += g_plain.n ** (pebbles.k - 1)

    functions = [
        (cfi, "build_cfi", "cfi.build_cfi", None),
        (refinement, "stabilize", "refinement.stabilize", stabilize_done),
        *[(refinement, attr, f"refinement.{attr}", None)
          for attr in ("wl_step", "k_walk_step", "walk_step",
                       "naive_k_walk_step")],
        (algebra, "grow_products", grow_name, grow_done),
        (algebra, "partition_from_span", "algebra.partition_from_span", None),
        (algebra, "sampled_span_profile", sampled_name, sampled_done),
        (walk_logic, "class_formulas", "walk_logic.class_formulas",
         formulas_done),
        (walk_logic, "synth_distinguishing_sentence",
         "walk_logic.synth_distinguishing_sentence", sentence_done),
        (walk_logic, "eval_matrix", "walk_logic.eval_matrix", None),
        (game, "duplicator_bijection", "game.duplicator_bijection", None),
        (game, "verify_round_safe", "game.verify_round_safe",
         round_safe_done),
        (game, "verify_component_bound", "game.verify_component_bound", None),
        (experiments, "run_lower_bound", "experiments.driver", None),
        (experiments, "walk_dimension_chain", "experiments.driver", None),
        (cli, "main", "cli.main", None),
    ]
    for module, attr, name, on_result in functions:
        original = getattr(module, attr)
        _replace_everywhere(original, tracer.wrap(original, name, on_result))

    from_colorings = graph_core.PairPartition.from_colorings
    graph_core.PairPartition.from_colorings = staticmethod(tracer.wrap(
        from_colorings, "graph_core.PairPartition.from_colorings"))

    insert = algebra.MatrixSpanBasis.insert

    def counted_insert(self, vec):
        kept = insert(self, vec)
        if tracer.active:
            c["algebra.MatrixSpanBasis.insert.calls"] += 1
            c["algebra.MatrixSpanBasis.insert.kept"] += kept
        return kept

    algebra.MatrixSpanBasis.insert = counted_insert
