import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkref.cfi import build_cfi, default_twist, grid_base
from walkref.graph_core import BudgetExceeded, SimpleGraph
from walkref.refinement import (
    RefinementKind,
    Workspace,
    iterations_to_distinguish,
    stabilize,
)
from walkref import walk_logic
from walkref.walk_logic import (
    ADJ,
    EQ,
    TOP,
    and_,
    class_formulas,
    eval_formula,
    eval_matrix,
    eval_sentence,
    not_,
    parse_sexpr,
    synth_distinguishing_sentence,
    to_sexpr,
    walk_quant,
)


def random_graph(n, seed, p=0.4):
    rng = np.random.default_rng(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return SimpleGraph.from_edges(n, edges)


def reference_matrix(f, g):
    """Memo-free recursive evaluation: the reference for eval_matrix."""
    if f.op == "eq":
        return np.eye(g.n, dtype=bool)
    if f.op == "adj":
        return g.adjacency().astype(bool)
    if f.op == "not":
        return ~reference_matrix(f.parts[0], g)
    if f.op == "and":
        out = np.ones((g.n, g.n), dtype=bool)
        for p in f.parts:
            out &= reference_matrix(p, g)
        return out
    counts = np.eye(g.n, dtype=np.int64)
    for p in f.parts:
        counts = counts @ reference_matrix(p, g).astype(np.int64)
    return counts >= f.j


def formulas():
    """Random formula DAGs (hash-consing makes shared nodes physical)."""
    leaves = st.sampled_from([EQ, ADJ, TOP])
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            sub.map(not_),
            st.lists(sub, min_size=1, max_size=3).map(and_),
            st.tuples(st.integers(1, 4), st.lists(sub, min_size=2, max_size=3))
            .map(lambda t: walk_quant(t[0], t[1])),
        ),
        max_leaves=12,
    )


class TestEval:
    def test_eq_adj_basics(self):
        g = SimpleGraph.from_edges(3, [(0, 1)])
        assert eval_formula(EQ, g, 1, 1) and not eval_formula(EQ, g, 0, 1)
        assert eval_formula(ADJ, g, 0, 1) and not eval_formula(ADJ, g, 0, 2)
        assert not eval_formula(ADJ, g, 0, 0)

    def test_c4_two_common_neighbors(self):
        c4 = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        f = walk_quant(2, [ADJ, ADJ])
        assert eval_formula(f, c4, 0, 2)  # two 2-walks between opposites
        assert not eval_formula(f, c4, 0, 1)  # adjacent pair shares none
        g = walk_quant(3, [ADJ, ADJ])
        assert not eval_formula(g, c4, 0, 2)

    def test_top_ignores_anchors(self):
        g = random_graph(5, 7)
        assert eval_matrix(TOP, g).all()
        # a sentence padded with TOP parts evaluates the same at any anchor
        s = walk_quant(2, [TOP, ADJ, TOP])
        vals = {eval_formula(s, g, u, v) for u in range(5) for v in range(5)}
        assert len(vals) == 1

    def test_walk_counts_via_matrix_power(self):
        g = random_graph(6, 3)
        a = g.adjacency()
        walks3 = a @ a @ a
        for j in (1, 2, 5):
            f = walk_quant(j, [ADJ, ADJ, ADJ])
            assert np.array_equal(eval_matrix(f, g), walks3 >= j)

    @given(formulas(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_memoization_transparent(self, f, seed):
        g = random_graph(5, seed)
        assert np.array_equal(eval_matrix(f, g), reference_matrix(f, g))

    def test_formulas_dropped_in_a_loop_read_fresh(self):
        # each round builds and drops its formulas, so ids are reused
        g = random_graph(6, 3)
        a = g.adjacency()
        for j in range(1, 30):
            inner = and_([not_(EQ), walk_quant(j % 4 + 1, [ADJ, ADJ])])
            f = and_([walk_quant(j % 7 + 1, [ADJ, inner, ADJ]), not_(ADJ)])
            assert np.array_equal(eval_matrix(f, g), reference_matrix(f, g))
            del inner, f
        assert np.array_equal(eval_matrix(walk_quant(2, [ADJ, ADJ]), g),
                              a @ a >= 2)

    def test_equal_graphs_give_equal_results(self):
        g = random_graph(6, 4)
        twin = SimpleGraph.from_edges(6, sorted(g.edges))
        assert twin == g and twin is not g
        f = walk_quant(2, [ADJ, not_(ADJ), ADJ])
        assert np.array_equal(eval_matrix(f, g), eval_matrix(f, twin))
        assert np.array_equal(eval_matrix(f, twin), reference_matrix(f, g))

    def test_results_are_read_only(self):
        g = random_graph(5, 2)
        f = walk_quant(1, [ADJ, ADJ])
        for h in (EQ, ADJ, not_(ADJ), and_([ADJ, f]), f):
            with pytest.raises(ValueError):
                eval_matrix(h, g)[0, 0] = True
        assert np.array_equal(eval_matrix(f, g), reference_matrix(f, g))

    def test_memoized_formula_still_refused(self, monkeypatch):
        g = random_graph(8, 1)
        f = and_([not_(ADJ), walk_quant(1, [ADJ, not_(EQ), ADJ])])
        eval_matrix(f, g)
        with monkeypatch.context() as m:
            m.setattr(walk_logic, "MAX_NODE_EVALS", 2)
            with pytest.raises(BudgetExceeded):
                eval_matrix(f, g)
        with monkeypatch.context() as m:
            m.setattr(walk_logic, "MAX_TUPLES_PER_QUANTIFIER", 63)
            with pytest.raises(BudgetExceeded):
                eval_matrix(f, g)
        # the widest quantifier ranges over 8^2 = 64 tuples
        monkeypatch.setattr(walk_logic, "MAX_TUPLES_PER_QUANTIFIER", 64)
        monkeypatch.setattr(walk_logic, "MAX_NODE_EVALS", f.dag_size)
        assert eval_matrix(f, g).shape == (8, 8)

    def test_budget_guards(self, monkeypatch):
        g = random_graph(8, 1)
        with pytest.raises(ValueError):
            # 8^9 interior tuples, over MAX_TUPLES_PER_QUANTIFIER
            eval_formula(walk_quant(1, [ADJ] * 10), g, 0, 0)
        monkeypatch.setattr(walk_logic, "MAX_NODE_EVALS", 2)
        with pytest.raises(ValueError):
            eval_formula(and_([not_(ADJ), not_(EQ), ADJ]), g, 0, 0)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            walk_quant(0, [ADJ, ADJ])
        with pytest.raises(ValueError):
            walk_quant(1, [ADJ])
        with pytest.raises(ValueError):
            and_([])


class TestHashConsing:
    def test_structural_sharing(self):
        assert not_(EQ) is not_(EQ)
        assert walk_quant(2, [ADJ, EQ]) is walk_quant(2, [ADJ, EQ])
        assert walk_quant(2, [ADJ, EQ]) is not walk_quant(3, [ADJ, EQ])

    def test_dag_size_counts_shared_once(self):
        shared = not_(and_([ADJ, EQ]))  # 4 nodes
        f = and_([shared, not_(shared)])
        assert f.dag_size == 6

    def test_table_frees_dropped_formulas(self):
        gc.collect()
        before = len(walk_logic._INTERN)
        chain = [EQ]
        for j in range(1, 50):
            chain.append(walk_quant(j, [chain[-1], ADJ]))
        f = chain[-1]
        assert len(walk_logic._INTERN) == before + 49
        assert parse_sexpr(to_sexpr(f)) is f
        del chain, f
        gc.collect()
        assert len(walk_logic._INTERN) == before

    def test_depth(self):
        assert EQ.quantifier_depth == 0 and TOP.quantifier_depth == 0
        inner = walk_quant(1, [ADJ, ADJ])
        assert walk_quant(1, [inner, TOP]).quantifier_depth == 2


class TestSynthesis:
    def test_base_classes(self):
        g = random_graph(5, 11)
        ws = Workspace.from_graphs(g)
        hist = stabilize(ws, RefinementKind.kwalk(3), max_iterations=1,
                         record_walk_multisets=True)
        table = class_formulas(hist)
        init = np.zeros((5, 5), dtype=np.int64)  # loop=0/edge=1/nonedge=2
        init[:] = 2
        np.fill_diagonal(init, 0)
        init[g.adjacency().astype(bool)] = 1
        for cls in (0, 1, 2):
            assert np.array_equal(eval_matrix(table[cls], g), init == cls)
        assert table[0] is EQ and table[1] is ADJ

    def test_middle_loop_class_on_path(self):
        p3 = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
        ws = Workspace.from_graphs(p3)
        hist = stabilize(ws, RefinementKind.kwalk(2),
                         record_walk_multisets=True)
        mid = int(hist.walk_records[0].new_tables[0][1, 1])
        f = class_formulas(hist)[mid]
        assert f.quantifier_depth == 1
        truth = eval_matrix(f, p3)
        assert truth[1, 1] and truth.sum() == 1

    @pytest.mark.parametrize("n,seed", [(4, 0), (6, 1), (7, 2), (9, 3)])
    def test_exhaustive_agreement_k3(self, n, seed):
        """Every synthesized class formula matches its refinement class on
        every pair, through iteration 3."""
        g = random_graph(n, seed)
        ws = Workspace.from_graphs(g)
        hist = stabilize(ws, RefinementKind.kwalk(3), max_iterations=3,
                         record_walk_multisets=True)
        table = class_formulas(hist)
        for m, rec in enumerate(hist.walk_records, start=1):
            colors = rec.new_tables[0]
            for cls in np.unique(colors).tolist():
                f = table[cls]
                assert f.quantifier_depth == m
                assert np.array_equal(eval_matrix(f, g), colors == cls)

    def test_agreement_on_joint_workspace(self):
        g1, g2 = random_graph(6, 5), random_graph(6, 6)
        ws = Workspace.from_graphs([g1, g2])
        hist = stabilize(ws, RefinementKind.kwalk(3), max_iterations=2,
                         record_walk_multisets=True)
        table = class_formulas(hist)
        rec = hist.walk_records[-1]
        for g, colors in zip((g1, g2), rec.new_tables):
            for cls in np.unique(colors).tolist():
                assert np.array_equal(eval_matrix(table[cls], g), colors == cls)

    def test_missing_records_error(self):
        ws = Workspace.from_graphs(random_graph(4, 0))
        hist = stabilize(ws, RefinementKind.kwalk(3))
        with pytest.raises(ValueError):
            class_formulas(hist)

    def test_unknown_class_error(self):
        ws = Workspace.from_graphs(random_graph(4, 0))
        hist = stabilize(ws, RefinementKind.kwalk(3),
                         record_walk_multisets=True)
        with pytest.raises(KeyError):
            class_formulas(hist)[10**9]


class TestDistinguishingSentence:
    def test_k3_vs_k3_minus_edge(self):
        k3 = SimpleGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        k3e = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
        s = synth_distinguishing_sentence(k3, k3e, 3)
        assert s.quantifier_depth == 1  # distinguished before refining
        assert eval_sentence(s, k3) and not eval_sentence(s, k3e)

    def test_c6_vs_two_triangles(self):
        c6 = SimpleGraph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        tt = SimpleGraph.from_edges(6, [(0, 1), (1, 2), (0, 2),
                                        (3, 4), (4, 5), (3, 5)])
        s, details = synth_distinguishing_sentence(c6, tt, 3,
                                                   return_details=True)
        assert eval_sentence(s, c6) != eval_sentence(s, tt)
        assert s.quantifier_depth == details["iteration"] + 1

    def test_cfi_grid3(self):
        base = grid_base(3)
        g1 = build_cfi(base).graph
        g2 = build_cfi(base, default_twist(base)).graph
        s, details = synth_distinguishing_sentence(g1, g2, 3,
                                                   return_details=True)
        m = iterations_to_distinguish(g1, g2, RefinementKind.kwalk(3))
        assert details["iteration"] == m
        assert s.quantifier_depth == m + 1
        assert eval_sentence(s, g1) != eval_sentence(s, g2)
        # serialization of a large synthesized DAG survives a round trip
        text = to_sexpr(s)
        assert parse_sexpr(text) is s
        assert to_sexpr(parse_sexpr(text)) == text

    def test_errors(self):
        g = random_graph(5, 9)
        with pytest.raises(ValueError):
            synth_distinguishing_sentence(g, g, 3)  # identical graphs
        with pytest.raises(ValueError):
            synth_distinguishing_sentence(g, random_graph(5, 9), 2)
        with pytest.raises(ValueError):
            synth_distinguishing_sentence(g, random_graph(6, 1), 3)


class TestSerialization:
    def test_atoms_and_structure(self):
        assert to_sexpr(EQ) == "eq" and to_sexpr(ADJ) == "adj"
        assert to_sexpr(not_(ADJ)) == "(not adj)"
        assert to_sexpr(walk_quant(2, [ADJ, EQ])) == "(walk 2 adj eq)"

    def test_shared_nodes_get_labels(self):
        shared = not_(ADJ)
        text = to_sexpr(and_([shared, shared]))
        assert text == "(and #0=(not adj) #0#)"
        parsed = parse_sexpr(text)
        assert parsed.parts[0] is parsed.parts[1]

    @given(formulas())
    @settings(max_examples=100, deadline=None)
    def test_round_trip_is_identity(self, f):
        text = to_sexpr(f)
        assert parse_sexpr(text) is f
        assert to_sexpr(parse_sexpr(text)) == text

    def test_parse_errors(self):
        for bad in ["", "(not adj", "(frob eq)", "#0#", "(walk 0 eq eq)",
                    "eq adj", "(walk 2 eq)"]:
            with pytest.raises(ValueError):
                parse_sexpr(bad)

    @pytest.mark.parametrize("bad", [
        "(walk +2 eq eq)", "(walk 02 eq eq)", "(walk 0_2 eq eq)",
        "(walk \u0662 eq eq)", "#\u0660=eq", "#00=eq",
        "(and #0=(not eq) #00#)",
    ], ids=["plus", "leading-zero", "underscore", "arabic-indic-count",
            "arabic-indic-label", "label-leading-zero", "ref-leading-zero"])
    def test_non_canonical_integers_refused(self, bad):
        # to_sexpr prints counts and labels as plain ASCII decimals
        with pytest.raises(ValueError):
            parse_sexpr(bad)

    @pytest.mark.parametrize("op", ["not", "and", "walk 1"],
                             ids=["not", "and", "walk"])
    def test_deep_nesting_is_a_value_error(self, op):
        text = f"({op} " * 5000 + "eq" + ")" * 5000
        with pytest.raises(ValueError, match="nested too deeply"):
            parse_sexpr(text)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_parse_returns_a_formula_or_raises_value_error(self, data):
        # text over the S-expression alphabet, alone or spliced into a
        # serialized formula
        noise = data.draw(st.lists(st.sampled_from(
            ["(", ")", "#", "=", " ", "not ", "and ", "walk ", "eq", "adj"]
            + list("0123456789")
        ), max_size=30).map("".join))
        text = noise
        if data.draw(st.booleans()):
            text = to_sexpr(data.draw(formulas()))
            i = data.draw(st.integers(0, len(text)))
            j = data.draw(st.integers(i, len(text)))
            text = text[:i] + noise + text[j:]
        try:
            f = parse_sexpr(text)
        except ValueError:
            return
        assert parse_sexpr(to_sexpr(f)) is f
