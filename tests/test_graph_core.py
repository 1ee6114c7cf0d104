import json
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walkref import graph_core
from walkref.graph_core import (
    EDGE,
    LOOP,
    NONEDGE,
    ColoredCompleteGraph,
    PairPartition,
    PartitionOrder,
    SimpleGraph,
    compare_partitions,
    group_rows,
    initial_coloring,
    load_graph_json,
)
from walkref.refinement import Workspace


@dataclass
class InvariantReport:
    loop_disjoint: bool
    converse_equivalent: bool
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.loop_disjoint and self.converse_equivalent


def check_invariants(c: ColoredCompleteGraph) -> InvariantReport:
    """Exhaustively verify loop/non-loop color disjointness and converse
    equivalence."""
    n = c.n
    loop_colors = set(np.diag(c.color).tolist())
    off = c.color[~np.eye(n, dtype=bool)]
    offdiag_colors = set(off.tolist()) if n > 1 else set()
    violations = []
    bad = loop_colors & offdiag_colors
    loop_disjoint = not bad
    if bad:
        violations.append(("loop_color_reused_offdiagonal", sorted(bad)))

    # converse equivalence: color(u,v) must determine color(v,u)
    forward = c.color.ravel()
    backward = c.color.T.ravel()
    conv = {}
    converse_ok = True
    for f, b in zip(forward.tolist(), backward.tolist()):
        prev = conv.setdefault(f, b)
        if prev != b:
            converse_ok = False
            violations.append(("converse_violation", f, prev, b))
            break
    return InvariantReport(loop_disjoint, converse_ok, violations)


def cycle(n):
    return SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def random_graph(n, seed):
    rng = np.random.default_rng(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
    return SimpleGraph.from_edges(n, edges)


def json_values():
    """Arbitrary JSON values: nested lists and objects over bools, floats,
    ints far past 64 bits and strings."""
    scalars = st.one_of(st.none(), st.booleans(), st.floats(),
                        st.integers(-(10**40), 10**40), st.text(max_size=8))
    return st.recursive(scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(["n", "edges", "x"]), inner,
                        max_size=3)), max_leaves=12)


class TestSimpleGraph:
    def test_rejects_loops_and_duplicates(self):
        with pytest.raises(ValueError):
            SimpleGraph.from_edges(3, [(0, 0)])
        with pytest.raises(ValueError):
            SimpleGraph.from_edges(3, [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            SimpleGraph.from_edges(2, [(0, 5)])

    def test_adjacency_symmetric(self):
        g = cycle(5)
        a = g.adjacency()
        assert np.array_equal(a, a.T)
        assert a.sum() == 10

    def test_relabel_preserves_degree_multiset(self):
        g = random_graph(7, 1)
        perm = [3, 0, 6, 1, 5, 2, 4]
        h = g.relabel(perm)
        deg = lambda gr: sorted(gr.adjacency().sum(axis=0).tolist())
        assert deg(g) == deg(h)
        assert g.has_edge(0, 1) == h.has_edge(perm[0], perm[1]) or not g.has_edge(0, 1)

    def test_json_round_trip(self):
        g = random_graph(6, 2)
        again = load_graph_json(json.dumps(g.to_json_dict()))
        assert again == g

    def test_json_rejects_malformed(self):
        with pytest.raises(ValueError):
            load_graph_json({"edges": [[0, 1]]})
        with pytest.raises(ValueError):
            load_graph_json({"n": 0, "edges": []})
        with pytest.raises(ValueError):
            load_graph_json({"n": 3, "edges": [[1, 1]]})

    @settings(deadline=None, max_examples=200)
    @given(st.one_of(
        json_values(),
        st.fixed_dictionaries({"n": json_values(), "edges": json_values()}),
        st.fixed_dictionaries({"n": st.integers(-2, 6), "edges": st.lists(
            st.lists(st.one_of(st.integers(-2, 6), json_values()),
                     max_size=3), max_size=6)}),
    ))
    def test_json_fuzz_raises_only_value_error(self, value):
        try:
            g = load_graph_json(json.dumps(value))
        except ValueError:
            return
        assert load_graph_json(g.to_json_dict()) == g

    def test_json_deep_nesting_is_value_error(self):
        with pytest.raises(ValueError):
            load_graph_json("[" * 100000)


class TestInitialColoring:
    def test_three_atoms(self):
        c = initial_coloring(cycle(4))
        assert set(np.diag(c.color)) == {LOOP}
        assert c.color[0, 1] == EDGE
        assert c.color[0, 2] == NONEDGE
        assert check_invariants(c).ok

    def test_invariant_checker_catches_violations(self):
        c = initial_coloring(cycle(4))
        bad = c.copy()
        bad.color[1, 2] = LOOP  # reuse loop color off-diagonal
        rep = check_invariants(bad)
        assert not rep.loop_disjoint
        asym = c.copy()
        asym.color[0, 1] = NONEDGE  # (1,0) still EDGE
        rep = check_invariants(asym)
        assert not rep.converse_equivalent


class TestInterner:
    """Class ids: the three atoms, then the workspace's counter."""

    def test_atoms_fixed(self):
        assert (LOOP, EDGE, NONEDGE) == (0, 1, 2)
        assert Workspace.from_graphs(cycle(3)).fresh_class_block(1) == 3

    def test_fresh_blocks_disjoint(self):
        ws = Workspace.from_graphs(cycle(3))
        a = ws.fresh_class_block(3)
        b = ws.fresh_class_block(3)
        assert len({a, a + 1, a + 2, b, b + 1, b + 2}) == 6


class TestPairPartition:
    def test_canonical_labels(self):
        p = PairPartition((2,), [7, 7, 3, 9])
        assert p.labels.tolist() == [0, 0, 1, 2]
        assert p.num_classes == 3

    def test_equality_after_relabeling(self):
        p = PairPartition((2,), [5, 5, 1, 2])
        q = PairPartition((2,), [0, 0, 8, 9])
        assert p == q and hash(p) == hash(q)

    def test_block(self):
        c = initial_coloring(cycle(3))
        p = PairPartition.from_colorings([c])
        assert p.block(0)[1, 1] == p.block(0)[2, 2]
        assert p.block(0).shape == (3, 3)

    def test_color_multiset(self):
        p = PairPartition.from_colorings([initial_coloring(cycle(4))])
        counts = dict(p.color_multiset(0))
        assert counts == {0: 4, 1: 8, 2: 4}

    def test_compare_orders(self):
        coarse = PairPartition((2,), [0, 0, 0, 1])
        fine = PairPartition((2,), [0, 1, 2, 3])
        other = PairPartition((2,), [0, 1, 1, 0])
        assert compare_partitions(fine, coarse) == PartitionOrder.FINER
        assert compare_partitions(coarse, fine) == PartitionOrder.COARSER
        assert compare_partitions(coarse, coarse) == PartitionOrder.EQUAL
        assert compare_partitions(other, coarse) == PartitionOrder.INCOMPARABLE

    def test_universe_mismatch_raises(self):
        with pytest.raises(ValueError):
            compare_partitions(PairPartition((2,), [0] * 4), PairPartition((3,), [0] * 9))


@given(st.lists(st.integers(0, 5), min_size=9, max_size=9))
def test_canonicalization_idempotent(labels):
    p = PairPartition((3,), labels)
    q = PairPartition((3,), p.labels)
    assert np.array_equal(p.labels, q.labels)


@given(
    st.lists(st.integers(0, 3), min_size=4, max_size=4),
    st.lists(st.integers(0, 3), min_size=4, max_size=4),
)
def test_compare_antisymmetric(a, b):
    p, q = PairPartition((2,), a), PairPartition((2,), b)
    r, s = compare_partitions(p, q), compare_partitions(q, p)
    flip = {
        PartitionOrder.FINER: PartitionOrder.COARSER,
        PartitionOrder.COARSER: PartitionOrder.FINER,
        PartitionOrder.EQUAL: PartitionOrder.EQUAL,
        PartitionOrder.INCOMPARABLE: PartitionOrder.INCOMPARABLE,
    }
    assert s == flip[r]


def _sorted_row_labels(a):
    """Reference first-occurrence row labels from a structured-row sort."""
    a = np.ascontiguousarray(a)
    rows = a.view([("", a.dtype)] * a.shape[1]).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


@st.composite
def row_arrays(draw):
    """Integer arrays with few distinct values and many repeated rows."""
    dtype = draw(st.sampled_from([np.int64, np.uint64]))
    info = np.iinfo(dtype)
    values = st.integers(-3 if dtype is np.int64 else 0, 3) | st.sampled_from(
        [int(info.min), int(info.max), int(info.max) // 2 + 1])
    pool = np.array(draw(st.lists(values, min_size=1, max_size=3)), dtype=dtype)
    width = draw(st.integers(1, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = pool[rng.integers(0, len(pool), size=(draw(st.integers(1, 5)), width))]
    a = base[rng.integers(0, len(base), size=draw(st.integers(0, 40)))]
    if draw(st.booleans()):
        a = np.asfortranarray(a)
    return a


class TestGroupRows:
    @settings(deadline=None, max_examples=150)
    @given(row_arrays())
    def test_matches_structured_sort(self, a):
        labels = group_rows(a)
        assert labels.dtype == np.int64
        assert np.array_equal(labels, _sorted_row_labels(a))

    def test_groups_columns_of_a_transposed_view(self):
        b = np.random.default_rng(1).integers(-2, 2, size=(4, 300))
        assert np.array_equal(group_rows(b.T), _sorted_row_labels(b.T))

    def test_forced_collision_stays_exact(self, monkeypatch):
        calls = []
        lexsort_groups = graph_core._lexsort_groups

        def counted(a):
            calls.append(a.shape)
            return lexsort_groups(a)

        # every row hashes to zero, so only the row check can split them
        monkeypatch.setattr(graph_core, "_row_multipliers",
                            lambda width: np.zeros(width, dtype=np.uint64))
        monkeypatch.setattr(graph_core, "_lexsort_groups", counted)
        a = np.random.default_rng(2).integers(-3, 3, size=(500, 7))
        assert np.array_equal(group_rows(a), _sorted_row_labels(a))
        assert calls == [(500, 7)]
        same = np.tile(a[:1], (4, 1))
        assert np.array_equal(group_rows(same), np.zeros(4, dtype=np.int64))
        assert len(calls) == 1
        # two rows per chunk: only the third chunk holds a second row value
        monkeypatch.setattr(graph_core, "_GROUP_CHECK_ENTRIES", 14)
        late = np.vstack([same, same[:1], a[1:2]])
        assert np.array_equal(group_rows(late), [0, 0, 0, 0, 0, 1])
        assert len(calls) == 2

    def test_high_bit_rows_hash_apart(self, monkeypatch):
        def refused(a):
            raise AssertionError("hash collision")

        monkeypatch.setattr(graph_core, "_lexsort_groups", refused)
        top = -(2**63)
        a = np.array([[0, top, top], [top, top, 0]], dtype=np.int64)
        assert group_rows(a).tolist() == [0, 1]

    @pytest.mark.parametrize("bad", [np.zeros(3, dtype=np.int64),
                                     np.zeros((2, 2)),
                                     np.zeros((2, 2), dtype=np.int32)])
    def test_rejects_other_shapes_and_dtypes(self, bad):
        with pytest.raises(ValueError):
            group_rows(bad)
