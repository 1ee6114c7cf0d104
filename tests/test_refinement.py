import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walkref.algebra import (
    MatrixSpanBasis,
    color_matrices,
    grow_products,
    partition_from_span,
)
from walkref.cfi import build_cfi, default_twist, grid_base
from walkref.graph_core import (
    BudgetExceeded,
    ColoredCompleteGraph,
    PairPartition,
    PartitionOrder,
    SimpleGraph,
    compare_partitions,
    group_rows,
)
from walkref import algebra, refinement
from walkref.experiments import seeded_random_graph, walk_dimension_chain
from walkref.refinement import (
    RefinementKind,
    WalkRecord,
    Workspace,
    iterations_to_distinguish,
    k_walk_step,
    naive_k_walk_step,
    stabilize,
    walk_step,
    wl_step,
)
from test_algebra import colorings
from test_graph_core import check_invariants


def cycle(n):
    return SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def two_triangles():
    return SimpleGraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


def random_graph(n, seed, p=0.5):
    rng = np.random.default_rng(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return SimpleGraph.from_edges(n, edges)


# graphs whose stable walk partitions the certificate tests check
STABLE_CASES = [
    build_cfi(grid_base(3)).graph, build_cfi(grid_base(4)).graph,
    build_cfi(grid_base(5)).graph, cycle(8), two_triangles(),
    random_graph(9, 3), random_graph(11, 4, p=0.3),
]


@st.composite
def small_graphs(draw):
    n = draw(st.integers(3, 6))
    seed = draw(st.integers(0, 1000))
    return random_graph(n, seed)


def reference_wl_step(ws):
    """The 2-walk step by sorting: each pair's row is its own color, then
    the sorted color pairs (chi(u, w), chi(w, v)) over w, padded with -1
    to the widest graph.  Builds an (n, n, n) array per graph: the
    reference for the sampler's ``wl_step`` at desk scale.  The own color
    leads the row because a coloring need not tell loops from other
    pairs by color, and then the pairs alone may not refine it."""
    shift = int(max(c.color.max() for c in ws.colorings)) + 1
    width = 1 + max(ws.sizes)
    rows = []
    for c in ws.colorings:
        s = c.color[:, None, :] * shift + c.color.T[None, :, :]
        s.sort(axis=2)
        row = np.full((c.n * c.n, width), -1, dtype=np.int64)
        row[:, 0] = c.color.ravel()
        row[:, 1 : 1 + c.n] = s.reshape(c.n * c.n, c.n)
        rows.append(row)
    refinement._install_labels(ws, group_rows(np.vstack(rows)))


class TestKindValidation:
    def test_k_required(self):
        with pytest.raises(ValueError):
            RefinementKind("kwalk")
        with pytest.raises(ValueError):
            RefinementKind.kwalk(1)
        with pytest.raises(ValueError):
            RefinementKind("wl", k=3)


class TestStepAgreement:
    """The three routes to one k-walk step must produce identical partitions."""

    @pytest.mark.parametrize("seed", range(4))
    def test_wl_equals_2walk(self, seed):
        g = random_graph(6, seed)
        a, b = Workspace.from_graphs(g), Workspace.from_graphs(g)
        reference_wl_step(a)
        k_walk_step(b, 2)
        assert a.partition() == b.partition()

    @given(colorings(), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_wl_matches_sort_reference(self, cs, seed):
        """Single colorings and joint pairs: the sampled WL step against
        the sort-based one."""
        a = Workspace([c.copy() for c in cs])
        b = Workspace([c.copy() for c in cs])
        wl_step(a, seed=seed)
        reference_wl_step(b)
        assert a.partition() == b.partition()

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_naive_equals_exact(self, k, seed):
        g = random_graph(5, seed)
        a, b = Workspace.from_graphs(g), Workspace.from_graphs(g)
        naive_k_walk_step(a, k)
        k_walk_step(b, k)
        assert a.partition() == b.partition()

    @pytest.mark.parametrize("graphs,k", [
        pytest.param([random_graph(7, 3)], 2, id="2"),
        pytest.param([random_graph(7, 3)], 3, id="3"),
        pytest.param([random_graph(7, 3)], 5, id="5"),
        # beyond naive_k_walk_step's budget
        pytest.param([build_cfi(grid_base(4)).graph], 4, id="cfi4-4"),
        # 38 joint vertices
        pytest.param([build_cfi(grid_base(3)).graph,
                      build_cfi(grid_base(3), default_twist(grid_base(3))).graph],
                     3, id="cfi3-pair-3"),
    ])
    def test_sampled_equals_exact(self, graphs, k):
        """The k-walk sampler against the exact closure bounded at k."""
        ws = Workspace.from_graphs(graphs)
        basis, _ = grow_products(MatrixSpanBasis(ws.sizes),
                                 color_matrices(ws.colorings), k)
        labels = partition_from_span(basis)
        k_walk_step(ws, k, seed=17)
        assert ws.partition() == PairPartition(ws.sizes, labels)

    @pytest.mark.parametrize("g", [random_graph(7, 3),
                                   build_cfi(grid_base(3)).graph],
                             ids=["random7", "cfi3"])
    def test_k_walk_step_runs_no_closure(self, monkeypatch, g):
        def refuse(*args):
            raise AssertionError("k-walk step ran the exact closure")

        monkeypatch.setattr(refinement, "grow_products", refuse)
        k_walk_step(Workspace.from_graphs(g), 3)

    @pytest.mark.parametrize("graphs", [
        [random_graph(7, 3)], [cycle(8)], [cycle(6), two_triangles()],
    ], ids=["random7", "c8", "c6-two-triangles"])
    def test_sampled_walk_step_equals_exact(self, monkeypatch, graphs):
        """The walk-step sampler, with its 24-length window, against the
        exact whole-algebra closure."""
        a, b = Workspace.from_graphs(graphs), Workspace.from_graphs(graphs)
        walk_step(a)
        monkeypatch.setattr(refinement, "EXACT_METHOD_MAX_VERTICES", 0)
        walk_step(b, seed=17)
        assert a.partition() == b.partition()

    def test_walk_step_window(self, monkeypatch):
        """A graph whose k-walk partition has 16 classes at k = 2 and 3
        and 18 from k = 4 on: a window of one length after the last split
        stops the walk-step sampler at 16 classes."""
        g = SimpleGraph.from_edges(6, [(0, 2), (0, 4), (0, 5), (1, 2),
                                       (1, 4), (1, 5), (2, 3)])
        counts = []
        for k in (2, 3, 4, 5):
            ws = Workspace.from_graphs(g)
            k_walk_step(ws, k)
            counts.append(ws.partition().num_classes)
        assert counts == [16, 16, 18, 18]
        ws = Workspace.from_graphs(g)
        assert walk_step(ws) == 17
        assert ws.partition().num_classes == 18
        monkeypatch.setattr(refinement, "EXACT_METHOD_MAX_VERTICES", 0)
        ws = Workspace.from_graphs(g)
        assert walk_step(ws) is None
        assert ws.partition().num_classes == 18
        monkeypatch.setattr(algebra, "_STOP_WINDOW", 1)
        ws = Workspace.from_graphs(g)
        walk_step(ws)
        assert ws.partition().num_classes == 16

    @pytest.mark.parametrize("grids", [(4, 4), (4, 3)],
                             ids=["cfi4-pair-54", "cfi4-cfi3-46"])
    def test_sampler_multiplies_per_graph_blocks(self, monkeypatch, grids):
        """Above 40 joint vertices every product the sampler forms is
        n_i x n_i for one graph, never (n_1 + n_2) x (n_1 + n_2)."""
        bases = [grid_base(g) for g in grids]
        graphs = [build_cfi(bases[0]).graph,
                  build_cfi(bases[1], default_twist(bases[1])).graph]
        sizes = {g.n for g in graphs}
        shapes = []
        matmul_mod = algebra._matmul_mod

        def recorded(a, b, p, acc=None):
            shapes.append((a.shape[-2:], b.shape[-2:]))
            return matmul_mod(a, b, p, acc)

        monkeypatch.setattr(algebra, "_matmul_mod", recorded)
        ws = Workspace.from_graphs(graphs)
        assert ws.total_vertices > refinement.EXACT_METHOD_MAX_VERTICES
        walk_step(ws)
        k_walk_step(ws, 3)
        assert shapes
        assert all(a == b and a in {(n, n) for n in sizes} for a, b in shapes)

    @pytest.mark.parametrize("grids", [(3, 3), (3, 2)],
                             ids=["cfi3-pair-38", "cfi3-cfi2-30"])
    def test_closure_multiplies_per_graph_blocks(self, monkeypatch, grids):
        """Up to 40 joint vertices every product the exact closure forms is
        n_i x n_i for one graph, never (n_1 + n_2) x (n_1 + n_2).  Its
        elimination calls are 2-D and are not products of matrices."""
        bases = [grid_base(g, allow_degenerate=True) for g in grids]
        graphs = [build_cfi(bases[0]).graph,
                  build_cfi(bases[1], default_twist(bases[1])).graph]
        sizes = {g.n for g in graphs}
        shapes = []
        matmul_mod = algebra._matmul_mod

        def recorded(a, b, p, acc=None, out=None):
            if a.ndim > 2:
                shapes.append((a.shape[-2:], b.shape[-2:]))
            return matmul_mod(a, b, p, acc, out)

        monkeypatch.setattr(algebra, "_matmul_mod", recorded)
        ws = Workspace.from_graphs(graphs)
        assert ws.total_vertices <= refinement.EXACT_METHOD_MAX_VERTICES
        walk_step(ws, want_dim=True)
        assert shapes
        assert all(a == b and a in {(n, n) for n in sizes} for a, b in shapes)

    def test_joint_naive_equals_exact(self):
        g1, g2 = cycle(6), two_triangles()
        a = Workspace.from_graphs([g1, g2])
        b = Workspace.from_graphs([g1, g2])
        naive_k_walk_step(a, 3)
        k_walk_step(b, 3)
        assert a.partition() == b.partition()

    def test_walk_step_equals_large_k(self):
        g = random_graph(5, 7)
        a, b = Workspace.from_graphs(g), Workspace.from_graphs(g)
        walk_step(a)
        k_walk_step(b, 25)
        assert a.partition() == b.partition()


class TestStepProperties:
    @given(small_graphs())
    @settings(deadline=None, max_examples=25)
    def test_wl_step_refines(self, g):
        ws = Workspace.from_graphs(g)
        before = ws.partition()
        wl_step(ws)
        order = compare_partitions(ws.partition(), before)
        assert order in (PartitionOrder.FINER, PartitionOrder.EQUAL)

    @given(small_graphs(), st.integers(2, 4))
    @settings(deadline=None, max_examples=25)
    def test_kwalk_refines_and_keeps_invariants(self, g, k):
        ws = Workspace.from_graphs(g)
        before = ws.partition()
        k_walk_step(ws, k)
        order = compare_partitions(ws.partition(), before)
        assert order in (PartitionOrder.FINER, PartitionOrder.EQUAL)
        assert check_invariants(ws.colorings[0]).ok

    @given(small_graphs(), st.integers(2, 6))
    @settings(deadline=None, max_examples=25)
    def test_simulation_by_wl(self, g, k):
        """ceil(log2 k) WL steps refine at least as much as one k-walk step."""
        wl = Workspace.from_graphs(g)
        kw = Workspace.from_graphs(g)
        k_walk_step(kw, k)
        for _ in range(int(np.ceil(np.log2(k)))):
            wl_step(wl)
        order = compare_partitions(wl.partition(), kw.partition())
        assert order in (PartitionOrder.FINER, PartitionOrder.EQUAL)

    @given(small_graphs(), st.integers(2, 5))
    @settings(deadline=None, max_examples=25)
    def test_larger_k_refines_smaller(self, g, k):
        a, b = Workspace.from_graphs(g), Workspace.from_graphs(g)
        k_walk_step(a, k + 1)
        k_walk_step(b, k)
        order = compare_partitions(a.partition(), b.partition())
        assert order in (PartitionOrder.FINER, PartitionOrder.EQUAL)


class TestStabilize:
    @given(small_graphs())
    @settings(deadline=None, max_examples=15)
    def test_same_stable_partition_all_kinds(self, g):
        stable = {}
        for kind in (RefinementKind.wl(), RefinementKind.kwalk(3), RefinementKind.walk()):
            ws = Workspace.from_graphs(g)
            hist = stabilize(ws, kind)
            stable[kind.name] = hist.stable_partition
        assert stable["wl"] == stable["kwalk"] == stable["walk"]

    @given(small_graphs())
    @settings(deadline=None, max_examples=15)
    def test_walk_stabilizes_within_2n(self, g):
        ws = Workspace.from_graphs(g)
        hist = stabilize(ws, RefinementKind.walk())
        # final iteration only confirms stability
        assert hist.iterations <= 2 * g.n + 1

    def test_history_json(self):
        ws = Workspace.from_graphs([cycle(6), two_triangles()])
        hist = stabilize(ws, RefinementKind.wl())
        d = hist.to_json_dict()
        assert d["kind"] == "wl" and d["k"] is None
        assert d["iterations"] == len(d["classes_per_iteration"]) - 1
        assert d["distinguished_at"] is not None

    @pytest.mark.parametrize("g", [
        build_cfi(grid_base(3)).graph,
        *[random_graph(n, seed) for n, seed in ((12, 1), (15, 2), (18, 3))],
        random_graph(16, 5, p=0.3),
    ], ids=["cfi3", "random12", "random15", "random18", "random16-sparse"])
    def test_joint_with_relabelled_copy_keeps_dims(self, g):
        """G beside a relabelled copy generates the algebra of pairs
        (X, P X P^T), isomorphic to G's own, so the joint run gives G's
        dimension chain and iteration count."""
        perm = np.random.default_rng(g.n).permutation(g.n).tolist()
        single = stabilize(Workspace.from_graphs(g), RefinementKind.walk(),
                           record_dims=True)
        joint = stabilize(Workspace.from_graphs([g, g.relabel(perm)]),
                          RefinementKind.walk(), record_dims=True)
        assert joint.dims == single.dims
        assert joint.iterations == single.iterations
        assert joint.distinguished_at is None

    def test_dims_monotone_on_walk_run(self):
        ws = Workspace.from_graphs(cycle(8))
        hist = stabilize(ws, RefinementKind.walk(), record_dims=True)
        dims = hist.dims
        assert all(a <= b for a, b in zip(dims, dims[1:]))
        assert dims[0] >= 3  # at least the three starting colors

    @pytest.mark.parametrize("kind", [RefinementKind.wl(),
                                      RefinementKind.kwalk(3)],
                             ids=["wl", "kwalk"])
    def test_dims_need_walk_kind(self, kind):
        with pytest.raises(ValueError):
            stabilize(Workspace.from_graphs(cycle(6)), kind, record_dims=True)

    @pytest.mark.parametrize("g", STABLE_CASES)
    def test_final_dim_is_stable_class_count(self, g):
        # the stable coloring is a coherent configuration, whose algebra
        # has one basis matrix per class
        hist = stabilize(Workspace.from_graphs(g), RefinementKind.walk(),
                         record_dims=True)
        assert hist.dims[-1] == hist.stable_partition.num_classes

    @pytest.mark.parametrize("g", STABLE_CASES)
    def test_stable_partition_is_wl_stable(self, g):
        # walk refinement refines WL, so its stable partition is a fixed
        # point of one more WL step
        ws = Workspace.from_graphs(g)
        stable = stabilize(ws, RefinementKind.walk()).stable_partition
        wl_step(ws)
        assert ws.partition() == stable

    def test_walk_records_capture_counts(self):
        ws = Workspace.from_graphs(cycle(5))
        hist = stabilize(
            ws, RefinementKind.kwalk(3), record_walk_multisets=True
        )
        rec = hist.walk_records[0]
        assert rec.k == 3
        some_class = next(iter(rec.class_multisets))
        counts = rec.class_multisets[some_class]
        assert all(len(seq) == 3 for seq in counts)
        # every pair has exactly n^(k-1) walks
        assert sum(counts.values()) == 5 ** 2


def reference_walk_stabilize(ws, *, seed, arith, record_dims):
    """``stabilize(ws, walk)`` as a plain loop of walk steps until the
    partition repeats, every iteration computed: the reference for the
    coherence certificate.  Returns (partitions, dims, distinguished_at)."""
    partitions, dims = [ws.partition()], []
    while len(partitions) < 2 or partitions[-1] != partitions[-2]:
        it_seed = refinement._iter_seed(seed, len(partitions))
        dims.append(walk_step(ws, seed=it_seed, want_dim=record_dims,
                              arith=arith))
        partitions.append(ws.partition())
    distinguished_at = None
    if len(ws.sizes) == 2:
        distinguished_at = next(
            (i for i, p in enumerate(partitions)
             if p.color_multiset(0) != p.color_multiset(1)), None)
    return partitions, dims if record_dims else None, distinguished_at


@st.composite
def walk_inputs(draw):
    """An arithmetic mode and a graph, or a joint pair, of at most 12
    vertices in total: two random graphs, or a graph and a relabelled
    copy.  Rational arithmetic gets at most 7, since its Fraction closure
    of one dense 12-vertex graph takes over 20 s on a 2-CPU VM."""
    arith = draw(st.sampled_from(["prime", "prime2", "rational"]))
    top = 7 if arith == "rational" else 12
    n = draw(st.integers(1, top))
    g = random_graph(n, draw(st.integers(0, 1000)), draw(st.sampled_from(
        [0.2, 0.5, 0.8])))
    kind = draw(st.sampled_from(["single", "copy", "pair"]))
    if kind == "single" or 2 * n > top:
        return arith, [g]
    if kind == "copy":
        perm = draw(st.permutations(range(n)))
        return arith, [g, g.relabel(list(perm))]
    m = draw(st.integers(1, top - n))
    return arith, [g, random_graph(m, draw(st.integers(0, 1000)))]


class TestCoherenceCertificate:
    @given(walk_inputs(), st.booleans(), st.integers(0, 2**16))
    @settings(deadline=None, max_examples=100)
    def test_matches_uncertified_loop(self, inputs, record_dims, seed):
        arith, graphs = inputs
        hist = stabilize(Workspace.from_graphs(graphs), RefinementKind.walk(),
                         seed=seed, arith=arith, record_dims=record_dims)
        partitions, dims, distinguished_at = reference_walk_stabilize(
            Workspace.from_graphs(graphs), seed=seed, arith=arith,
            record_dims=record_dims)
        assert hist.partitions == partitions
        assert hist.dims == dims
        assert hist.iterations == len(partitions) - 1
        assert hist.distinguished_at == distinguished_at

    @pytest.mark.parametrize("g,dims,calls", [
        (build_cfi(grid_base(3)).graph, [69, 109, 109], 4),
        (seeded_random_graph(10, 1), [100, 100], 2),
    ], ids=["cfi3", "random10"])
    def test_chain_skips_the_confirming_closure(self, monkeypatch, g, dims,
                                                calls):
        """The last dimension is computed once, not again on both primes
        by a confirming iteration."""
        made = []
        grow = refinement.grow_products

        def counted(*args, **kwargs):
            made.append(1)
            return grow(*args, **kwargs)

        monkeypatch.setattr(refinement, "grow_products", counted)
        assert walk_dimension_chain(g)["dims"] == dims
        assert len(made) == calls

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_max_iterations_bounds_the_appended_iteration(self, cap):
        # CFI-3's second step certifies its coherent result, whose
        # confirming third iteration is appended only within the cap
        hist = stabilize(Workspace.from_graphs(build_cfi(grid_base(3)).graph),
                         RefinementKind.walk(), max_iterations=cap,
                         record_dims=True)
        assert hist.iterations == cap
        assert hist.dims == [69, 109, 109][:cap]


class TestDistinguish:
    def test_size_mismatch_is_zero(self):
        assert iterations_to_distinguish(cycle(5), cycle(6), RefinementKind.wl()) == 0

    def test_isomorphic_never_distinguished(self):
        g = cycle(7)
        h = g.relabel([3, 5, 0, 6, 1, 4, 2])
        assert iterations_to_distinguish(g, h, RefinementKind.wl()) is None

    def test_c6_vs_two_triangles(self):
        m = iterations_to_distinguish(cycle(6), two_triangles(), RefinementKind.wl())
        assert m == 1

    def test_initial_colors_differ(self):
        dense = random_graph(6, 0, p=0.9)
        sparse = random_graph(6, 0, p=0.1)
        assert (
            iterations_to_distinguish(dense, sparse, RefinementKind.walk()) == 0
        )

    def test_walk_never_slower_than_wl(self):
        g1, g2 = cycle(6), two_triangles()
        m_wl = iterations_to_distinguish(g1, g2, RefinementKind.wl())
        m_walk = iterations_to_distinguish(g1, g2, RefinementKind.walk())
        assert m_walk <= m_wl


def reference_naive_k_walk_step(ws, k):
    """The k-walk step as a Python loop over every walk: the reference
    for the numpy enumeration of ``naive_k_walk_step``."""
    per_pair = []  # aligned with universe order: dict seq -> count
    for c in ws.colorings:
        table, n = c.color, c.n
        for u in range(n):
            for v in range(n):
                counts = {}
                for mids in itertools.product(range(n), repeat=k - 1):
                    walk = (u, *mids, v)
                    seq = tuple(
                        int(table[walk[i], walk[i + 1]]) for i in range(k)
                    )
                    counts[seq] = counts.get(seq, 0) + 1
                per_pair.append(counts)
    sigs = [tuple(sorted(d.items())) for d in per_pair]
    seen = {}
    labels = np.array([seen.setdefault(s, len(seen)) for s in sigs],
                      dtype=np.int64)
    labels = refinement._install_labels(ws, labels)
    class_multisets = {}
    for lab, counts in zip(labels.tolist(), per_pair):
        class_multisets.setdefault(lab, counts)
    return WalkRecord(
        k=k,
        new_tables=[c.color.copy() for c in ws.colorings],
        class_multisets=class_multisets,
    )


def assert_same_records(cs, k):
    a = Workspace([c.copy() for c in cs])
    b = Workspace([c.copy() for c in cs])
    got, want = naive_k_walk_step(a, k), reference_naive_k_walk_step(b, k)
    assert len(got.new_tables) == len(want.new_tables)
    for x, y in zip(got.new_tables, want.new_tables):
        assert np.array_equal(x, y)
    assert got.class_multisets == want.class_multisets
    assert a.next_class_id == b.next_class_id


class TestNaiveEnumeration:
    @given(colorings(), st.integers(2, 4))
    @settings(max_examples=80, deadline=None)
    def test_matches_python_reference(self, cs, k):
        assert_same_records(cs, k)

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_chunks_split_first_vertices(self, monkeypatch, chunk):
        # small chunks make one first vertex span several of them
        monkeypatch.setattr(refinement, "_WALKS_PER_CHUNK", chunk)
        assert_same_records(Workspace.from_graphs(
            [cycle(6), two_triangles()]).colorings, 4)
        assert_same_records(Workspace.from_graphs(random_graph(5, 2))
                            .colorings, 3)

    def test_more_levels_than_numpy_dimensions(self):
        # numpy arrays have at most 64 dimensions
        ws = Workspace.from_graphs(SimpleGraph.from_edges(1, []))
        rec = naive_k_walk_step(ws, 70)
        assert rec.class_multisets == {0: {(0,) * 70: 1}}
        assert rec.new_tables[0].tolist() == [[3]]

    def test_key_range_refused(self, monkeypatch):
        # keys of 2 vertices, 3 colours and k = 40 reach 4 * 3^40 > 2^63
        monkeypatch.setattr(refinement, "NAIVE_WALK_BUDGET", 10**15)
        ws = Workspace([ColoredCompleteGraph(2, np.array([[0, 1], [2, 0]]))])
        with pytest.raises(BudgetExceeded, match="exceed int64"):
            naive_k_walk_step(ws, 40)


class TestNaiveBudget:
    def test_budget_enforced(self):
        ws = Workspace.from_graphs(random_graph(10, 1))
        before = ws.colorings[0].color.copy()
        with pytest.raises(BudgetExceeded, match=r"\Anaive enumeration "
                           r"needs 8000000000 steps > budget 10000000\Z"):
            naive_k_walk_step(ws, 8)
        assert np.array_equal(ws.colorings[0].color, before)


class TestWlAtSize:
    """WL steps hold O(n^2) memory, so graphs above the 256 vertices that
    an (n, n, n) signature array allowed refine as well."""

    def test_cycle_300_distance_classes(self):
        hist = stabilize(Workspace.from_graphs(cycle(300)), RefinementKind.wl())
        assert hist.iterations == 9
        assert hist.stable_partition.num_classes == 151

    def test_cycle_600_step_memory(self):
        # the (n, n, n) int64 signature array alone would take 1.6 GiB
        ws = Workspace.from_graphs(cycle(600))
        tracemalloc.start()
        try:
            wl_step(ws)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20
        # distances 0, 1, 2 and at least 3
        assert ws.partition().num_classes == 4
