import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walkref.cfi import (
    BaseGraph,
    build_cfi,
    default_twist,
    edge_path,
    gadget_tuples,
    grid_base,
    grid_vertex,
    move_twist_automorphism,
)
from walkref.graph_core import SimpleGraph
from walkref.refinement import RefinementKind, iterations_to_distinguish


def verify_twist_location(phi, g_from, g_to):
    """Exhaustively find the base edges on which phi inverts adjacency.

    Scans all vertex pairs of ``g_from`` against their images in ``g_to``
    and returns the set of base edges whose origin pairs are all inverted.
    Raises if some base edge is inverted on only part of its origin pairs,
    or if any pair outside an edge origin changes adjacency.
    """
    if g_from.n != g_to.n or g_from.base.graph != g_to.base.graph:
        raise ValueError("CFI graphs must share the base graph")
    perm = np.asarray(phi, dtype=np.int64)
    a = g_from.graph.adjacency()
    b = g_to.graph.adjacency()[np.ix_(perm, perm)]
    diff = a != b
    inverted = set()
    for e in g_from.base.edges:
        u, v = e
        block = diff[np.ix_(list(g_from.gadget(u)), list(g_from.gadget(v)))]
        if block.all():
            inverted.add(e)
        elif block.any():
            raise ValueError(f"adjacency inverted on part of origin {e}")
        diff[np.ix_(list(g_from.gadget(u)), list(g_from.gadget(v)))] = False
        diff[np.ix_(list(g_from.gadget(v)), list(g_from.gadget(u)))] = False
    if diff.any():
        x, y = map(int, np.argwhere(diff)[0])
        raise ValueError(
            f"adjacency changed outside edge origins, e.g. pair ({x}, {y})"
        )
    return inverted


class TestGridBase:
    def test_n4_counts(self):
        b = grid_base(4)
        assert b.n == 9
        assert len(b.edges) == 11
        degs = sorted(b.degree(v) for v in range(b.n))
        assert degs == [1, 2, 2, 2, 3, 3, 3, 3, 3]

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            grid_base(2)
        grid_base(2, allow_degenerate=True)  # internal escape hatch

    def test_incident_order_ascending(self):
        b = grid_base(5)
        for v in range(b.n):
            neighbors = [e[0] if e[1] == v else e[1] for e in b.incident[v]]
            assert neighbors == sorted(neighbors)

    def test_connected_required(self):
        with pytest.raises(ValueError):
            BaseGraph(SimpleGraph.from_edges(4, [(0, 1), (2, 3)]))

    def test_components(self):
        b = grid_base(4)
        assert b.components() == [list(range(9))]
        # a vertical pair at column 1 cuts off column 0; the pendant 8
        # hangs off corner 3
        assert b.components({1, 5}) == [[0, 4], [2, 3, 6, 7, 8]]
        assert b.components({3}) == [[0, 1, 2, 4, 5, 6, 7], [8]]
        assert b.components(range(9)) == []


class TestBuildCfi:
    def test_vertex_count_formula(self):
        for n in (3, 4, 5):
            b = grid_base(n)
            g = build_cfi(b)
            assert g.n == sum(2 ** (b.degree(v) - 1) for v in range(b.n))
        assert build_cfi(grid_base(4)).n == 27

    def test_degree_one_gadget_single_vertex(self):
        assert gadget_tuples(1) == [(0,)]
        g = build_cfi(grid_base(4))
        pendant = 2 * 4
        assert len(list(g.gadget(pendant))) == 1

    def test_no_intra_gadget_edges(self):
        g = build_cfi(grid_base(3))
        for x, y in g.graph.edges:
            assert g.vertex_origin[x][0] != g.vertex_origin[y][0]

    def test_edge_blocks_are_half_bipartite(self):
        b = grid_base(3)
        for twist in (None, default_twist(b)):
            g = build_cfi(b, twist)
            adj = g.graph.adjacency()
            for e in b.edges:
                u, v = e
                block = adj[np.ix_(list(g.gadget(u)), list(g.gadget(v)))]
                # exactly half of all cross pairs are edges (two complete
                # bipartite halves on the agreeing/disagreeing bit values)
                assert block.sum() * 2 == block.size
                if block.shape[1] > 1:
                    assert (block.sum(axis=1) * 2 == block.shape[1]).all()

    def test_twist_flips_exactly_one_block(self):
        b = grid_base(3)
        t = default_twist(b)
        plain, twisted = build_cfi(b), build_cfi(b, t)
        d = plain.graph.adjacency() != twisted.graph.adjacency()
        u, v = t
        assert d[np.ix_(list(plain.gadget(u)), list(plain.gadget(v)))].all()
        d[np.ix_(list(plain.gadget(u)), list(plain.gadget(v)))] = False
        d[np.ix_(list(plain.gadget(v)), list(plain.gadget(u)))] = False
        assert not d.any()

    def test_invalid_twist_rejected(self):
        with pytest.raises(ValueError):
            build_cfi(grid_base(3), (0, 5))

    def test_wl_distinguishes_twisted(self):
        for n in (3, 4):
            b = grid_base(n)
            m = iterations_to_distinguish(
                build_cfi(b).graph,
                build_cfi(b, default_twist(b)).graph,
                RefinementKind.wl(),
            )
            assert m is not None and m >= 1


class TestTwistMovement:
    def test_adjacent_edges_touch_only_shared_gadget(self):
        b = grid_base(4)
        e1, e2 = (0, 1), (1, 2)  # share base vertex 1
        perm = move_twist_automorphism(build_cfi(b), e1, e2)
        g = build_cfi(b)
        for x in range(g.n):
            if g.vertex_origin[x][0] != 1:
                assert perm[x] == x

    def test_moves_twist_to_target(self):
        b = grid_base(4)
        e_from, e_to = (0, 1), (5, 6)
        perm = move_twist_automorphism(build_cfi(b), e_from, e_to)
        moved = verify_twist_location(perm, build_cfi(b, e_from), build_cfi(b))
        assert moved == {e_to}

    def test_certifies_isomorphism_of_two_twists(self):
        b = grid_base(4)
        e_from, e_to = (0, 1), (2, 6)
        perm = move_twist_automorphism(build_cfi(b), e_from, e_to)
        residual = verify_twist_location(
            perm, build_cfi(b, e_from), build_cfi(b, e_to)
        )
        assert residual == set()

    @settings(deadline=None, max_examples=15)
    @given(st.integers(0, 10), st.integers(0, 10))
    def test_all_edge_pairs_movable(self, i, j):
        b = grid_base(4)
        edges = b.edges
        e_from, e_to = edges[i % len(edges)], edges[j % len(edges)]
        perm = move_twist_automorphism(build_cfi(b), e_from, e_to)
        assert sorted(perm.tolist()) == list(range(27))
        moved = verify_twist_location(perm, build_cfi(b, e_from), build_cfi(b))
        assert moved == {e_to}

    def test_identity_check_detects_plain_twist(self):
        b = grid_base(3)
        t = default_twist(b)
        ident = np.arange(build_cfi(b).n)
        assert verify_twist_location(ident, build_cfi(b, t), build_cfi(b)) == {t}

    def test_non_uniform_map_rejected(self):
        b = grid_base(3)
        g = build_cfi(b)
        perm = np.arange(g.n)
        # swap two vertices inside one degree-3 gadget: breaks uniformity
        deg3 = next(v for v in range(b.n) if b.degree(v) == 3)
        ids = list(g.gadget(deg3))
        perm[ids[0]], perm[ids[1]] = perm[ids[1]], perm[ids[0]]
        with pytest.raises(ValueError):
            verify_twist_location(perm, g, g)

    def test_path_avoids_forbidden_vertices(self):
        b = grid_base(5)
        e_from = (0, 1)
        e_to = (3, 4)
        mid = grid_vertex(5, 0, 2)
        path = edge_path(b, e_from, e_to, forbidden={mid})
        shared = [tuple(set(e) & set(f)) for e, f in zip(path, path[1:])]
        assert all(mid not in s for s in shared)

    def test_no_path_raises(self):
        b = grid_base(3)
        pend = (2, 6)  # pendant edge: only reachable through vertex 2
        with pytest.raises(ValueError):
            edge_path(b, (0, 1), pend, forbidden={2})


@settings(deadline=None, max_examples=10)
@given(st.integers(3, 5))
def test_twist_choice_immaterial_up_to_isomorphism(n):
    b = grid_base(n)
    edges = b.edges
    e1, e2 = edges[0], edges[-1]
    perm = move_twist_automorphism(build_cfi(b), e1, e2)
    assert verify_twist_location(perm, build_cfi(b, e1), build_cfi(b, e2)) == set()
