import dataclasses
import itertools

import numpy as np
import pytest

from walkref import game
from walkref.cfi import build_cfi, default_twist, grid_base
from walkref.game import (
    Component,
    NoScenarioError,
    PebblePlacement,
    duplicator_bijection,
    is_wall,
    opening_scenario,
    strategy_scenario,
    twisted_components,
    verify_component_bound,
    verify_round_safe,
    wall_adjacent_scenario,
    wall_nonadjacent_scenario,
)


def reference_twisted_components(base, pebbled, twist):
    """Union-find over base edges, joining the edges at every unpebbled
    vertex: the oracle for ``twisted_components``."""
    parent = {e: e for e in base.edges}

    def find(e):
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    for v in range(base.n):
        if v in pebbled:
            continue
        inc = base.incident[v]
        for f in inc[1:]:
            parent[find(f)] = find(inc[0])
    groups = {}
    for e in base.edges:
        groups.setdefault(find(e), set()).add(e)
    components = []
    for edges in groups.values():
        contained = frozenset(
            v
            for v in range(base.n)
            if base.degree(v) > 0 and set(base.incident[v]) <= edges
        )
        components.append(
            Component(frozenset(edges), contained, twist in edges)
        )
    components.sort(key=lambda c: min(c.edges))
    return components


def reference_round_safe(bij, g_plain, g_twisted, pebbles):
    """The per-tuple round-safety check through ``map_tuple``, in product
    order: the oracle for ``verify_round_safe``.  Returns (ok, walk)."""
    n, k = g_plain.n, pebbles.k
    g, phi = bij.g_plain, bij.phi
    firsts = [(x, int(phi[x])) for x in g.gadget(bij.pebbles.u1)]
    lasts = [(x, int(phi[x])) for x in g.gadget(bij.pebbles.u2)]
    a_plain = g_plain.graph.adjacency()
    a_tw = g_twisted.graph.adjacency()
    seen = set()

    def pair_ok(x, y, ix, iy):
        return (x == y) == (ix == iy) and a_plain[x, y] == a_tw[ix, iy]

    for walk in itertools.product(range(n), repeat=k - 1):
        image = bij.map_tuple(walk)
        if image in seen:
            return False, walk
        seen.add(image)
        for i in range(k - 2):
            if not pair_ok(walk[i], walk[i + 1], image[i], image[i + 1]):
                return False, walk
        if not all(pair_ok(x0, walk[0], y0, image[0]) for x0, y0 in firsts):
            return False, walk
        if not all(pair_ok(walk[-1], xk, image[-1], yk) for xk, yk in lasts):
            return False, walk
    return True, None


class Corrupted:
    """A bijection whose images are overridden on a few walks, in both the
    scalar and the vectorized map."""

    def __init__(self, bij, override):
        self.bij, self.override = bij, override

    def __getattr__(self, name):
        return getattr(self.bij, name)

    def map_tuple(self, walk):
        return self.override.get(tuple(walk), self.bij.map_tuple(walk))

    def map_tuples(self, walks):
        image, pair_edges = self.bij.map_tuples(walks)
        for walk, target in self.override.items():
            image[(walks == walk).all(axis=1)] = target
        return image, pair_edges


def wall_bijections(graphs, k):
    """(label, bijection, pebbles) for every column of both wall scenarios
    that exists on the grid."""
    b, t, gp, gt = graphs
    grid = (b.n - 1) // 2
    out = []
    # wall-nonadjacent also pebbles column + 1
    for maker, columns in ((wall_adjacent_scenario, grid),
                           (wall_nonadjacent_scenario, grid - 1)):
        for col in range(columns):
            try:
                scen = maker(b, t, col, k)
            except NoScenarioError:
                continue
            bij = duplicator_bijection(gp, gt, scen.pebbles, scen.v,
                                       scen.e1, scen.e2)
            out.append((f"{maker.__name__}[{col}]", bij, scen.pebbles))
    return out


def swap_phi(bij, rng):
    """The bijection with two seeded entries of phi swapped."""
    a, c = rng.choice(len(bij.phi), size=2, replace=False)
    phi = bij.phi.copy()
    phi[[a, c]] = phi[[c, a]]
    return dataclasses.replace(bij, phi=phi)


def assert_matches_reference(graphs, k, seed):
    """``verify_round_safe`` agrees with the reference on every wall
    scenario, as built and with two seeded phi entries swapped."""
    _, _, gp, gt = graphs
    rng = np.random.default_rng(seed)
    for label, bij, pebbles in wall_bijections(graphs, k):
        for cand in (bij, swap_phi(bij, rng), swap_phi(bij, rng)):
            got = verify_round_safe(cand, gp, gt, pebbles,
                                    return_counterexample=True)
            assert got == reference_round_safe(cand, gp, gt, pebbles), label


DIFF_CASES = [(grid, k) for grid in (3, 4, 5) for k in (2, 3, 4)]


@pytest.fixture(scope="module")
def grids():
    out = {}
    for grid in (3, 4, 5):
        b = grid_base(grid)
        t = default_twist(b)
        out[grid] = b, t, build_cfi(b), build_cfi(b, t)
    return out


@pytest.fixture(scope="module")
def g4(grids):
    return grids[4]


class TestComponents:
    def test_no_pebbles_single_twisted_component(self):
        for n in (3, 4, 6):
            b = grid_base(n)
            cs = twisted_components(b, set(), default_twist(b))
            assert len(cs.components) == 1
            only = cs.components[0]
            assert only.twisted and only.size == 2 * n + 1

    def test_vertical_wall_splits(self):
        n = 6
        b = grid_base(n)
        for c in range(1, n - 1):
            pebbled = {c, n + c}
            assert is_wall(b, pebbled)
            cs = twisted_components(b, pebbled, default_twist(b))
            nontrivial = [x for x in cs.components if x.nontrivial]
            assert len(nontrivial) == 2
            sizes = sorted(x.size for x in nontrivial)
            assert sizes == sorted([2 * c, 2 * (n - 1 - c) + 1])
            # the twist sits left of every wall, so the left side is twisted
            left = next(x for x in nontrivial if 0 in x.contained)
            assert left.twisted

    def test_exactly_one_twisted_component(self):
        b = grid_base(5)
        t = default_twist(b)
        for pebbled in itertools.combinations(range(b.n), 2):
            cs = twisted_components(b, set(pebbled), t)
            assert sum(c.twisted for c in cs.components) == 1

    def test_pebbled_endpoints_make_trivial_component(self):
        b = grid_base(4)
        # pebble both endpoints of an interior vertical edge's neighbors
        cs = twisted_components(b, {1, 5}, default_twist(b))
        trivial = [c for c in cs.components if not c.nontrivial]
        assert any(c.edges == {(1, 5)} for c in trivial)

    def test_invalid_twist_rejected(self):
        with pytest.raises(ValueError):
            twisted_components(grid_base(3), set(), (0, 4))

    @pytest.mark.parametrize("grid", [3, 4, 5, 6])
    def test_matches_union_find(self, grid):
        # every pebble set of at most 3 base vertices, every twist edge
        b = grid_base(grid)
        for r in range(4):
            for pebbled in itertools.combinations(range(b.n), r):
                for t in b.edges:
                    got = twisted_components(b, pebbled, t)
                    want = reference_twisted_components(b, pebbled, t)
                    assert got.components == want, (pebbled, t)


def component_bound_holds(maker, n, column):
    b = grid_base(n)
    t = default_twist(b)
    gp, gt = build_cfi(b), build_cfi(b, t)
    scen = maker(b, t, column, k=3)
    bij = duplicator_bijection(gp, gt, scen.pebbles, scen.v, scen.e1, scen.e2)
    return verify_component_bound(bij, scen.ell)


class TestSeparatorSizeLemma:
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_component_bound_under_strategy(self, n):
        """Dropping to any consecutive pair after the wall strategies keeps
        the twisted component at least min{l, 2n-l-2} large."""
        for column in range(2, n - 1):
            assert component_bound_holds(wall_adjacent_scenario, n, column)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_component_bound_nonadjacent(self, n):
        for column in range(n - 2):
            assert component_bound_holds(wall_nonadjacent_scenario, n, column)

    @pytest.mark.xfail(strict=True, reason=(
        "CHANGES.md FOUND line 26: at column n - 2 the pebbles are "
        "u1 = (1, n-1), the degree-2 bottom-right corner, and "
        "u2 = (0, n-2); Duplicator picks v = (1, n-2) and e1 = (v, u1), and "
        "ell = 2n - 4 makes the bound min{ell, 2n - ell - 2} = 2.  In the "
        "round with interior ((0, n-1), v) Spoiler keeps that pair, both "
        "neighbours of u1, while the defect stays on e1, so the twisted "
        "component is {u1}: 1 vertex"))
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_component_bound_last_nonadjacent_column(self, n):
        assert component_bound_holds(wall_nonadjacent_scenario, n, n - 2)


class TestDuplicatorBijection:
    def test_case1_only_is_phi(self, g4):
        b, t, gp, gt = g4
        scen = wall_adjacent_scenario(b, t, 2, k=4)
        bij = duplicator_bijection(gp, gt, scen.pebbles, scen.v, scen.e1, scen.e2)
        away = [x for x in range(gp.n) if gp.vertex_origin[x][0] != scen.v]
        walk = tuple(away[:3])
        assert bij.map_tuple(walk) == tuple(int(bij.phi[x]) for x in walk)

    def test_stationary_run_uses_case_2b(self, g4):
        b, t, gp, gt = g4
        scen = wall_adjacent_scenario(b, t, 2, k=4)
        bij = duplicator_bijection(gp, gt, scen.pebbles, scen.v, scen.e1, scen.e2)
        vv = gp.gadget(scen.v)[0]
        _, edges = bij.map_tuple_with_edges((vv, vv, vv))
        # whole interior stationary at v: at most one incident edge is used
        chosen = {e for e in edges if e != scen.e1}
        assert chosen <= {scen.e1, scen.e2}

    def test_bijective_on_full_tuple_space(self, g4):
        b, t, gp, gt = g4
        scen = wall_adjacent_scenario(b, t, 2, k=4)
        bij = duplicator_bijection(gp, gt, scen.pebbles, scen.v, scen.e1, scen.e2)
        images = set()
        for walk in itertools.product(range(gp.n), repeat=3):
            images.add(bij.map_tuple(walk))
        assert len(images) == gp.n ** 3

    @pytest.mark.parametrize("grid,k", DIFF_CASES)
    def test_map_tuples_matches_scalar(self, grids, grid, k):
        _, _, gp, _ = grids[grid]
        walks = np.array(list(itertools.product(range(gp.n), repeat=k - 1)))
        for label, bij, _ in wall_bijections(grids[grid], k):
            order = gp.base.incident[bij.v]
            images, edge_ids = bij.map_tuples(walks)
            for walk, image, ids in zip(walks.tolist(), images.tolist(),
                                        edge_ids.tolist()):
                want_image, want_edges = bij.map_tuple_with_edges(walk)
                assert tuple(image) == want_image, (label, walk)
                assert [order[i] for i in ids] == want_edges, (label, walk)

    def test_map_tuples_rejects_wrong_width(self, g4):
        b, t, gp, gt = g4
        scen = wall_adjacent_scenario(b, t, 2, k=4)
        bij = duplicator_bijection(gp, gt, scen.pebbles, scen.v, scen.e1, scen.e2)
        with pytest.raises(ValueError):
            bij.map_tuples(np.zeros((2, 2), dtype=np.int64))

    def test_precondition_errors(self, g4):
        b, t, gp, gt = g4
        pebbles = PebblePlacement(2, 6, 4)
        with pytest.raises(ValueError):  # pendant vertex has degree 1
            duplicator_bijection(gp, gt, pebbles, 8, (3, 8), (3, 7))
        with pytest.raises(ValueError):  # e2 not incident to v
            duplicator_bijection(gp, gt, pebbles, 1, (0, 1), (2, 6))
        with pytest.raises(ValueError):  # v right of the wall is untwisted
            duplicator_bijection(gp, gt, pebbles, 3, (2, 3), (3, 7))
        with pytest.raises(ValueError):  # second graph carries no twist
            duplicator_bijection(gp, gp, pebbles, 1, (0, 1), (1, 5))


class TestRoundSafety:
    @pytest.mark.parametrize("maker,col", [
        (wall_adjacent_scenario, 2),
        (wall_nonadjacent_scenario, 1),
    ])
    def test_wall_scenarios_safe_k4(self, g4, maker, col):
        b, t, gp, gt = g4
        scen = maker(b, t, col, 4)
        bij = duplicator_bijection(gp, gt, scen.pebbles, scen.v, scen.e1, scen.e2)
        assert verify_round_safe(bij, gp, gt, scen.pebbles)

    @pytest.mark.parametrize("k", [3, 4])
    def test_opening_scenario_grid3(self, grids, k):
        # column 1 of grid 3 has no wall-adjacent scenario; column 2 does
        b, t, gp, gt = grids[3]
        with pytest.raises(NoScenarioError):
            wall_adjacent_scenario(b, t, 1, k)
        scen = opening_scenario(b, t, k)
        assert (scen.pebbles.u1, scen.pebbles.u2) == (2, 5)
        bij = duplicator_bijection(gp, gt, scen.pebbles, scen.v, scen.e1, scen.e2)
        assert verify_round_safe(bij, gp, gt, scen.pebbles)
        assert verify_component_bound(bij, scen.ell)

    def test_opening_scenario_safe(self, g4):
        b, t, gp, gt = g4
        scen = opening_scenario(b, t, 3)
        bij = duplicator_bijection(gp, gt, scen.pebbles, scen.v, scen.e1, scen.e2)
        assert verify_round_safe(bij, gp, gt, scen.pebbles)

    def test_k2_degenerate(self, g4):
        b, t, gp, gt = g4
        scen = wall_adjacent_scenario(b, t, 2, 2)
        bij = duplicator_bijection(gp, gt, scen.pebbles, scen.v, scen.e1, scen.e2)
        assert verify_round_safe(bij, gp, gt, scen.pebbles)

    def test_corrupted_map_detected(self, g4):
        b, t, gp, gt = g4
        scen = wall_adjacent_scenario(b, t, 2, 3)
        bij = duplicator_bijection(gp, gt, scen.pebbles, scen.v, scen.e1, scen.e2)
        a, c = (0, 0), (1, 2)
        corrupted = Corrupted(bij, {a: bij.map_tuple(c), c: bij.map_tuple(a)})
        assert not verify_round_safe(corrupted, gp, gt, scen.pebbles)
        got = verify_round_safe(corrupted, gp, gt, scen.pebbles,
                                return_counterexample=True)
        assert got == reference_round_safe(corrupted, gp, gt, scen.pebbles)

    @pytest.mark.parametrize("grid,k", DIFF_CASES)
    def test_matches_reference(self, grids, grid, k):
        assert_matches_reference(grids[grid], k, seed=grid * 10 + k)

    @pytest.mark.parametrize("grid,k", [(3, 3), (4, 3), (4, 4)])
    def test_matches_reference_in_small_chunks(self, grids, grid, k,
                                               monkeypatch):
        # five rows per chunk: repeats and counterexamples in later chunks
        monkeypatch.setattr(game, "CHUNK_ENTRIES", 5 * (k + 1))
        assert_matches_reference(grids[grid], k, seed=grid * 10 + k)

    @pytest.mark.parametrize("chunk_rows", [1, 4, None])
    def test_repeated_image_detected(self, g4, chunk_rows, monkeypatch):
        # at k = 2, two vertices outside both anchor gadgets and adjacent to
        # neither look alike to every pair check, so giving the later one
        # the image of the earlier one fails injectivity and nothing else
        b, t, gp, gt = g4
        if chunk_rows is not None:
            monkeypatch.setattr(game, "CHUNK_ENTRIES", chunk_rows * 3)
        scen = wall_adjacent_scenario(b, t, 2, 2)
        bij = duplicator_bijection(gp, gt, scen.pebbles, scen.v, scen.e1, scen.e2)
        anchors = [*gp.gadget(scen.pebbles.u1), *gp.gadget(scen.pebbles.u2)]
        adj = gp.graph.adjacency()
        far = [x for x in range(gp.n)
               if x not in anchors and not adj[x, anchors].any()]
        early, late = far[0], far[-1]
        assert late - early > 4  # in different chunks of 1 and of 4 rows
        corrupted = Corrupted(bij, {(late,): bij.map_tuple((early,))})
        got = verify_round_safe(corrupted, gp, gt, scen.pebbles,
                                return_counterexample=True)
        assert got == (False, (late,))
        assert got == reference_round_safe(corrupted, gp, gt, scen.pebbles)

    def test_budget_guard(self, g4, monkeypatch):
        b, t, gp, gt = g4
        scen = wall_adjacent_scenario(b, t, 2, 8)
        bij = duplicator_bijection(gp, gt, scen.pebbles, scen.v, scen.e1, scen.e2)
        monkeypatch.setattr(game, "TUPLE_BUDGET", 10**4)
        with pytest.raises(ValueError):
            verify_round_safe(bij, gp, gt, scen.pebbles)

    @pytest.mark.parametrize("maker,col", [
        (wall_adjacent_scenario, 2),
        (wall_nonadjacent_scenario, 1),
    ])
    def test_wall_scenarios_safe_k5(self, g4, maker, col):
        # 27^4 = 531441 tuples: many chunks of the vectorized check
        b, t, gp, gt = g4
        scen = maker(b, t, col, 5)
        bij = duplicator_bijection(gp, gt, scen.pebbles, scen.v, scen.e1, scen.e2)
        assert verify_round_safe(bij, gp, gt, scen.pebbles)

    def test_grid5_both_shapes_safe(self):
        b = grid_base(5)
        t = default_twist(b)
        gp, gt = build_cfi(b), build_cfi(b, t)
        for maker, col in ((wall_adjacent_scenario, 2), (wall_nonadjacent_scenario, 1)):
            scen = maker(b, t, col, 3)
            bij = duplicator_bijection(gp, gt, scen.pebbles, scen.v, scen.e1, scen.e2)
            assert verify_round_safe(bij, gp, gt, scen.pebbles)


class TestStrategyScenario:
    def test_nonadjacent_orientation_swapped_for_separator(self, g4):
        b, t, _, _ = g4
        scen = wall_nonadjacent_scenario(b, t, 1, 4)
        assert is_wall(b, set(scen.e2))
        assert scen.v in scen.e1 and scen.v in scen.e2

    def test_ell_matches_separator_side(self, g4):
        b, t, _, _ = g4
        scen = wall_adjacent_scenario(b, t, 2, 4)
        # e2 = column-1 vertical edge: the far side is column 0
        assert scen.ell == 2
