import numpy as np
import pytest

from walkref.cfi import build_cfi, default_twist, grid_base
from walkref.experiments import (
    CSV_COLUMNS,
    ExperimentReport,
    _gadget_separation_beats_4walk,
    lower_bound_window,
    run_lower_bound,
    run_property_suite,
    run_remark_disagreement,
    seeded_random_graph,
    walk_dimension_chain,
)
from walkref.graph_core import SimpleGraph
from walkref.refinement import (
    RefinementKind,
    Workspace,
    k_walk_step,
    stabilize,
)


def reference_gadget_separation(cfi, n, *, seed, arith):
    """The pair loop behind ``_gadget_separation_beats_4walk``."""
    loops = {}
    for k in (4, n):
        ws = Workspace.from_graphs(cfi.graph)
        k_walk_step(ws, k, seed=seed, arith=arith)
        loops[k] = np.diag(ws.colorings[0].color)
    origin = [bv for bv, _ in cfi.vertex_origin]
    return any(
        origin[x] != origin[y]
        and loops[4][x] == loops[4][y]
        and loops[n][x] != loops[n][y]
        for x in range(cfi.graph.n)
        for y in range(x + 1, cfi.graph.n)
    )


class TestHelpers:
    def test_window_constants(self):
        # frozen configuration after the first empirical pass
        assert lower_bound_window(4) == (-1, 4)
        assert lower_bound_window(6) == (0, 5)
        assert lower_bound_window(8) == (1, 6)
        assert lower_bound_window(10) == (2, 7)

    def test_seeded_random_graph_deterministic(self):
        assert seeded_random_graph(9, 3) == seeded_random_graph(9, 3)
        assert seeded_random_graph(9, 3) != seeded_random_graph(9, 4)

    @pytest.mark.parametrize("driver", [
        lambda: run_lower_bound((4,), arith="float"),
        lambda: run_remark_disagreement((3,), arith="float"),
        lambda: run_property_suite(arith="float"),
    ], ids=["lower-bound", "remark", "suite"])
    def test_drivers_reject_bad_arith(self, driver):
        # the first refinement step that takes the mode refuses it
        with pytest.raises(ValueError, match="unknown arithmetic mode"):
            driver()


class TestDimensionChain:
    def test_cycle_is_already_stable_shape(self):
        c5 = SimpleGraph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        d = walk_dimension_chain(c5)
        assert d["n"] == 5 and d["iterations"] == 1 and d["dims"] == [3]
        assert d["strictly_increasing"]

    def test_random_graph_chain(self):
        d = walk_dimension_chain(seeded_random_graph(7, 1))
        assert d["dims"] == [27, 49] and d["strictly_increasing"]

    def test_rational_matches_prime(self):
        g = seeded_random_graph(6, 2)
        assert (walk_dimension_chain(g, arith="rational")["dims"]
                == walk_dimension_chain(g, arith="prime2")["dims"])


@pytest.fixture(scope="module")
def suite():
    return run_property_suite(include_timing=False)


class TestReports:
    def test_property_suite_passes_and_is_deterministic(self, suite):
        assert suite.passed, suite.verdicts
        assert (suite.to_json()
                == run_property_suite(include_timing=False).to_json())

    def test_csv_shape(self, suite):
        lines = suite.to_csv().strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        # one walk row per corpus graph: 12 random graphs and 2 CFI grids
        assert len(lines) == 1 + 14
        assert all(len(line.split(",")) == len(CSV_COLUMNS)
                   for line in lines[1:])

    def test_row_read_off_history(self):
        base = grid_base(3)
        ws = Workspace.from_graphs(
            [build_cfi(base).graph, build_cfi(base, default_twist(base)).graph]
        )
        hist = stabilize(ws, RefinementKind.kwalk(4))
        report = ExperimentReport("x", "prime2", include_timing=True)
        report.add_row(3, hist, 0.01234)
        assert report.rows == [{
            "n": 3, "kind": "kwalk", "k": 4,
            "stab_iters": hist.iterations,
            "dist_iters": hist.distinguished_at,
            "dim_first": None, "dim_last": None, "ms": 12.3,
        }]
        assert hist.distinguished_at is not None

    def test_remark_small_passes(self):
        r = run_remark_disagreement((3, 4), include_timing=False)
        assert r.passed, r.verdicts

    def test_remark_n2_fails_as_documented(self):
        # at n = 2 the 2-walk refinement IS WL, so the pre-stable trails
        # coincide: the disagreement verdict is honestly false there
        r = run_remark_disagreement((2,), include_timing=False)
        v = r.verdicts["per_n"]["2"]
        assert not v["pre_stable_disagree"] and v["stable_equal"]
        assert not r.passed

    def test_lower_bound_single_n(self):
        r = run_lower_bound((4,), include_timing=False)
        assert r.passed, r.verdicts
        assert r.config["walk_counts"] == {"4": 2}
        assert r.verdicts["n_walk_gadget_separation_beats_4walk"] == {}

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_gadget_separation_matches_pair_loop(self, n):
        base = grid_base(n)
        for cfi in (build_cfi(base), build_cfi(base, default_twist(base))):
            assert (_gadget_separation_beats_4walk(cfi, n, seed=0,
                                                   arith="prime2")
                    == reference_gadget_separation(cfi, n, seed=0,
                                                   arith="prime2")
                    == (n > 4))

    def test_rows_carry_version_and_arith(self):
        r = run_remark_disagreement((3,), include_timing=False)
        row = r.to_json_dict()["rows"][0]
        assert row["arith"] == "prime2" and row["version"]
