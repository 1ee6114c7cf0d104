import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from walkref.cli import main
from walkref.graph_core import MAX_GRAPH_VERTICES, load_graph_json

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.fixture()
def cfi_pair(tmp_path):
    plain = tmp_path / "g.json"
    twisted = tmp_path / "gt.json"
    assert main(["gen", "--grid", "4", "--out", str(plain)]) == 0
    assert main(["gen", "--grid", "4", "--twist", "--out", str(twisted)]) == 0
    return plain, twisted


class TestGen:
    def test_graph_and_sidecar(self, tmp_path):
        out = tmp_path / "g.json"
        assert main(["gen", "--grid", "4", "--out", str(out)]) == 0
        g = load_graph_json(out.read_text())
        assert g.n == 27  # 8n - 5 gadget vertices for the pendant 2xn grid
        side = json.loads((tmp_path / "g.origins.json").read_text())
        assert len(side["vertex_origin"]) == 27
        assert side["twist"] is None

    def test_twist_sidecar(self, tmp_path):
        out = tmp_path / "t.json"
        assert main(["gen", "--grid", "3", "--twist", "--out", str(out)]) == 0
        side = json.loads((tmp_path / "t.origins.json").read_text())
        assert side["twist"] is not None

    def test_stdout(self, capsys):
        code, out = run(capsys, "gen", "--grid", "3")
        assert code == 0
        assert load_graph_json(out).n == 19

    def test_closed_stdout(self):
        # grid 256 prints 213 kB, more than a pipe holds, so the write is
        # still pending when the reader closes the pipe
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "walkref.cli", "gen", "--grid", "256"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == ""


class TestRefineDistinguish:
    def test_refine_wl(self, capsys, cfi_pair):
        plain, _ = cfi_pair
        code, out = run(capsys, "refine", "--graph", str(plain),
                        "--kind", "wl")
        assert code == 0
        d = json.loads(out)
        assert d["kind"] == "wl" and d["iterations"] == 4

    def test_distinguish_pair(self, capsys, cfi_pair):
        plain, twisted = cfi_pair
        code, out = run(capsys, "distinguish", "--graphs", str(plain),
                        str(twisted), "--kind", "kwalk", "--k", "4")
        assert code == 0
        d = json.loads(out)
        assert d["distinguished"] and d["distinguishing_iterations"] == 2

    def test_distinguish_size_mismatch(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text('{"n": 3, "edges": [[0, 1]]}')
        b.write_text('{"n": 4, "edges": [[0, 1]]}')
        code, out = run(capsys, "distinguish", "--graphs", str(a), str(b),
                        "--kind", "walk")
        assert code == 0
        assert json.loads(out) == {"kind": "walk", "k": None,
                                   "distinguishing_iterations": 0,
                                   "distinguished": True}

    def test_wl_cycle_600(self, capsys, tmp_path):
        # above the 256 vertices that WL's old (n, n, n) array allowed
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps(
            {"n": 600, "edges": [[i, i + 1] for i in range(599)] + [[0, 599]]}))
        code, out = run(capsys, "refine", "--graph", str(path), "--kind", "wl")
        assert code == 0
        assert json.loads(out)["classes_per_iteration"][-1] == 301

    def test_wl_ignores_arith(self, capsys, tmp_path):
        # CFI-6: 43 vertices, above the 40 that rational arithmetic allows
        path = tmp_path / "g6.json"
        assert main(["gen", "--grid", "6", "--out", str(path)]) == 0
        outs = []
        for arith in ("rational", "prime2"):
            code, out = run(capsys, "refine", "--graph", str(path),
                            "--kind", "wl", "--arith", arith)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_kwalk_requires_k(self, capsys, cfi_pair):
        plain, _ = cfi_pair
        code, _ = run(capsys, "refine", "--graph", str(plain),
                      "--kind", "kwalk")
        assert code == 2

    def test_dims(self, capsys, cfi_pair):
        plain, _ = cfi_pair
        code, out = run(capsys, "dims", "--graph", str(plain))
        assert code == 0
        d = json.loads(out)
        assert set(d) == {"n", "dims", "strictly_increasing", "iterations"}
        assert d["dims"] == [105, 165, 165]


    def test_dims_exact_above_40_vertices(self, capsys, tmp_path):
        # 43 vertices: dimension chains no longer depend on the seed
        path = tmp_path / "g6.json"
        assert main(["gen", "--grid", "6", "--out", str(path)]) == 0
        outs = [run(capsys, "dims", "--graph", str(path), "--arith", "prime",
                    "--seed", seed) for seed in ("0", "7")]
        assert outs[0] == outs[1]
        assert json.loads(outs[0][1])["dims"] == [201, 285, 301, 301]

    def test_kwalk_refine_seed_free(self, capsys, tmp_path):
        # CFI-3: 19 vertices, where k-walk steps run the seeded sampler
        path = tmp_path / "g3.json"
        assert main(["gen", "--grid", "3", "--out", str(path)]) == 0
        capsys.readouterr()
        outs = [run(capsys, "refine", "--graph", str(path), "--kind", "kwalk",
                    "--k", "3", "--seed", seed) for seed in ("0", "7")]
        assert outs[0] == outs[1]
        assert outs[0][0] == 0


class TestReportsAndVerdicts:
    def test_remark_pass_and_fail_exit_codes(self, capsys):
        code, out = run(capsys, "remark", "--n-min", "3", "--n-max", "3",
                        "--no-timing")
        assert code == 0 and json.loads(out)["passed"]
        code, _ = run(capsys, "remark", "--n-min", "2", "--n-max", "2")
        assert code == 1  # documented n=2 disagreement failure

    def test_remark_csv(self, capsys):
        code, out = run(capsys, "remark", "--n-min", "3", "--n-max", "3",
                        "--no-timing", "--format", "csv")
        assert code == 0
        assert out.startswith("n,kind,k,stab_iters")

    def test_lower_bound(self, capsys):
        code, out = run(capsys, "lower-bound", "--n-values", "4",
                        "--no-timing")
        assert code == 0
        assert json.loads(out)["config"]["walk_counts"] == {"4": 2}

    def test_verify_duplicator(self, capsys):
        code, out = run(capsys, "verify-duplicator", "--grid", "4",
                        "--k", "3", "--scenario", "wall-adjacent",
                        "--column", "2")
        assert code == 0
        d = json.loads(out)
        assert d["round_safe"] and d["component_bound"]
        assert d["counterexample"] is None

    def test_verify_duplicator_opening_grid3(self, capsys):
        # the middle column of grid 3 has no wall-adjacent scenario, so the
        # opening takes the next column out
        code, out = run(capsys, "verify-duplicator", "--grid", "3",
                        "--k", "3", "--scenario", "opening")
        assert code == 0
        d = json.loads(out)
        assert d["pebbles"] == [2, 5]
        assert d["round_safe"] and d["component_bound"]

    def test_formula(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text('{"n": 3, "edges": [[0,1],[1,2],[0,2]]}')
        b.write_text('{"n": 3, "edges": [[0,1],[1,2]]}')
        code, out = run(capsys, "formula", "--graphs", str(a), str(b),
                        "--k", "3")
        assert code == 0
        d = json.loads(out)
        assert d["value_on_first"] != d["value_on_second"]
        assert d["quantifier_depth"] == 1


class TestUsageErrors:
    def test_missing_graph_file(self, capsys):
        code, _ = run(capsys, "dims", "--graph", "/nonexistent.json")
        assert code == 2

    @pytest.mark.parametrize("payload", [
        '{"n": true, "edges": []}',
        '{"n": 2, "edges": [[0.0, 1.5]]}',
        '{"n": 2, "edges": 5}',
        '{"n": 2, "edges": [["0", 1]]}',
        '{"n": 3, "edges": [[0, 1, 2]]}',
        pytest.param("[" * 100000, id="deep-nesting"),
    ])
    def test_malformed_graph(self, capsys, tmp_path, payload):
        path = tmp_path / "g.json"
        path.write_text(payload)
        # an uncaught exception would propagate out of main() here
        assert main(["refine", "--graph", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read graph")

    def test_arbitrary_json_graph(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": [True, {"edges": 1.5e300}],
                                    "edges": {"x": [10**40, "0", None]}}))
        assert main(["refine", "--graph", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read graph")
        assert "Traceback" not in err

    def test_oversized_graph(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": MAX_GRAPH_VERTICES + 1, "edges": []}))
        assert main(["refine", "--graph", str(path)]) == 2
        assert "exceeds the limit" in capsys.readouterr().err

    def test_budget_refusal(self, capsys, tmp_path):
        # naive 3-walk enumeration on two 60-vertex graphs needs
        # 2 * 60^4 * 3 steps, over NAIVE_WALK_BUDGET, so it is refused
        # before any work
        path = tmp_path / "g.json"
        path.write_text('{"n": 60, "edges": []}')
        code = main(["formula", "--graphs", str(path), str(path)])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("error: naive enumeration needs")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [
        ["gen", "--grid", "3"], ["gen", "--grid", "3", "--twist"],
        ["refine", "--graph", "{plain}"],
        ["lower-bound", "--n-values", "4", "--no-timing"],
    ], ids=["gen", "gen-twist", "refine", "lower-bound"])
    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_out(self, capsys, tmp_path, cfi_pair, command,
                            target):
        out = str(tmp_path / "missing" / "x.json" if target == "missing-dir"
                  else tmp_path)
        argv = [a.format(plain=cfi_pair[0]) for a in command]
        capsys.readouterr()
        code = main([*argv, "--out", out])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out!r}: ")
        assert captured.err.count("\n") == 1

    def test_unwritable_sidecar(self, capsys, tmp_path):
        (tmp_path / "g.origins.json").mkdir()
        code = main(["gen", "--grid", "3", "--out", str(tmp_path / "g.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: cannot write {str(tmp_path / 'g.origins.json')!r}: ")

    def test_csv_unsupported_command(self, cfi_pair):
        plain, _ = cfi_pair
        with pytest.raises(SystemExit) as exc:
            main(["dims", "--graph", str(plain), "--format", "csv"])
        assert exc.value.code == 2

    def test_cross_check_disagreement(self, capsys, tmp_path, monkeypatch):
        import walkref.refinement as refinement
        from walkref.algebra import PRIME_2

        grow = refinement.grow_products

        def truncated_check(basis, gens, max_length=None):
            # the second-prime closure stops after the generators
            if getattr(basis.domain, "p", None) == PRIME_2:
                max_length = 1
            return grow(basis, gens, max_length)

        monkeypatch.setattr(refinement, "grow_products", truncated_check)
        path = tmp_path / "g.json"
        path.write_text('{"n": 3, "edges": [[0, 1], [1, 2]]}')
        # an uncaught exception would propagate out of main() here
        assert main(["dims", "--graph", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: exact ranks disagree across primes")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [
        ["refine", "--kind", "walk"], ["dims"],
        ["refine", "--kind", "kwalk", "--k", "3"],
    ], ids=["refine", "dims", "refine-kwalk"])
    def test_rational_refused_above_40_vertices(self, capsys, tmp_path,
                                                command):
        path = tmp_path / "g6.json"  # CFI-6: 43 vertices
        assert main(["gen", "--grid", "6", "--out", str(path)]) == 0
        capsys.readouterr()
        # an uncaught exception would propagate out of main() here
        code = main([*command, "--graph", str(path), "--arith", "rational"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: rational arithmetic is limited to 40")
        assert err.count("\n") == 1

    def test_rational_suite_refused_before_any_work(self, capsys,
                                                    monkeypatch):
        import walkref.experiments as experiments

        def no_work(*args, **kwargs):
            raise AssertionError("the suite refined before refusing")

        # the CFI-4 isomorphism pair has 54 joint vertices
        monkeypatch.setattr(experiments, "k_walk_step", no_work)
        code = main(["suite", "--arith", "rational", "--no-timing"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == ("error: rational arithmetic is limited to "
                                "40 total vertices\n")

    @pytest.mark.parametrize("scenario", ["wall-adjacent", "wall-nonadjacent"])
    @pytest.mark.parametrize("column", ["-1", "4"])
    def test_duplicator_column_out_of_range(self, capsys, scenario, column):
        code = main(["verify-duplicator", "--grid", "4", "--k", "3",
                     "--scenario", scenario, "--column", column])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: --column {column} is outside 0..")
        assert "Traceback" not in err

    @pytest.mark.parametrize("grid", ["3", "6"])
    def test_duplicator_column_without_scenario(self, capsys, grid):
        # column 1 has no degree-3 neighbour in the twisted component
        code = main(["verify-duplicator", "--grid", grid, "--k", "3",
                     "--scenario", "wall-adjacent", "--column", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: no suitable neighbor of 1\n"

    def test_malformed_n_values(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lower-bound", "--n-values", "4,x"])
        assert exc.value.code == 2
        assert "--n-values" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["refine", "--graph", "{plain}", "--max-iters", "-1"],
         "error: --max-iters -1 is below 0\n"),
        (["distinguish", "--graphs", "{plain}", "{twisted}",
          "--max-iters", "-1"],
         "error: --max-iters -1 is below 0\n"),
        (["remark", "--n-min", "5", "--n-max", "2"],
         "error: --n-min 5 exceeds --n-max 2\n"),
        (["lower-bound", "--n-values", "6,4"],
         "error: --n-values 6,4 is not strictly increasing\n"),
        (["lower-bound", "--n-values", "4,4"],
         "error: --n-values 4,4 is not strictly increasing\n"),
        (["gen", "--grid", "2"], "error: --grid 2 is below 3\n"),
        (["verify-duplicator", "--grid", "0", "--k", "3",
          "--scenario", "opening"], "error: --grid 0 is below 3\n"),
        (["refine", "--graph", "{plain}", "--kind", "kwalk", "--k", "1"],
         "error: --k 1 is below 2\n"),
        (["distinguish", "--graphs", "{plain}", "{twisted}",
          "--kind", "kwalk", "--k", "1"], "error: --k 1 is below 2\n"),
        (["verify-duplicator", "--grid", "4", "--k", "1",
          "--scenario", "wall-adjacent", "--column", "1"],
         "error: --k 1 is below 2\n"),
        (["formula", "--graphs", "{plain}", "{twisted}", "--k", "2"],
         "error: --k 2 is below 3\n"),
        (["lower-bound", "--n-values", "2,4"],
         "error: --n-values 2 is below 3\n"),
        (["remark", "--n-min", "0", "--n-max", "3"],
         "error: --n-min 0 is below 2\n"),
        (["refine", "--graph", "{plain}", "--kind", "kwalk", "--k", "3",
          "--seed", "-1"], "error: --seed -1 is below 0\n"),
        (["gen", "--grid", "257"], "error: --grid 257 is above 256\n"),
        (["verify-duplicator", "--grid", "257", "--k", "3",
          "--scenario", "opening"], "error: --grid 257 is above 256\n"),
        (["lower-bound", "--n-values", "4,257"],
         "error: --n-values 257 is above 256\n"),
        (["remark", "--n-min", "3", "--n-max", "257"],
         "error: --n-max 257 is above 256\n"),
    ], ids=["refine-max-iters", "distinguish-max-iters", "remark-range",
            "n-values-decreasing", "n-values-repeated", "gen-grid",
            "duplicator-grid", "refine-k", "distinguish-k", "duplicator-k",
            "formula-k", "n-values-small", "remark-n-min", "negative-seed",
            "gen-grid-large", "duplicator-grid-large", "n-values-large",
            "remark-n-max-large"])
    def test_rejected_before_any_work(self, capsys, monkeypatch, cfi_pair,
                                      argv, message):
        import walkref.cli as cli

        def no_work(*args, **kwargs):
            raise AssertionError("the command ran before refusing")

        for name in ("stabilize", "iterations_to_distinguish",
                     "run_remark_disagreement", "run_lower_bound",
                     "_load_graph", "grid_base", "build_cfi",
                     "synth_distinguishing_sentence"):
            monkeypatch.setattr(cli, name, no_work)
        plain, twisted = cfi_pair
        capsys.readouterr()
        code = main([a.format(plain=plain, twisted=twisted) for a in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == message

    def test_zero_max_iters_is_the_initial_partition(self, capsys, cfi_pair):
        code, out = run(capsys, "refine", "--graph", str(cfi_pair[0]),
                        "--kind", "wl", "--max-iters", "0")
        data = json.loads(out)
        assert code == 0
        assert data["iterations"] == 0
        assert len(data["classes_per_iteration"]) == 1

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


# ---------------------------------------------------------------------------
# fuzzing: argv drawn from small ranges, in which every command must end in
# a documented exit code

SMALL = st.integers(-1, 3).map(str)
K = st.integers(1, 4).map(str)
GRID = st.integers(2, 5).map(str)
N = st.integers(1, 8).map(str)
KIND = st.sampled_from(["wl", "kwalk", "walk"])
# a.json and b.json hold the drawn graphs (drawn more often than the
# missing file, the malformed bad.json and the directory)
GRAPH = st.sampled_from(["a.json"] * 3 + ["b.json"] * 3
                        + ["missing.json", "bad.json", ""]
                        ).map(lambda name: "{dir}/" + name)
FLAG = st.just(None)  # a flag without a value

# per command: (required flags, optional flags)
COMMAND_FLAGS = {
    "gen": ({"--grid": GRID}, {"--twist": FLAG}),
    "refine": ({"--graph": GRAPH},
               {"--kind": KIND, "--k": K, "--max-iters": SMALL}),
    "distinguish": ({"--graphs": st.tuples(GRAPH, GRAPH)},
                    {"--kind": KIND, "--k": K, "--max-iters": SMALL}),
    "dims": ({"--graph": GRAPH}, {}),
    "formula": ({"--graphs": st.tuples(GRAPH, GRAPH)}, {"--k": K}),
    "verify-duplicator": (
        {"--grid": GRID, "--k": K,
         "--scenario": st.sampled_from(
             ["opening", "wall-adjacent", "wall-nonadjacent"])},
        {"--column": st.integers(-1, 5).map(str)},
    ),
    "remark": ({}, {"--n-min": N, "--n-max": N, "--no-timing": FLAG}),
    "lower-bound": ({}, {
        "--n-values": st.lists(st.integers(2, 8), min_size=1, max_size=2)
        .map(lambda ns: ",".join(map(str, ns))),
        "--no-timing": FLAG,
    }),
}
COMMON_FLAGS = {
    "--arith": st.sampled_from(["prime", "prime2", "rational"]),
    "--seed": SMALL,
    "--format": st.sampled_from(["json", "csv"]),
    "--out": st.sampled_from(["out.json", "out.json", "missing/out.json", ""])
    .map(lambda name: "{dir}/" + name),
}


def graph_texts():
    """The wire format of graphs on at most 8 vertices."""
    def on(n):
        edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        return st.lists(edge.filter(lambda e: e[0] != e[1]), max_size=12,
                        unique_by=lambda e: frozenset(e)).map(
            lambda es: json.dumps({"n": n, "edges": es}))
    return st.integers(1, 8).flatmap(on)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    required, optional = COMMAND_FLAGS[command]
    flags = dict(required)
    flags.update((f, s) for f, s in {**optional, **COMMON_FLAGS}.items()
                 if draw(st.booleans()))
    argv = [command]
    for flag, strategy in flags.items():
        value = draw(strategy)
        argv.append(flag)
        if isinstance(value, tuple):
            argv.extend(value)
        elif value is not None:
            argv.append(value)
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "bad.json").write_text('{"n": 2, "edges": [[0, 1]')
    return d


class TestFuzz:
    @given(argv=argvs(), a=graph_texts(), b=graph_texts())
    @settings(max_examples=150, deadline=None)
    def test_documented_exit_codes(self, fuzz_dir, argv, a, b):
        (fuzz_dir / "a.json").write_text(a)
        (fuzz_dir / "b.json").write_text(b)
        argv = [arg.format(dir=fuzz_dir) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refused the flags
                code = exc.code
                assert code == 2, argv
        assert code in range(5), argv
        assert "Traceback" not in err.getvalue()
