"""End-to-end acceptance criteria.

Each test prints exactly one PASS/FAIL line for its criterion (bypassing
pytest's capture so the verdicts are always visible).  Two criteria are
implemented faithfully but are unattainable as literally worded; their
tests verify the documented failure shape, print FAIL, and xfail:

* Criterion 1: at grid parameter n = 2 the n-walk refinement IS the WL
  refinement, so their pre-stable partition trails coincide instead of
  disagreeing.  n = 3..10 all pass.
* Criterion 3: the algebra dimension can stay constant at the final
  refining iteration (the refined partition may already be spanned by the
  closed algebra, which then forces stabilization one step later); the
  chain is strict everywhere before that.  Verified over rationals too.
"""

import hashlib
import math

import numpy as np
import pytest

from walkref.cfi import build_cfi, default_twist, grid_base
from walkref.experiments import (
    run_lower_bound,
    run_remark_disagreement,
    seeded_random_graph,
    walk_dimension_chain,
)
from walkref.game import (
    duplicator_bijection,
    verify_component_bound,
    verify_round_safe,
    wall_adjacent_scenario,
    wall_nonadjacent_scenario,
)
from walkref.graph_core import PartitionOrder, compare_partitions
from walkref.refinement import (
    RefinementKind,
    Workspace,
    k_walk_step,
    naive_k_walk_step,
    stabilize,
    wl_step,
)
from walkref.walk_logic import (
    class_formulas,
    eval_matrix,
    eval_sentence,
    synth_distinguishing_sentence,
)

from test_refinement import reference_wl_step

CFI_NS = tuple(range(3, 11))


def _report(capfd, num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'}: criterion {num} - {desc}"
    if detail:
        line += f" [{detail}]"
    with capfd.disabled():
        print(line, flush=True)


def _random_corpus(count: int, n_max: int):
    return [
        (f"random-{4 + (s % (n_max - 3))}-{s}",
         seeded_random_graph(4 + (s % (n_max - 3)), s))
        for s in range(count)
    ]


@pytest.fixture(scope="module")
def walk_corpus():
    """Walk-refinement histories with dimension chains on the shared
    corpus: grid CFI n in 3..10 plus 100 seeded random graphs n <= 20."""
    corpus = [(f"cfi-{n}", build_cfi(grid_base(n)).graph) for n in CFI_NS]
    corpus += _random_corpus(100, 20)
    out = []
    for name, g in corpus:
        hist = stabilize(Workspace.from_graphs(g), RefinementKind.walk(),
                         record_dims=True)
        out.append((name, g, hist))
    return out


def test_walk_corpus_digest(walk_corpus):
    """The corpus's dimension chains and partitions, pinned by the first
    16 hex digits of a sha256 over each entry in order: its name as
    UTF-8, its dims as int64 bytes, then the label bytes of each of its
    partitions."""
    h = hashlib.sha256()
    for name, _, hist in walk_corpus:
        h.update(name.encode())
        h.update(np.asarray(hist.dims, np.int64).tobytes())
        for p in hist.partitions:
            h.update(p.labels.tobytes())
    assert len(walk_corpus) == 108
    assert h.hexdigest()[:16] == "ce2140fed2fb2db2"


def test_criterion_1_remark_disagreement(capfd):
    report = run_remark_disagreement(tuple(range(2, 11)),
                                     include_timing=False)
    per_n = report.verdicts["per_n"]
    # the stable partitions coincide for every n, including n = 2
    assert all(v["stable_equal"] for v in per_n.values()), per_n
    # n = 3..10 must genuinely disagree pre-stable
    assert all(per_n[str(n)]["pre_stable_disagree"] for n in range(3, 11)), per_n
    ok = report.passed
    _report(capfd, 1, "WL vs n-walk pre-stable partitions disagree, "
            "stable coincide (n=2..10)", ok,
            "" if ok else "n=2: 2-walk refinement IS WL, trails coincide")
    if not ok:
        # only the structurally impossible n = 2 case may fail
        assert not per_n["2"]["pre_stable_disagree"]
        pytest.xfail("unattainable at n=2: the n-walk operator equals WL, "
                     "so the pre-stable trails are identical")


def test_criterion_2_walk_2n_bound(capfd, walk_corpus):
    violations = [(name, hist.iterations, 2 * g.n)
                  for name, g, hist in walk_corpus
                  if hist.iterations > 2 * g.n]
    ok = not violations
    worst = max(hist.iterations / (2 * g.n) for _, g, hist in walk_corpus)
    _report(capfd, 2, "walk refinement stabilizes within 2|V| iterations "
            "(CFI n=3..10 + 100 random n<=20)", ok,
            f"max iterations/2|V| = {worst:.3f}")
    assert ok, violations


def test_criterion_3_strict_dimension_growth(capfd, walk_corpus):
    strict_fail, undocumented = [], []
    for name, _, hist in walk_corpus:
        dims = hist.dims
        bad = [i for i in range(1, len(dims)) if dims[i] <= dims[i - 1]]
        if bad:
            strict_fail.append((name, dims))
            # documented shape: equality only at the final refining
            # iteration, which then stabilizes immediately
            if bad != [len(dims) - 1] or dims[-1] != dims[-2]:
                undocumented.append((name, dims))
    # rational-mode spot check at n <= 7 agrees with the prime chains
    for n, s in ((5, 0), (6, 1), (7, 2)):
        g = seeded_random_graph(n, s)
        assert (walk_dimension_chain(g, arith="rational")["dims"]
                == walk_dimension_chain(g, arith="prime2")["dims"])
    ok = not strict_fail
    _report(capfd, 3, "algebra dimension strictly increases at every "
            "non-stable iteration (two primes agree; rational spot check)",
            ok, "" if ok else f"{len(strict_fail)} runs end with an "
            "equal-dimension final refining step")
    if not ok:
        assert not undocumented, undocumented
        pytest.xfail("unattainable as worded: the final refining iteration "
                     "can leave the closed algebra unchanged (verified "
                     "with exact rational arithmetic); growth is strict at "
                     "all earlier iterations")


def test_criterion_4_simulation_lemma(capfd):
    graphs = _random_corpus(100, 12)
    graphs += [(f"cfi-{n}", build_cfi(grid_base(n)).graph)
               for n in range(3, 7)]
    bad = []
    for name, g in graphs:
        for k in (2, 3, 4, 8):
            ws_wl = Workspace.from_graphs(g)
            for _ in range(math.ceil(math.log2(k))):
                wl_step(ws_wl)
            ws_k = Workspace.from_graphs(g)
            k_walk_step(ws_k, k)
            order = compare_partitions(ws_wl.partition(), ws_k.partition())
            if order not in (PartitionOrder.EQUAL, PartitionOrder.FINER):
                bad.append((name, k, order))
    ok = not bad
    _report(capfd, 4, "ceil(log2 k) WL iterations refine one k-walk "
            "iteration (k in {2,3,4,8})", ok)
    assert ok, bad


def test_criterion_5_oracle_equivalence(capfd):
    bad = []
    for s in range(100):
        n = 3 + (s % 5)  # 3..7
        g = seeded_random_graph(n, s)
        for k in (2, 3, 4):
            ws_a = Workspace.from_graphs(g)
            k_walk_step(ws_a, k)
            ws_b = Workspace.from_graphs(g)
            naive_k_walk_step(ws_b, k)
            if ws_a.partition() != ws_b.partition():
                bad.append((s, k, "algebra vs naive"))
            if k == 2:
                ws_c = Workspace.from_graphs(g)
                reference_wl_step(ws_c)
                if ws_a.partition() != ws_c.partition():
                    bad.append((s, k, "2-walk vs sort-based wl"))
    ok = not bad
    _report(capfd, 5, "algebra k-walk step equals naive enumeration "
            "(n<=7, k in {2,3,4}, 100 seeds); 2-walk equals WL", ok)
    assert ok, bad


def test_criterion_6_lower_bound_shape(capfd):
    report = run_lower_bound((4, 6, 8, 10), include_timing=False)
    ok = report.passed
    _report(capfd, 6, "walk and 4-walk distinguishing counts equal, "
            "strictly increasing, inside the frozen window", ok,
            f"counts {report.config['walk_counts']}, "
            f"windows {report.config['window']}")
    assert ok, report.verdicts


def test_criterion_7_duplicator_machinery(capfd):
    base = grid_base(4)
    twist = default_twist(base)
    g_plain, g_twisted = build_cfi(base), build_cfi(base, twist)
    results = {}
    for label, scen in (
        ("wall-adjacent", wall_adjacent_scenario(base, twist, 2, 4)),
        ("wall-nonadjacent", wall_nonadjacent_scenario(base, twist, 1, 4)),
    ):
        bij = duplicator_bijection(g_plain, g_twisted, scen.pebbles,
                                   scen.v, scen.e1, scen.e2)
        images = {bij.map_tuple(w) for w in
                  np.ndindex(*([g_plain.n] * (scen.pebbles.k - 1)))}
        results[label] = (
            len(images) == g_plain.n ** (scen.pebbles.k - 1),
            verify_round_safe(bij, g_plain, g_twisted, scen.pebbles),
            verify_component_bound(bij, scen.ell),
        )
    ok = all(all(v) for v in results.values())
    _report(capfd, 7, "Duplicator bijection is bijective, round-safe, and "
            "respects the component bound (grid 4, k=4, both walls)", ok)
    assert ok, results


def test_criterion_8_formula_synthesis(capfd):
    bad = []
    # exhaustive class-formula agreement: n <= 9, k = 3, m <= 3
    for n, s in ((5, 0), (6, 1), (7, 2), (8, 3), (9, 4), (9, 5)):
        g = seeded_random_graph(n, s)
        hist = stabilize(Workspace.from_graphs(g), RefinementKind.kwalk(3),
                         max_iterations=3, record_walk_multisets=True)
        table = class_formulas(hist)
        for m, rec in enumerate(hist.walk_records, start=1):
            colors = rec.new_tables[0]
            for cls in np.unique(colors).tolist():
                f = table[cls]
                if f.quantifier_depth != m or not np.array_equal(
                    eval_matrix(f, g), colors == cls
                ):
                    bad.append((n, s, m, cls))
    # distinguishing sentence on the plain/twisted CFI pair at n = 3
    base = grid_base(3)
    g1 = build_cfi(base).graph
    g2 = build_cfi(base, default_twist(base)).graph
    sentence, details = synth_distinguishing_sentence(g1, g2, 3,
                                                      return_details=True)
    ws = Workspace.from_graphs([g1, g2])
    dist = stabilize(ws, RefinementKind.kwalk(3)).distinguished_at
    sentence_ok = (
        details["iteration"] == dist
        and sentence.quantifier_depth == dist + 1
        and eval_sentence(sentence, g1) != eval_sentence(sentence, g2)
    )
    ok = not bad and sentence_ok
    _report(capfd, 8, "synthesized color formulas match refinement classes "
            "(n<=9, k=3, m<=3); CFI-3 sentence has depth dist+1 and "
            "separates the pair", ok,
            f"sentence depth {sentence.quantifier_depth}, "
            f"distinguished at {dist}")
    assert ok, (bad, details)


def test_criterion_9_wl_ceiling(capfd, walk_corpus):
    bad, trend = [], []
    for name, g, _ in walk_corpus:
        hist = stabilize(Workspace.from_graphs(g), RefinementKind.wl())
        ceiling = 2 * g.n * math.ceil(math.log2(g.n * g.n))
        trend.append((g.n, hist.iterations))
        if hist.iterations > ceiling:
            bad.append((name, hist.iterations, ceiling))
    ok = not bad
    worst = max(it for _, it in trend)
    _report(capfd, 9, "WL stabilization index within 2|V|ceil(log2 |V|^2) "
            "on the full corpus", ok,
            f"max iterations observed = {worst}")
    assert ok, bad
