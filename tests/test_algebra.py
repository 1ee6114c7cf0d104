from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walkref.algebra import (
    PRIME_1,
    PRIME_2,
    MatrixSpanBasis,
    PrimeField,
    RationalDomain,
    color_matrices,
    grow_products,
    partition_from_span,
    sampled_span_profile,
)
from walkref.algebra import (
    _BATCH_ROWS,
    _CHUNK,
    _SAMPLED_CHAINS,
    _STOP_WINDOW,
    _matmul_mod,
    _mod_p,
)
from walkref.cfi import build_cfi, grid_base
from walkref.graph_core import (
    ColoredCompleteGraph,
    SimpleGraph,
    group_rows,
    initial_coloring,
)
from walkref.refinement import RefinementKind, Workspace, stabilize


def cycle(n):
    return SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return SimpleGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return SimpleGraph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def discrete(n, first_color=0):
    """Coloring with a color of its own at every pair, from first_color up."""
    table = first_color + np.arange(n * n, dtype=np.int64).reshape(n, n)
    return ColoredCompleteGraph(n, table)


def closure_rank(coloring, domain=None, max_length=None):
    """Rank of the product span of one coloring's matrices; the whole
    algebra unless max_length bounds the product length."""
    gens = color_matrices([coloring])
    basis, _ = grow_products(MatrixSpanBasis(coloring.n, domain), gens,
                             max_length)
    return basis.rank


def block_color_table(colorings):
    """Block-diagonal joint color table; off-block entries are -1."""
    n_tot = sum(c.n for c in colorings)
    table = np.full((n_tot, n_tot), -1, dtype=np.int64)
    off = 0
    for c in colorings:
        table[off : off + c.n, off : off + c.n] = c.color
        off += c.n
    return table


def joint_matrices(colorings):
    """The (colors, n_tot, n_tot) joint color matrices, zero off the
    diagonal blocks."""
    table = block_color_table(colorings)
    colors = np.array(sorted(set(table.ravel().tolist()) - {-1}))
    return (table == colors[:, None, None]).astype(np.int64)


def universe_coords(sizes):
    """Flat indices of the in-block coordinates of an n_tot x n_tot matrix,
    block by block, each block row-major."""
    n_tot = sum(sizes)
    out, off = [], 0
    for n in sizes:
        idx = off + np.arange(n)
        out.append((idx[:, None] * n_tot + idx).ravel())
        off += n
    return np.concatenate(out)


class TestSpanBasis:
    def test_rank_of_identity_family(self):
        b = MatrixSpanBasis(3)
        assert b.insert(np.eye(3).ravel())
        assert not b.insert(2 * np.eye(3).ravel())
        assert b.rank == 1

    def test_insert_detects_dependence(self):
        b = MatrixSpanBasis(2)
        m1 = np.array([[1, 0], [0, 0]])
        m2 = np.array([[0, 1], [0, 0]])
        assert b.insert(m1.ravel()) and b.insert(m2.ravel())
        assert not b.insert((3 * m1 + 5 * m2).ravel())
        assert b.rank == 2

    def test_rational_matches_prime(self):
        rng = np.random.default_rng(0)
        mats = [rng.integers(0, 5, size=(3, 3)) for _ in range(6)]
        bp = MatrixSpanBasis(3, PrimeField())
        bq = MatrixSpanBasis(3, RationalDomain())
        for m in mats:
            assert bp.insert(m.ravel()) == bq.insert(m.ravel())
        assert bp.rank == bq.rank


def reference_rref(batches, p):
    """Sequential int64 RREF mod p: per-batch kept masks, rows, pivots."""
    rows, pivots, masks = np.zeros((0, len(batches[0][0])), np.int64), [], []
    for batch in batches:
        mask = []
        for v in np.asarray(batch, dtype=np.int64) % p:
            hit = np.flatnonzero(v[pivots])
            v = (v - v[pivots][hit] @ rows[hit]) % p
            nz = np.flatnonzero(v)
            mask.append(nz.size > 0)
            if nz.size:
                v = v * pow(int(v[nz[0]]), -1, p) % p
                hit = np.flatnonzero(rows[:, nz[0]])
                rows[hit] = (rows[hit] - np.outer(rows[hit, nz[0]], v)) % p
                rows = np.vstack([rows, v])
                pivots.append(int(nz[0]))
        masks.append(mask)
    return masks, rows, pivots


class TestBatchInsert:
    @settings(deadline=None, max_examples=60)
    @given(st.lists(
        st.lists(st.lists(st.sampled_from([-1, 0, 0, 0, 1]), min_size=9,
                          max_size=9), min_size=1, max_size=6),
        min_size=1, max_size=4))
    def test_matches_sequential_rational(self, batches):
        # entries in {-1, 0, 1} keep every 9 x 9 minor below 3^9 < p, so
        # the rank over the rationals equals the rank mod p
        bp = MatrixSpanBasis(3, PrimeField())
        bq = MatrixSpanBasis(3, RationalDomain())
        for batch in batches:
            mask = bp.insert_batch(np.array(batch))
            assert mask.tolist() == [bq.insert(r) for r in batch]
        assert bp.rank == bq.rank

    def test_wide_batch_near_p_is_exact(self):
        # a batch keeping more than _CHUNK rows clears its pivot columns
        # from the old rows with sums of more than _CHUNK odd products of
        # size (p - 2)^2, which float64 holds exactly only chunk by chunk
        p = PRIME_1
        n_old, n_new, width = 100, _CHUNK + 88, 36 * 36
        old = np.zeros((n_old, width), np.int64)
        old[:, :n_old] = np.eye(n_old, dtype=np.int64)
        old[:, n_old : n_old + n_new] = p - 2
        new = np.zeros((n_new, width), np.int64)
        new[:, n_old : n_old + n_new] = np.eye(n_new, dtype=np.int64)
        new[:, n_old + n_new :] = p - 2
        rng = np.random.default_rng(0)
        last = rng.integers(p - 50, p, size=(4, width))
        batches = [old, new, last]
        basis = MatrixSpanBasis(36, PrimeField(p))
        masks = [basis.insert_batch(b).tolist() for b in batches]
        ref_masks, ref_rows, ref_pivots = reference_rref(batches, p)
        assert masks == ref_masks and sum(masks[1]) > _CHUNK
        assert np.array_equal(basis.row_vectors(), ref_rows)
        assert np.array_equal(basis._piv[: basis.rank], ref_pivots)


@pytest.mark.parametrize("p", [3, PRIME_2, PRIME_1])
def test_mod_p_exact(p):
    top = 2**53 // p
    values = [k * p + d for k in (0, 1, 2, 1000, top - 1, top) for d in (-1, 0, 1)]
    values += [2**53 - p, 2**53 - p - 1]
    values = [x for x in values if abs(x) <= 2**53 - p]
    values += [-x for x in values]
    got = _mod_p(np.array(values, dtype=np.float64), p)
    assert got.tolist() == [float(x % p) for x in values]


def test_matmul_mod_into_strided_out():
    # products land in one block's columns of a wider batch, over an inner
    # dimension of more than one _CHUNK
    p, k = PRIME_1, 2 * _CHUNK + 3
    rng = np.random.default_rng(1)
    a = rng.integers(0, p, size=(2, 1, 3, k)).astype(np.float64)
    b = rng.integers(0, p, size=(4, k, 3)).astype(np.float64)
    batch = np.zeros((8, 20))
    _matmul_mod(a, b, p, out=batch[:, 5:14].reshape(2, 4, 3, 3))
    want = (a.astype(object) @ b.astype(object)) % p
    assert batch[:, 5:14].tolist() == want.reshape(8, 9).tolist()
    assert not batch[:, :5].any() and not batch[:, 14:].any()


class TestColorMatrices:
    def test_partition_of_unity(self):
        c = initial_coloring(cycle(5))
        [gens] = color_matrices([c])
        assert gens.shape == (3, 5, 5) and gens.dtype == np.int64
        total = gens.sum(axis=0)
        assert np.array_equal(total, np.ones((5, 5), dtype=np.int64))

    def test_joint_block_diagonal(self):
        # the triangle has no non-edge, so that color's block is zero there
        a, b = initial_coloring(cycle(3)), initial_coloring(cycle(4))
        blocks = color_matrices([a, b])
        assert [g.shape for g in blocks] == [(3, 3, 3), (3, 4, 4)]
        for g, n in zip(blocks, (3, 4)):
            assert np.array_equal(g.sum(axis=0), np.ones((n, n), np.int64))
        assert [bool(g.any()) for g in blocks[0]].count(False) == 1
        assert all(g.any() for g in blocks[1])
        # the blocks are the joint matrices' diagonal blocks
        joint = joint_matrices([a, b])
        assert np.array_equal(joint[:, :3, :3], blocks[0])
        assert np.array_equal(joint[:, 3:, 3:], blocks[1])


class TestGrowProducts:
    def test_identity_generator_stabilizes_at_two(self):
        gens = [np.eye(3, dtype=np.int64)[None]]
        basis, stab = grow_products(MatrixSpanBasis(3), gens, max_length=9)
        assert basis.rank == 1 and stab == 2

    def test_rejects_non_empty_basis(self):
        gens = color_matrices([discrete(2)])
        basis = MatrixSpanBasis(2)
        basis.insert(np.ones(4, dtype=np.int64))
        with pytest.raises(ValueError, match="empty basis"):
            grow_products(basis, gens, 5)

    def test_k3_closure_dimension_two(self):
        # span{I, J-I} is closed: (J-I)^2 = 2I + (J-I) on three vertices
        assert closure_rank(initial_coloring(complete(3))) == 2

    def test_c5_closure_rank_three(self):
        assert closure_rank(initial_coloring(cycle(5))) == 3

    def test_discrete_coloring_full_rank(self):
        assert closure_rank(discrete(3)) == 9

    def test_rational_agrees_with_prime_field(self):
        c = initial_coloring(cycle(6))
        dp = closure_rank(c)
        dq = closure_rank(c, domain=RationalDomain(), max_length=12)
        assert dp == dq


def reference_closure(gens, domain):
    """Each frontier matrix times each generator of a (c, n, n) stack,
    inserted one at a time, every length until one adds nothing.  Returns
    (basis, stall length)."""
    prime = isinstance(domain, PrimeField)
    mats = [np.asarray(m, dtype=np.int64 if prime else object) for m in gens]
    basis = MatrixSpanBasis(gens.shape[1], domain)
    frontier = [m for m in mats if basis.insert(m.ravel())]
    length = 1
    while frontier:
        length += 1
        new = []
        for m in frontier:
            for g in mats:
                prod = m @ g % domain.p if prime else m @ g
                if basis.insert(prod.ravel()):
                    new.append(prod)
        frontier = new
    return basis, length


@st.composite
def colorings(draw):
    """One or two colorings: random tables over a few shared colors, or
    discrete tables with colors distinct across the pair."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    if draw(st.booleans()):
        out, offset = [], 0
        for n in sizes:
            out.append(discrete(n, offset))
            offset += n * n
        return out
    k = draw(st.integers(1, 4))
    return [ColoredCompleteGraph(n, np.array(draw(st.lists(
        st.integers(0, k - 1), min_size=n * n, max_size=n * n)),
        dtype=np.int64).reshape(n, n)) for n in sizes]


def full_width_closure(cs, domain, max_length):
    """The joint closure on n_tot x n_tot matrices, zero off the diagonal
    blocks, with one unbatched insertion per length: the reference for the
    per-block closure.  Returns (basis, stall length as grow_products
    defines it) over n_tot^2 coordinates."""
    gens = joint_matrices(cs)
    n_tot = gens.shape[1]
    full = int(np.count_nonzero(gens.any(axis=0)))
    prime = isinstance(domain, PrimeField)
    gens = gens.astype(np.float64 if prime else object)

    def close(basis, seeds, factors, max_length):
        frontier = seeds[basis.insert_batch(seeds.reshape(len(seeds), -1))]
        length = 1
        while max_length is None or length < max_length:
            length += 1
            if basis.rank == full:
                return length
            prods = frontier[:, None] @ factors
            if prime:
                prods %= domain.p
            prods = prods.reshape(-1, n_tot, n_tot)
            frontier = prods[basis.insert_batch(prods.reshape(len(prods), -1))]
            if len(frontier) == 0:
                return length
        return max_length + 1

    basis = MatrixSpanBasis(n_tot, domain)
    if max_length is None and prime and len(gens) < full:
        coef = np.random.default_rng(0).integers(1, domain.p, size=(2, len(gens)))
        pair = np.tensordot(coef.astype(np.float64), gens, axes=1)
        close(basis, pair, pair, None)
        added = basis.insert_batch(gens.reshape(len(gens), -1))
        if basis.rank == full or not added.any():
            return basis, None
        basis = MatrixSpanBasis(n_tot, domain)
    stall = close(basis, gens, gens, max_length)
    return basis, None if max_length is None else stall


def rows_at(basis, coords):
    """Basis rows restricted to ``coords``, as lists of exact values."""
    return [[int(x) if isinstance(x, float) else x for x in row[coords]]
            for row in np.asarray(basis.row_vectors())]


DOMAINS = {"prime1": PrimeField(PRIME_1), "prime2": PrimeField(PRIME_2),
           "rational": RationalDomain()}


class TestGrowProductsDifferential:
    @settings(deadline=None, max_examples=80)
    @given(colorings(), st.sampled_from(sorted(DOMAINS)),
           st.sampled_from([1, 6, _BATCH_ROWS]))
    def test_matches_one_at_a_time(self, cs, arith, batch_rows):
        domain = DOMAINS[arith]
        sizes = [c.n for c in cs]
        ref, stall = reference_closure(joint_matrices(cs), domain)
        # smaller batches split a length, and the full-rank stop, across calls
        with mock.patch("walkref.algebra._BATCH_ROWS", batch_rows):
            basis, stab = grow_products(MatrixSpanBasis(sizes, domain),
                                        color_matrices(cs), sum(sizes) ** 2 + 1)
        assert basis.rank == ref.rank and stab == stall
        assert rows_at(basis, slice(None)) == rows_at(ref, universe_coords(sizes))

    @settings(deadline=None, max_examples=80)
    @given(colorings(), st.sampled_from(sorted(DOMAINS)),
           st.sampled_from(["bounded", "whole"]))
    def test_matches_full_width(self, cs, arith, mode):
        """Per-block products against the n_tot-wide joint closure: the same
        rank, stall length and rows at the universe coordinates, which
        are the only coordinates where the reference rows are non-zero."""
        domain = DOMAINS[arith]
        sizes = [c.n for c in cs]
        max_length = sum(sizes) ** 2 + 1 if mode == "bounded" else None
        ref, stall = full_width_closure(cs, domain, max_length)
        basis, stab = grow_products(MatrixSpanBasis(sizes, domain),
                                    color_matrices(cs), max_length)
        assert basis.width == sum(n * n for n in sizes)
        assert (basis.rank, stab) == (ref.rank, stall)
        coords = universe_coords(sizes)
        assert rows_at(basis, slice(None)) == rows_at(ref, coords)
        off_block = np.setdiff1d(np.arange(sum(sizes) ** 2), coords)
        assert not np.any(np.array(rows_at(ref, off_block), dtype=object))
        # the coordinate partition, against a column-by-column grouping
        cols = [tuple(c) for c in zip(*rows_at(ref, coords))]
        first = np.array([[cols.index(c)] for c in cols])
        assert np.array_equal(partition_from_span(basis), group_rows(first))


class TestFullRankStop:
    @staticmethod
    def closure_rows(monkeypatch, cs):
        """Rank, stabilized_at and the rows passed to insert_batch."""
        rows = []
        insert_batch = MatrixSpanBasis.insert_batch

        def counted(self, batch):
            rows.append(len(batch))
            return insert_batch(self, batch)

        monkeypatch.setattr(MatrixSpanBasis, "insert_batch", counted)
        sizes = [c.n for c in cs]
        basis, stab = grow_products(MatrixSpanBasis(sizes), color_matrices(cs),
                                    50)
        return basis.rank, stab, sum(rows)

    def test_discrete_closes_without_products(self, monkeypatch):
        assert self.closure_rows(monkeypatch, [discrete(4)]) == (16, 2, 16)

    def test_joint_pair_full_rank_is_block_sum(self, monkeypatch):
        pair = [discrete(3), discrete(4, first_color=9)]
        assert self.closure_rows(monkeypatch, pair) == (25, 2, 25)


class TestFullAlgebra:
    @settings(deadline=None, max_examples=80)
    @given(colorings(), st.sampled_from([PRIME_1, PRIME_2]))
    def test_matches_bounded_closure(self, cs, p):
        gens = color_matrices(cs)
        sizes = [c.n for c in cs]
        full, stab = grow_products(MatrixSpanBasis(sizes, PrimeField(p)),
                                   gens, None)
        bounded, _ = grow_products(MatrixSpanBasis(sizes, PrimeField(p)),
                                   gens, sum(sizes) ** 2 + 1)
        ref, _ = reference_closure(joint_matrices(cs), PrimeField(p))
        assert stab is None
        assert full.rank == bounded.rank == ref.rank
        assert np.array_equal(partition_from_span(full),
                              partition_from_span(bounded))

    @pytest.mark.parametrize("cs", [
        [initial_coloring(cycle(6))],
        [initial_coloring(cycle(3)), initial_coloring(complete(4))],
    ])
    def test_degenerate_pair_falls_back(self, cs):
        # r1 = r2 = the all-ones matrix of each block spans a closed
        # algebra of rank one per block, which misses the generators
        gens = color_matrices(cs)
        sizes = [c.n for c in cs]

        def ones(gen_rows, p):
            return np.stack([gen_rows.sum(axis=0)] * 2)

        with mock.patch("walkref.algebra._random_pair", ones):
            got, _ = grow_products(MatrixSpanBasis(sizes), gens, None)
        want, _ = grow_products(MatrixSpanBasis(sizes), gens, sum(sizes) ** 2)
        assert got.rank == want.rank > len(cs)
        assert np.array_equal(got.row_vectors(), want.row_vectors())

    def test_discrete_inserts_only_generators(self, monkeypatch):
        rows = []
        insert_batch = MatrixSpanBasis.insert_batch

        def counted(self, batch):
            rows.append(len(batch))
            return insert_batch(self, batch)

        monkeypatch.setattr(MatrixSpanBasis, "insert_batch", counted)
        gens = color_matrices([discrete(3), discrete(2, first_color=9)])
        basis, stab = grow_products(MatrixSpanBasis((3, 2)), gens, None)
        assert (basis.rank, stab, rows) == (13, None, [13])


class TestPartitionFromSpan:
    def test_c5_span_partition(self):
        c = initial_coloring(cycle(5))
        gens = color_matrices([c])
        basis, _ = grow_products(MatrixSpanBasis(5), gens, 25)
        labels = partition_from_span(basis)
        # vertex-transitive and edge/nonedge classes never merge
        table = labels.reshape(5, 5)
        assert len(set(np.diag(table).tolist())) == 1
        assert table[0, 1] != table[0, 2]

    def test_empty_basis_raises(self):
        with pytest.raises(ValueError):
            partition_from_span(MatrixSpanBasis(3))


def tables(cs):
    return [c.color for c in cs]


class TestSampledProfile:
    def test_partition_matches_exact(self):
        c = initial_coloring(cycle(6))
        gens = color_matrices([c])
        basis, _ = grow_products(MatrixSpanBasis(6), gens, 36)
        exact_labels = partition_from_span(basis)
        prof = sampled_span_profile(tables([c]), max_length=200, seed=5)
        # same partition up to renaming: pairwise-equal iff pairwise-equal
        a, b = exact_labels, prof.labels
        assert np.unique(a).size == np.unique(b).size
        assert np.unique(a * (b.max() + 1) + b).size == np.unique(a).size

    def test_deterministic_given_seed(self):
        # windowed: the run ends before its cap of n^2 = 49 lengths
        c = initial_coloring(cycle(7))
        p1 = sampled_span_profile(tables([c]), seed=3)
        p2 = sampled_span_profile(tables([c]), seed=3)
        assert np.array_equal(p1.labels, p2.labels)
        assert p1.stabilized_length == p2.stabilized_length
        assert p1.lengths_used == p2.lengths_used < 49

    def test_refines_input_colors(self):
        c = initial_coloring(cycle(7))
        prof = sampled_span_profile(tables([c]), max_length=120, seed=9)
        inp = c.color.ravel()
        combo = prof.labels * (inp.max() + 1) + inp
        assert np.unique(combo).size == np.unique(prof.labels).size

    @settings(deadline=None, max_examples=60)
    @given(colorings(), st.integers(1, 4), st.integers(0, 3))
    def test_matches_bounded_closure(self, cs, k, seed):
        basis, _ = grow_products(MatrixSpanBasis([c.n for c in cs]),
                                 color_matrices(cs), k)
        prof = sampled_span_profile(tables(cs), max_length=k, seed=seed)
        assert np.array_equal(prof.labels, partition_from_span(basis))
        # an unsplit length 2 certifies coherence and ends the run
        assert prof.lengths_used == (
            2 if prof.stabilized_length == 1 and k > 2 else k)

    # P4 splits at length 2 and is capped at n^2 = 16 lengths; C9 is
    # ended by the window
    @pytest.mark.parametrize("g", [path(4), cycle(9)], ids=["4", "9"])
    def test_window_regroups_only_on_splits(self, monkeypatch, g):
        calls = []

        def counted(a):
            calls.append(a.shape)
            return group_rows(a)

        monkeypatch.setattr("walkref.algebra.group_rows", counted)
        prof = sampled_span_profile(tables([initial_coloring(g)]), seed=1)
        assert len(calls) <= 1 + prof.stabilized_length < prof.lengths_used
        assert prof.lengths_used == min(prof.stabilized_length + _STOP_WINDOW,
                                        g.n * g.n)

    @pytest.mark.parametrize("max_length", [None, 6], ids=["window", "6"])
    @pytest.mark.parametrize("case", ["c5-initial", "cfi3-stable"])
    def test_coherent_coloring_stops_at_length_2(self, case, max_length):
        if case == "c5-initial":
            c = initial_coloring(cycle(5))
        else:
            ws = Workspace.from_graphs(build_cfi(grid_base(3)).graph)
            stabilize(ws, RefinementKind.walk())
            c = ws.colorings[0]
        prof = sampled_span_profile(tables([c]), seed=2,
                                    max_length=max_length)
        assert np.array_equal(prof.labels, group_rows(c.color.reshape(-1, 1)))
        assert (prof.stabilized_length, prof.lengths_used) == (1, 2)


def full_width_sampled_span_profile(color_table, *, coords, seed,
                                    max_length=None,
                                    primes=(PRIME_1, PRIME_2)):
    """Reference sampler on one n_tot-wide chain stack per prime.

    ``color_table`` is the block-diagonal joint table with -1 outside the
    universe, which reads a zero coefficient, and ``coords`` are the flat
    universe indices.  It draws the same coefficients as
    ``sampled_span_profile`` and multiplies full n_tot x n_tot products,
    and stops where it does: after an unsplit length 2, or on the window.
    """
    table = np.asarray(color_table, dtype=np.int64)
    n_tot = table.shape[0]
    mask = table >= 0
    uniq = np.unique(table[mask])
    num_colors = uniq.size
    local = np.full_like(table, num_colors)
    local[mask] = np.searchsorted(uniq, table[mask])
    coef = np.zeros((_SAMPLED_CHAINS, num_colors + 1))
    rngs = [np.random.default_rng((seed, p)) for p in primes]

    def fresh_factors(i):
        coef[:, :num_colors] = rngs[i].integers(
            1, primes[i], size=(_SAMPLED_CHAINS, num_colors))
        return np.take(coef, local, axis=1)

    chains = [fresh_factors(i) for i in range(len(primes))]
    flat_coords = np.asarray(coords, dtype=np.int64)
    labels = group_rows(table.ravel()[flat_coords, None])
    first = np.unique(labels, return_index=True)[1]
    windowed = max_length is None
    if windowed:
        max_length = n_tot * n_tot
    stabilized_length = 1
    length = 0
    while length < max_length:
        length += 1
        if length > 1:
            chains = [_matmul_mod(chain, fresh_factors(i), p)
                      for i, (chain, p) in enumerate(zip(chains, primes))]
        samples = np.concatenate([
            chain.reshape(_SAMPLED_CHAINS, -1)[:, flat_coords]
            for chain in chains])
        if (samples != samples[:, first[labels]]).any():
            samples = samples.T.astype(np.int64)
            labels = group_rows(np.column_stack([labels, samples]))
            first = np.unique(labels, return_index=True)[1]
            stabilized_length = length
        elif length == 2 or (windowed
                             and length - stabilized_length >= _STOP_WINDOW):
            break
    return labels, stabilized_length, length


@st.composite
def sampler_inputs(draw):
    """A single coloring, or a joint pair of equal or of unequal sizes,
    over a few shared colors."""
    kind = draw(st.sampled_from(["single", "equal", "unequal"]))
    n = draw(st.integers(1, 6))
    if kind == "single":
        sizes = [n]
    elif kind == "equal":
        sizes = [n, n]
    else:
        sizes = [n, draw(st.integers(1, 6).filter(lambda m: m != n))]
    k = draw(st.integers(1, 5))
    return [ColoredCompleteGraph(m, np.array(draw(st.lists(
        st.integers(0, k - 1), min_size=m * m, max_size=m * m)),
        dtype=np.int64).reshape(m, m)) for m in sizes]


class TestSampledDifferential:
    @settings(deadline=None, max_examples=80)
    @given(sampler_inputs(),
           st.sampled_from([(PRIME_1,), (PRIME_1, PRIME_2)]),
           st.one_of(st.integers(1, 4), st.none()),
           st.integers(0, 2**16))
    def test_matches_full_width(self, cs, primes, max_length, seed):
        """Per-block chains against the full-width reference: the same
        labels, stabilized length and lengths used, bounded or windowed."""
        prof = sampled_span_profile(tables(cs), seed=seed,
                                    max_length=max_length, primes=primes)
        labels, stabilized, used = full_width_sampled_span_profile(
            block_color_table(cs), coords=universe_coords([c.n for c in cs]),
            seed=seed, max_length=max_length, primes=primes)
        assert np.array_equal(prof.labels, labels)
        assert (prof.stabilized_length, prof.lengths_used) == (stabilized, used)


@settings(deadline=None, max_examples=20)
@given(st.integers(3, 6), st.integers(0, 10))
def test_dimension_at_least_color_count(n, seed):
    rng = np.random.default_rng(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    c = initial_coloring(SimpleGraph.from_edges(n, edges))
    colors = np.unique(c.color).size
    dim = closure_rank(c)
    assert colors <= dim <= n * n
