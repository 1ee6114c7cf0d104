"""Exact linear algebra on vectorized block-diagonal matrices.

A joint pair's color matrices, and so all their products, are zero off
the two diagonal blocks.  Both engines keep only the blocks: a matrix is
its blocks' row-major vectorizations side by side, sum_i n_i^2
coordinates in ``PairPartition`` universe order, and a product costs
sum_i n_i^3 multiply-adds.

One elimination engine lives here: ``MatrixSpanBasis`` keeps a reduced
row-echelon basis and takes rows in batches.  Over a prime field its rows
are float64 integers in [0, p), reduced with BLAS products whose inner
dimension is chunked to ``_CHUNK`` so that every sum stays exact below
2^53, with one modular reduction (``_mod_p``) per chunk; this is the
delayed-reduction scheme of FFLAS (Dumas, Giorgi & Pernet, ACM TOMS 2008).
Over the rationals it keeps Fraction rows, as the exact oracle at desk
scale.  Two closures use the engine:

* an exact, deterministic closure (``grow_products``) of the products of
  the color adjacency matrices, up to a length or to the whole algebra.
  The whole algebra comes from two random combinations of the generators
  and is certified by checking that it holds every generator, so the
  draw can change the speed but never the answer (two generic elements
  generate a semisimple algebra, as this one is, being closed under
  transpose), and
* a seeded randomized sampler (``sampled_span_profile``) of the
  coordinate partition of the products, which can only err by merging
  coordinates, with its Schwartz-Zippel bound stated there.

Both end in a coordinate partition, grouped exactly by
``graph_core.group_rows``: the columns of the basis rows
(``partition_from_span``), and the input colors split by the sampler's
values wherever a length separates two members of a class.

Primes default to ~2^22 so that every inner product fits exactly in float64
BLAS with 512-row chunking (p^2 * 512 < 2^53).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph_core import group_rows

PRIME_1 = 4194301
PRIME_2 = 4194287
_CHUNK = 512  # inner dimension per exact float64 accumulation
_BATCH_ROWS = 128  # products per insert_batch call in grow_products,
_BATCH_ENTRIES = 2**17  # and at most this many entries (1 MiB of float64)


class AlgebraCrossCheckError(RuntimeError):
    """Raised when the two prime-field runs disagree."""


# ---------------------------------------------------------------------------
# arithmetic domains


class PrimeField:
    def __init__(self, p: int = PRIME_1):
        if p < 2:
            raise ValueError("p must be a prime >= 2")
        if p * p * _CHUNK >= 2**53:
            raise ValueError(f"p={p} too large for exact float64 accumulation")
        self.p = p

    def __repr__(self):
        return f"PrimeField({self.p})"


class RationalDomain:
    """Exact rationals via Fraction object arrays.  Desk scale only."""

    def __repr__(self):
        return "RationalDomain()"


def _mod_p(v: np.ndarray, p: int, out=None) -> np.ndarray:
    """Exact ``v mod p`` in [0, p) for float64 integers with |v| <= 2^53 - p,
    written to ``out`` if given.

    ``floor(v / p)`` can be one off where the rounded quotient crosses an
    integer; the bound keeps ``p * floor(v / p)`` exact, and one fixup on
    each side corrects the remainder.  Several times faster than ``np.mod``.
    """
    q = np.divide(v, p, out=out)
    np.floor(q, out=q)
    q *= p
    r = np.subtract(v, q, out=q)
    np.add(r, p, out=r, where=r < 0)
    np.subtract(r, p, out=r, where=r >= p)
    return r


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int, acc=None,
                out=None) -> np.ndarray:
    """Exact ``(acc + a @ b) mod p`` in float64, batched over leading axes,
    written to ``out`` if given.

    Entries of ``a`` lie in (-p, p), those of ``b`` in [0, p) and those of
    ``acc`` in [0, p); the inner dimension is taken ``_CHUNK`` at a time, so
    every partial sum stays below ``p + _CHUNK * (p - 1)^2 < 2^53`` in
    magnitude and is exact.
    """
    for start in range(0, a.shape[-1], _CHUNK):
        part = a[..., start : start + _CHUNK] @ b[..., start : start + _CHUNK, :]
        acc = _mod_p(part if acc is None else acc + part, p, out)
    return acc


# ---------------------------------------------------------------------------
# exact span basis


class MatrixSpanBasis:
    """Reduced-echelon basis of vectorized block-diagonal matrices.

    ``sizes`` are the block sizes n_i (an int is one block); a row holds
    the row-major blocks side by side, sum_i n_i^2 coordinates.  Each
    row's pivot is its first nonzero coordinate, normalized to 1, and every
    pivot column is zero in every other row.  Rows stay in the order they
    were kept, so the basis equals the one that inserting the same vectors
    one at a time would build.
    """

    def __init__(self, sizes, domain=None):
        self.sizes = tuple(int(n) for n in np.atleast_1d(sizes))
        self.width = sum(n * n for n in self.sizes)
        self.domain = domain if domain is not None else PrimeField()
        self._prime = isinstance(self.domain, PrimeField)
        if self._prime:
            self._mat = np.zeros((16, self.width))
            self._piv = np.zeros(16, dtype=np.int64)
            self._rank = 0
        else:
            self.rows = []
            self.pivots = []

    @property
    def rank(self) -> int:
        return self._rank if self._prime else len(self.rows)

    def insert(self, vec) -> bool:
        """Insert a vector; returns True iff it increased the rank."""
        return bool(self.insert_batch(np.asarray(vec).reshape(1, -1))[0])

    def insert_batch(self, rows) -> np.ndarray:
        """Insert the rows of an (s, N) array, in order.

        Returns the mask of the rows that increased the rank, in input
        order: the results of inserting them one at a time.  Over a prime
        field the entries must be integers with |x| <= 2^53 - p.
        """
        if not self._prime:
            return np.array([self._insert_rational(r) for r in rows], dtype=bool)
        p = self.domain.p
        r = self._rank
        basis = self._mat[:r]
        v = _mod_p(np.asarray(rows, dtype=np.float64), p)
        # 1. reduce the batch against the basis
        coeffs = v[:, self._piv[:r]]
        if coeffs.any():
            v = _matmul_mod(-coeffs, basis, p, acc=v)
        # 2. eliminate the survivors in order; each kept row's pivot column
        # is cleared from every other row of the batch, kept or pending
        kept = np.zeros(len(v), dtype=bool)
        pivots = []
        for i in np.flatnonzero(v.any(axis=1)):
            nz = np.flatnonzero(v[i])
            if nz.size == 0:
                continue
            piv = int(nz[0])
            v[i] = _mod_p(v[i] * pow(int(v[i, piv]), -1, p), p)
            col = v[:, piv].copy()
            col[i] = 0
            hit = np.flatnonzero(col)
            if hit.size:
                v[hit] = _mod_p(v[hit] - np.outer(col[hit], v[i]), p)
            kept[i] = True
            pivots.append(piv)
        if not pivots:
            return kept
        new = v[kept]
        # 3. clear the new pivot columns from the old rows
        coeffs = basis[:, pivots]
        hit = np.flatnonzero(coeffs.any(axis=1))
        if hit.size:
            self._mat[hit] = _matmul_mod(-coeffs[hit], new, p, acc=basis[hit])
        k = len(pivots)
        if r + k > len(self._piv):
            # zeroed pages stay unmapped until rows are written to them
            cap = max(2 * len(self._piv), r + k)
            mat, pivs = np.zeros((cap, self._mat.shape[1])), np.zeros(cap, np.int64)
            mat[:r], pivs[:r] = basis, self._piv[:r]
            self._mat, self._piv = mat, pivs
        self._mat[r : r + k] = new
        self._piv[r : r + k] = pivots
        self._rank = r + k
        return kept

    def _insert_rational(self, vec) -> bool:
        v = np.array([Fraction(int(x)) for x in np.asarray(vec).ravel()], dtype=object)
        for row, piv in zip(self.rows, self.pivots):
            if v[piv] != 0:
                v = v - v[piv] * row
        nz = np.flatnonzero(v)
        if nz.size == 0:
            return False
        piv = int(nz[0])
        v = v / v[piv]
        for i, row in enumerate(self.rows):
            if row[piv] != 0:
                self.rows[i] = row - row[piv] * v
        self.rows.append(v)
        self.pivots.append(piv)
        return True

    def row_vectors(self):
        """Basis rows as a 2-D float64 array (prime field) or list (rationals)."""
        if self._prime:
            return self._mat[: self._rank]
        return self.rows


# ---------------------------------------------------------------------------
# color adjacency matrices


def color_matrices(colorings) -> list:
    """0/1 adjacency matrix per color of a list of one coloring or a joint
    pair: one (colors, n_i, n_i) int64 stack per graph, the diagonal blocks
    of the generators.

    The stacks run over the union of the graphs' color ids, in sorted
    order, so index c is one color in every block; a color that a graph
    lacks gives a zero block.  Each stack sums to the all-ones matrix.
    """
    ids = set().union(*(c.color.ravel().tolist() for c in colorings))
    colors = np.array(sorted(ids), dtype=np.int64)[:, None, None]
    return [(c.color == colors).astype(np.int64) for c in colorings]


def grow_products(basis: MatrixSpanBasis, blocks, max_length: int | None = None):
    """Grow an empty basis into the span of products of the generators,
    given as their diagonal blocks: one (c, n_i, n_i) stack per block of
    ``basis.sizes``, such as ``color_matrices`` returns.

    With a ``max_length`` the basis spans all products of at most that
    many generators, closed by multiplying with every generator.  With
    ``max_length=None`` it spans the whole algebra.  Over a prime field,
    unless the coloring is discrete, that mode closes the span of two
    fixed random combinations r1, r2 of the generators under right
    multiplication by r1 and r2 alone, then inserts every generator.  The
    span lies in the algebra and is closed under products, so it is the
    algebra if its rank is the support size or no generator adds rank;
    otherwise the all-generator closure runs from scratch.

    Returns (basis, stabilized_at), where the basis may be a fresh one.
    ``stabilized_at`` is None when ``max_length`` is None, else the first
    length whose increment added no rank (the full-rank stop gives the
    length after the one that reached full rank), or max_length + 1 if
    growth never stalled.
    """
    if basis.rank:
        # the full-rank stop needs every basis row on the generators' support
        raise ValueError("grow_products starts from an empty basis")
    # one row per generator: its blocks' row-major entries side by side
    gens = np.hstack([b.reshape(len(b), -1) for b in blocks],
                     dtype=np.float64 if basis._prime else object)
    full = int(np.count_nonzero(gens.any(axis=0)))
    # a discrete coloring's generators already span every matrix on the
    # support, so the all-generator closure inserts them and stops
    if max_length is None and basis._prime and len(gens) < full:
        pair = _random_pair(gens, basis.domain.p)
        _close(basis, pair, pair, full, None)
        added = basis.insert_batch(gens)
        if basis.rank == full or not added.any():
            return basis, None
        basis = MatrixSpanBasis(basis.sizes, basis.domain)
    stabilized_at = _close(basis, gens, gens, full, max_length)
    return basis, None if max_length is None else stabilized_at


def _random_pair(gens: np.ndarray, p: int) -> np.ndarray:
    """Two combinations of the generators with fixed random coefficients."""
    coef = np.random.default_rng(0).integers(1, p, size=(2, len(gens)))
    # the color matrices are disjoint, so each entry is one coefficient
    return np.tensordot(coef.astype(np.float64), gens, axes=1)


def _close(basis, seeds, factors, full, max_length):
    """Insert the seeds, then right-multiply the frontier by every factor
    until a length adds nothing or ``max_length`` (None: no bound).
    Seeds, factors and products are rows of the block layout.

    Each group of frontier matrices times every factor is one matmul per
    block and one batch of at most ``_BATCH_ROWS`` rows and
    ``_BATCH_ENTRIES`` entries (step 2 of ``insert_batch`` sweeps the
    batch once per kept row), in frontier-then-factor order, which keeps
    the rows of one-at-a-time insertion.  It stops once the rank equals
    ``full``, the support size: the span then holds every matrix on the
    support, which is closed under products.  Returns the stall length as
    ``grow_products`` defines it.
    """
    frontier = seeds[basis.insert_batch(seeds)]
    rows = min(_BATCH_ROWS, _BATCH_ENTRIES // basis.width)
    step = max(1, rows // len(factors))
    bounds = np.cumsum([0] + [n * n for n in basis.sizes])

    def mul(a, b, out):
        if basis._prime:
            return _matmul_mod(a, b, basis.domain.p, out=out)
        return np.matmul(a, b, out=out)

    length = 1
    while max_length is None or length < max_length:
        length += 1
        if basis.rank == full:
            return length
        kept = []
        for start in range(0, len(frontier), step):
            group = frontier[start : start + step, None]
            prods = np.empty((len(group) * len(factors), basis.width),
                             factors.dtype)
            for n, lo, hi in zip(basis.sizes, bounds, bounds[1:]):
                # m @ f for each frontier matrix m, then each factor f
                mul(group[..., lo:hi].reshape(-1, 1, n, n),
                    factors[:, lo:hi].reshape(-1, n, n),
                    prods[:, lo:hi].reshape(len(group), len(factors), n, n))
            kept.append(prods[basis.insert_batch(prods)])
            if basis.rank == full:
                break
        frontier = np.concatenate(kept)
        if len(frontier) == 0:
            return length
    return max_length + 1


def partition_from_span(basis: MatrixSpanBasis) -> np.ndarray:
    """Coordinate-equality partition of the span: labels per coordinate.

    Two coordinates share a class iff every basis row has equal entries at
    both.  Labels are canonical by first occurrence in coordinate order.
    ``group_rows`` groups the columns through a transposed view, without a
    transposed copy; rational entries go by the first-seen order of the
    distinct values.
    """
    if basis.rank == 0:
        raise ValueError("empty basis has no coordinate partition")
    if isinstance(basis.domain, PrimeField):
        # int64 labels: a -0.0 entry must not split a class from 0.0
        ids = basis.row_vectors().astype(np.int64)
    else:
        index = {}
        ids = np.array([[index.setdefault(x, len(index)) for x in row]
                        for row in basis.row_vectors()], dtype=np.int64)
    return group_rows(ids.T)


# ---------------------------------------------------------------------------
# randomized sampled closure

_SAMPLED_CHAINS = 3  # random product chains per prime
_STOP_WINDOW = 24  # lengths without a split that end a run with no max_length


@dataclass
class SpanProfile:
    """Result of profiling the product span by random sampling."""

    labels: np.ndarray          # canonical class labels per coordinate
    stabilized_length: int      # last length that still changed something
    lengths_used: int


def sampled_span_profile(
    color_tables,
    *,
    seed: int,
    max_length: int | None = None,
    primes=(PRIME_1, PRIME_2),
) -> SpanProfile:
    """Sample the coordinate partition of the products of the color matrices.

    ``color_tables`` holds one (n_i, n_i) color table per graph: one for a
    single coloring, two for a joint pair, whose color matrices are block
    diagonal.  The labels run over the coordinates of the block layout.
    Each length multiplies every running chain by a fresh random linear
    combination of the generators, so chain entries are random linear
    functionals of the exact-length walk counts.  One coefficient per color
    is drawn over the union of the blocks' colors, and each block keeps its
    own chain.  One label array starts as
    the input colors; at each length every coordinate's samples are
    compared with those of its class's first member, and only when some
    class splits are the labels regrouped with the samples.

    The partition is one-sided.  Coordinates with equal walk counts always
    get equal samples, so it can only merge classes, never split one.  A
    chain entry at length l is a polynomial of degree l in the random
    coefficients, so by Schwartz-Zippel two coordinates whose length-l walk
    counts differ mod p get equal samples at that length with probability
    at most (l / p)^3 per prime, independently across primes.  That bound
    covers a run of ``max_length`` lengths.

    A run that splits no class through length 2 stops there, bounded or
    windowed.  Length 2 samples random combinations of the products of
    two generators, so the input coloring is then coherent (its span is
    closed under products), except with probability at most (2/p)^3 per
    prime, and every longer product is constant on its classes.  So
    only a coloring that is not coherent reaches the window: with
    ``max_length=None`` such a run ends ``_STOP_WINDOW`` lengths after
    the last split, or after n_tot^2 lengths (n_tot = sum_i n_i), a
    heuristic with no such bound.
    """
    tables = [np.asarray(t, dtype=np.int64) for t in color_tables]
    colors = np.concatenate([t.ravel() for t in tables])
    uniq = np.unique(colors)
    # local color index per coordinate, into one table over all blocks
    local = [np.searchsorted(uniq, t) for t in tables]
    rngs = [np.random.default_rng((seed, p)) for p in primes]

    def fresh_factors(i: int) -> list:
        """Random generator combinations per block, each (chains, n_i, n_i)."""
        coef = rngs[i].integers(1, primes[i], size=(_SAMPLED_CHAINS, uniq.size))
        coef = coef.astype(np.float64)
        return [np.take(coef, idx, axis=1) for idx in local]

    chains = [fresh_factors(i) for i in range(len(primes))]
    labels = group_rows(colors[:, None])
    # each coordinate's class representative: the class's first member
    rep = np.unique(labels, return_index=True)[1][labels]
    windowed = max_length is None
    if windowed:
        max_length = sum(t.shape[0] for t in tables) ** 2
    stabilized_length = 1
    length = 0
    while length < max_length:
        length += 1
        if length > 1:
            chains = [[_matmul_mod(chain, factor, p)
                       for chain, factor in zip(blocks, fresh_factors(i))]
                      for i, (blocks, p) in enumerate(zip(chains, primes))]
        samples = np.vstack([
            np.hstack([c.reshape(_SAMPLED_CHAINS, -1) for c in blocks])
            for blocks in chains])
        if (samples != samples[:, rep]).any():
            samples = samples.T.astype(np.int64)
            labels = group_rows(np.column_stack([labels, samples]))
            rep = np.unique(labels, return_index=True)[1][labels]
            stabilized_length = length
        # length 1 samples one coefficient per color and splits nothing,
        # so an unsplit length 2 is the coherence certificate
        elif length == 2 or (windowed
                             and length - stabilized_length >= _STOP_WINDOW):
            break
    return SpanProfile(
        labels=labels,
        stabilized_length=stabilized_length,
        lengths_used=length,
    )


__all__ = [
    "PRIME_1",
    "PRIME_2",
    "PrimeField",
    "RationalDomain",
    "MatrixSpanBasis",
    "SpanProfile",
    "AlgebraCrossCheckError",
    "color_matrices",
    "grow_products",
    "partition_from_span",
    "sampled_span_profile",
]
