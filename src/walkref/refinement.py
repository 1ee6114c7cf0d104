"""Iterated pair refinements: 2-walk (Weisfeiler-Leman), k-walk, and walk.

All three refinements act on a ``Workspace`` of one or two colored complete
graphs sharing one class-id counter, so that class ids stay comparable
across the joint universe.  The k-walk partition of a coloring equals the
coordinate-equality partition of the span of products of its color
adjacency matrices with at most k factors (stationary walks on loop colors
embed every shorter length); the k-walk step samples it from random
products, and the walk refinement, its k -> infinity limit, closes the
span completely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    PRIME_1,
    PRIME_2,
    AlgebraCrossCheckError,
    MatrixSpanBasis,
    PrimeField,
    RationalDomain,
    color_matrices,
    grow_products,
    partition_from_span,
    sampled_span_profile,
)
from .graph_core import (
    BudgetExceeded,
    PairPartition,
    group_rows,
    initial_coloring,
)

NAIVE_WALK_BUDGET = 10**7
EXACT_METHOD_MAX_VERTICES = 40  # above this: sampled walk steps, no rationals
ARITH_MODES = ("prime", "prime2", "rational")


@dataclass(frozen=True)
class RefinementKind:
    """One of the three refinement operators."""

    name: str  # "wl" | "kwalk" | "walk"
    k: int | None = None

    def __post_init__(self):
        if self.name not in ("wl", "kwalk", "walk"):
            raise ValueError(f"unknown refinement kind {self.name!r}")
        if self.name == "kwalk":
            if self.k is None or self.k < 2:
                raise ValueError("k-walk refinement requires k >= 2")
        elif self.k is not None:
            raise ValueError(f"{self.name} refinement takes no k")

    @staticmethod
    def wl() -> "RefinementKind":
        return RefinementKind("wl")

    @staticmethod
    def kwalk(k: int) -> "RefinementKind":
        return RefinementKind("kwalk", k)

    @staticmethod
    def walk() -> "RefinementKind":
        return RefinementKind("walk")

    def __str__(self):
        return f"kwalk[{self.k}]" if self.name == "kwalk" else self.name


@dataclass
class Workspace:
    """One or two colorings under joint refinement, sharing class ids."""

    colorings: list
    # ids 0-2 are the atoms LOOP, EDGE, NONEDGE
    next_class_id: int = field(default=3, init=False)

    def __post_init__(self):
        if not 1 <= len(self.colorings) <= 2:
            raise ValueError("workspace holds one or two colorings")

    @staticmethod
    def from_graphs(graphs) -> "Workspace":
        if not isinstance(graphs, (list, tuple)):
            graphs = [graphs]
        return Workspace([initial_coloring(g) for g in graphs])

    @property
    def sizes(self):
        return tuple(c.n for c in self.colorings)

    @property
    def total_vertices(self) -> int:
        return sum(self.sizes)

    def fresh_class_block(self, num_classes: int) -> int:
        """Mint ``num_classes`` consecutive unused class ids.

        Returns the first id of the block; class ``i`` gets id ``base + i``.
        """
        base = self.next_class_id
        self.next_class_id += num_classes
        return base

    def partition(self) -> PairPartition:
        return PairPartition.from_colorings(self.colorings)


@dataclass
class WalkRecord:
    """Per-iteration walk-count bookkeeping used by formula synthesis.

    ``class_multisets[c]`` maps each k-step color sequence (a tuple of
    previous-iteration color ids) to its walk count, for any pair of the
    new class ``c``; ``new_tables`` are the color tables after the
    iteration.
    """

    k: int
    new_tables: list
    class_multisets: dict


@dataclass
class RefinementHistory:
    kind: RefinementKind
    partitions: list               # partitions[i] after i iterations
    dims: list | None = None       # induced-algebra rank per iteration
    walk_records: list | None = None
    distinguished_at: int | None = None

    @property
    def iterations(self) -> int:
        return len(self.partitions) - 1

    @property
    def classes_per_iteration(self):
        return [p.num_classes for p in self.partitions]

    @property
    def stable_partition(self) -> PairPartition:
        return self.partitions[-1]

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.name,
            "k": self.kind.k,
            "iterations": self.iterations,
            "classes_per_iteration": self.classes_per_iteration,
            "distinguished_at": self.distinguished_at,
        }


# ---------------------------------------------------------------------------
# single steps


def wl_step(ws: Workspace, seed: int = 0) -> None:
    """One 2-dim Weisfeiler-Leman step: recolor each pair (u, v) by the
    multiset over w of color pairs (chi(u, w), chi(w, v)).

    That multiset counts the 2-step walks of each color sequence, so this
    is the 2-walk step, sampled at every size (see ``_span_labels``) over
    both primes, whatever arithmetic the run uses.  Its error is
    one-sided: it never splits a class, and it gives two coordinates
    whose signatures differ one color with probability at most (2/p)^3
    per prime, independently over both primes.  ``stabilize`` passes
    each iteration's seed.
    """
    labels, _ = _span_labels(ws, 2, seed=seed)
    _install_labels(ws, labels)


def k_walk_step(ws: Workspace, k: int, seed: int = 0,
                arith: str = "prime2") -> None:
    """One k-walk step: recolor each pair by the multiset of color
    sequences of all k-step walks between its endpoints.  The seeded
    sampler computes it at every size (see ``_span_labels``)."""
    if k < 2:
        raise ValueError("k-walk refinement requires k >= 2")
    labels, _ = _span_labels(ws, k, seed=seed, arith=arith)
    _install_labels(ws, labels)


def walk_step(ws: Workspace, seed: int = 0, want_dim: bool = False,
              arith: str = "prime2"):
    """One walk-refinement step: the finest k-walk step (k = n^2 always
    suffices).  Returns the induced-algebra dimension if requested; the
    engine follows from ``want_dim`` and the size (see ``_span_labels``)."""
    labels, dim = _span_labels(ws, None, seed=seed, want_dim=want_dim,
                               arith=arith)
    _install_labels(ws, labels)
    return dim


def naive_k_walk_step(ws: Workspace, k: int, budget: int = NAIVE_WALK_BUDGET):
    """Oracle k-walk step by enumeration of every k-step walk.

    Returns a WalkRecord of the walk-count multisets.  Refuses to touch
    more than ``budget`` walk steps in total.

    Each graph's walks are built in numpy, level by level, in chunks of at
    most ``_WALKS_PER_CHUNK`` walks (see ``_walk_counts``).  A walk is one
    int64 key: its pair u*n + v, then its k colours as digits base r, the
    graph's number of colours.  Keys stay below n^2 r^k <= (n^(k+1))^2,
    inside int64 whenever a graph has at most 3*10^9 walks, which every
    budget below 6*10^9 ensures; a larger key range is refused up front.
    Pairs are then grouped across the graphs by their rows of (colour
    sequence, count) entries, and a class's multiset dict is built from
    its first pair only.
    """
    if k < 2:
        raise ValueError("k-walk refinement requires k >= 2")
    cost = sum(c.n ** (k + 1) for c in ws.colorings) * k
    if cost > budget:
        raise BudgetExceeded(
            f"naive enumeration needs {cost} steps > budget {budget}"
        )
    palettes = []
    for c in ws.colorings:
        palette, local = np.unique(c.color, return_inverse=True)
        if c.n * c.n * len(palette) ** k > np.iinfo(np.int64).max:
            raise BudgetExceeded(
                f"naive enumeration keys of {c.n} vertices, "
                f"{len(palette)} colours and k = {k} exceed int64"
            )
        palettes.append((palette, local.reshape(c.n, c.n)))
    # entries: one per distinct (pair, colour sequence), sorted by pair
    # in universe order, then by sequence
    pairs, counts, seq_rows, seqs = [], [], [], []
    offset = rows = 0
    for c, (palette, local) in zip(ws.colorings, palettes):
        r = len(palette)
        keys, cnt = _walk_counts(local, r, k)
        pairs.append(keys // r**k + offset)
        counts.append(cnt)
        codes, inverse = np.unique(keys % r**k, return_inverse=True)
        seq_rows.append(inverse + rows)
        digits = np.empty((len(codes), k), dtype=np.int64)
        for i in reversed(range(k)):
            codes, digits[:, i] = np.divmod(codes, r)
        seqs.append(palette[digits])
        offset += c.n * c.n
        rows += len(digits)
    pairs, counts = np.concatenate(pairs), np.concatenate(counts)
    seq_rows, seqs = np.concatenate(seq_rows), np.vstack(seqs)
    seq_ids = group_rows(seqs)[seq_rows]
    # one row per pair: its (sequence id, count) entries, padded with -1
    per_pair = np.bincount(pairs, minlength=offset)
    start = np.cumsum(per_pair) - per_pair
    pos = 2 * (np.arange(len(pairs)) - start[pairs])
    table = np.full((offset, 2 * int(per_pair.max())), -1, dtype=np.int64)
    table[pairs, pos] = seq_ids
    table[pairs, pos + 1] = counts
    labels = _install_labels(ws, group_rows(table))
    # the entries of each class's first pair, class after class
    _, first = np.unique(labels, return_index=True)
    sizes = per_pair[first]
    ends = np.cumsum(sizes)
    picked = np.repeat(start[first] - (ends - sizes), sizes) \
        + np.arange(ends[-1])
    seq_lists = seqs[seq_rows[picked]].tolist()
    count_list = counts[picked].tolist()
    class_multisets = {}
    lo = 0
    for lab, hi in enumerate(ends.tolist()):
        class_multisets[lab] = dict(zip(map(tuple, seq_lists[lo:hi]),
                                        count_list[lo:hi]))
        lo = hi
    return WalkRecord(
        k=k,
        new_tables=[c.color.copy() for c in ws.colorings],
        class_multisets=class_multisets,
    )


_WALKS_PER_CHUNK = 2**16


def _walk_counts(local: np.ndarray, r: int, k: int):
    """Sorted distinct walk keys of one graph and their walk counts.

    ``local`` holds the graph's colours as indices below ``r``; the key of
    the walk (u, w_2, ..., w_k, v) is (u*n + v) * r^k plus its colour
    indices as k digits base r, the first step's most significant.  Walks
    grow one level at a time from their first vertices.  While one first
    vertex would still leave more than ``_WALKS_PER_CHUNK`` walks, the
    whole prefix set grows by a level; then chunks of prefixes, each
    leaving at most that many walks, run the remaining levels.
    """
    n = local.shape[0]
    first = last = np.arange(n)
    code = np.zeros(n, dtype=np.int64)
    rest = k
    while rest > 1 and n**rest > _WALKS_PER_CHUNK:
        first, code, last = _extend(first, code, last, local, r)
        rest -= 1
    step = max(1, _WALKS_PER_CHUNK // n**rest)
    keys, counts = [], []
    for s in range(0, len(first), step):
        f, c, w = first[s : s + step], code[s : s + step], last[s : s + step]
        for _ in range(rest):
            f, c, w = _extend(f, c, w, local, r)
        chunk_keys, chunk_counts = np.unique((f * n + w) * r**k + c,
                                             return_counts=True)
        keys.append(chunk_keys)
        counts.append(chunk_counts)
    chunks = len(keys)
    keys, counts = np.concatenate(keys), np.concatenate(counts)
    if chunks > 1:
        # a first vertex may span several chunks: merge equal keys
        order = np.argsort(keys, kind="stable")
        keys, counts = keys[order], counts[order]
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        keys, counts = keys[starts], np.add.reduceat(counts, starts)
    return keys, counts


def _extend(first, code, last, local, r):
    """Every walk extended by one step to each vertex."""
    n = local.shape[0]
    return (np.repeat(first, n), (code[:, None] * r + local[last]).ravel(),
            np.tile(np.arange(n), len(last)))


def check_arith(arith: str, total_vertices: int) -> None:
    """Raise ValueError for an unknown arithmetic mode, or for rational
    arithmetic on more than ``EXACT_METHOD_MAX_VERTICES`` total vertices."""
    if arith not in ARITH_MODES:
        raise ValueError(f"unknown arithmetic mode {arith!r}")
    if arith == "rational" and total_vertices > EXACT_METHOD_MAX_VERTICES:
        raise ValueError(
            "rational arithmetic is limited to "
            f"{EXACT_METHOD_MAX_VERTICES} total vertices"
        )


def _span_labels(ws, k, *, seed, want_dim=False, arith="prime2"):
    """Coordinate partition of the span of the color-matrix products of
    length <= k (``k=None``: the whole algebra), and its rank if asked.

    Engines by step and total vertex count (``grow_products`` closures):

    =====================  =====================  =========================
    step                   <= 40 vertices         > 40 vertices
    =====================  =====================  =========================
    any, ``want_dim``      whole-algebra closure  whole-algebra closure
    walk                   whole-algebra closure  sampler, windowed
    k-walk                 sampler, k lengths     sampler, k lengths
    WL (k = 2)             sampler, 2 lengths     sampler, 2 lengths
    =====================  =====================  =========================

    A k-walk step, WL's among them, runs all k lengths, so its only error
    is the one-sided Schwartz-Zippel bound of ``sampled_span_profile``.
    A walk step has no length to run to: the sampler stops it on its
    heuristic window (``algebra._STOP_WINDOW``), which the slower exact
    closure replaces up to 40 vertices.  Rational arithmetic is refused
    above 40 vertices; its k-walk steps sample over both primes, as under
    ``prime2``, which also checks ranks on both.

    Both engines see a joint pair as its ``ws.sizes`` diagonal blocks, so
    a product costs n_1^3 + n_2^3, not (n_1 + n_2)^3, and they label the
    universe coordinates, in ``PairPartition`` order.
    """
    n_tot = ws.total_vertices
    check_arith(arith, n_tot)
    if k is None and (want_dim or n_tot <= EXACT_METHOD_MAX_VERTICES):
        domain = RationalDomain() if arith == "rational" else PrimeField(PRIME_1)
        gens = color_matrices(ws.colorings)
        basis, _ = grow_products(MatrixSpanBasis(ws.sizes, domain), gens)
        if want_dim and arith == "prime2":
            check, _ = grow_products(
                MatrixSpanBasis(ws.sizes, PrimeField(PRIME_2)), gens
            )
            if check.rank != basis.rank:
                raise AlgebraCrossCheckError(
                    f"exact ranks disagree across primes: "
                    f"{basis.rank} vs {check.rank}"
                )
        return partition_from_span(basis), basis.rank
    prof = sampled_span_profile(
        [c.color for c in ws.colorings],
        max_length=k,
        seed=seed,
        primes=(PRIME_1,) if arith == "prime" else (PRIME_1, PRIME_2),
    )
    return prof.labels, None


def _install_labels(ws: Workspace, labels: np.ndarray) -> np.ndarray:
    """Mint fresh class colors for canonical labels and write the new color
    tables.  Returns the canonical labels."""
    flat = PairPartition(ws.sizes, labels).labels
    base = ws.fresh_class_block(int(flat.max()) + 1)
    off = 0
    for c in ws.colorings:
        c.color = (flat[off : off + c.n * c.n] + base).reshape(c.n, c.n)
        off += c.n * c.n
    return flat


# ---------------------------------------------------------------------------
# iteration drivers


def stabilize(
    ws: Workspace,
    kind: RefinementKind,
    *,
    max_iterations: int | None = None,
    seed: int = 0,
    arith: str = "prime2",
    record_dims: bool = False,
    record_walk_multisets: bool = False,
) -> RefinementHistory:
    """Iterate one refinement kind until the partition stops changing.

    ``seed`` drives the sampler: every WL step, every k-walk step without
    walk-count records, and walk steps without dims above 40 vertices.
    """
    if record_walk_multisets and kind.name != "kwalk":
        raise ValueError("walk multiset recording needs an explicit k")
    if record_dims and kind.name != "walk":
        raise ValueError("dimension recording needs the walk kind")
    if max_iterations is None:
        max_iterations = ws.total_vertices ** 2 + 1
    partitions = [ws.partition()]
    dims = [] if record_dims else None
    walk_records = [] if record_walk_multisets else None
    for it in range(1, max_iterations + 1):
        # dims[i-1] is the induced-algebra dimension of the coloring
        # *entering* iteration i
        it_seed = _iter_seed(seed, it)
        if kind.name == "walk":
            dim = walk_step(ws, seed=it_seed, want_dim=record_dims,
                            arith=arith)
            if record_dims:
                dims.append(dim)
        elif kind.name == "wl":
            wl_step(ws, seed=it_seed)
        elif record_walk_multisets:
            walk_records.append(naive_k_walk_step(ws, kind.k))
        else:
            k_walk_step(ws, kind.k, seed=it_seed, arith=arith)
        part = ws.partition()
        partitions.append(part)
        if part == partitions[-2]:
            break
    return RefinementHistory(
        kind=kind,
        partitions=partitions,
        dims=dims,
        walk_records=walk_records,
        distinguished_at=_distinguished_at(partitions, ws.sizes),
    )


def _iter_seed(seed: int, iteration: int) -> int:
    return seed * 1_000_003 + iteration * 97


def _distinguished_at(partitions, sizes):
    if len(sizes) != 2:
        return None
    for i, p in enumerate(partitions):
        if p.color_multiset(0) != p.color_multiset(1):
            return i
    return None


def iterations_to_distinguish(
    g1,
    g2,
    kind: RefinementKind,
    *,
    max_iterations: int | None = None,
    seed: int = 0,
    arith: str = "prime2",
) -> int | None:
    """Iterations of joint refinement until the two graphs get different
    color multisets; 0 if they differ before refining, None if never."""
    if g1.n != g2.n:
        return 0
    ws = Workspace.from_graphs([g1, g2])
    hist = stabilize(ws, kind, max_iterations=max_iterations, seed=seed,
                     arith=arith)
    return hist.distinguished_at


__all__ = [
    "NAIVE_WALK_BUDGET",
    "ARITH_MODES",
    "RefinementKind",
    "Workspace",
    "WalkRecord",
    "RefinementHistory",
    "wl_step",
    "k_walk_step",
    "walk_step",
    "naive_k_walk_step",
    "check_arith",
    "stabilize",
    "iterations_to_distinguish",
]
