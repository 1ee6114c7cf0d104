"""Graphs, colorings of the complete pair universe, and pair partitions."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

# the three atomic colors; refinements mint class ids from 3 upward
LOOP = 0
EDGE = 1
NONEDGE = 2

# largest graph the loader accepts: its n x n int64 color table is 32 MiB
MAX_GRAPH_VERTICES = 2048


class BudgetExceeded(ValueError):
    """A computation refused up front because it would exceed its budget."""


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph on vertices 0..n-1."""

    n: int
    edges: frozenset

    def __post_init__(self):
        for e in self.edges:
            u, v = e
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {e} out of range for n={self.n}")
            if u == v:
                raise ValueError(f"self-loop {e} not allowed")
            if (v, u) in self.edges and u > v:
                raise ValueError(f"edge {e} duplicates {(v, u)}")
            if u > v:
                raise ValueError(f"edge {e} must be stored as (min, max)")

    @staticmethod
    def from_edges(n: int, edges) -> "SimpleGraph":
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop ({u},{v}) not allowed")
            key = (min(u, v), max(u, v))
            if key in norm:
                raise ValueError(f"duplicate edge {key}")
            norm.add(key)
        return SimpleGraph(n, frozenset(norm))

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=np.int64)
        for u, v in self.edges:
            a[u, v] = 1
            a[v, u] = 1
        return a

    def neighbors(self, u: int):
        return sorted(v for v in range(self.n) if self.has_edge(u, v))

    def relabel(self, perm) -> "SimpleGraph":
        """Apply a vertex permutation (perm[v] = new label of v)."""
        return SimpleGraph.from_edges(
            self.n, [(perm[u], perm[v]) for u, v in self.edges]
        )

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": sorted(map(list, self.edges))}


def load_graph_json(text_or_dict) -> SimpleGraph:
    """Parse the {"n": int, "edges": [[u,v], ...]} wire format.

    The vertex count and ids must be ints (bools are rejected), and the
    count at most ``MAX_GRAPH_VERTICES``; any malformed or oversized input
    raises ValueError.
    """
    obj = text_or_dict
    if isinstance(obj, (str, bytes)):
        try:
            obj = json.loads(obj)
        except RecursionError:
            raise ValueError("graph JSON is nested too deeply") from None
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ValueError("graph JSON must be an object with 'n' and 'edges'")
    n, edges = obj["n"], obj["edges"]
    if not _is_int(n) or n < 1:
        raise ValueError(f"invalid vertex count {n!r}")
    if n > MAX_GRAPH_VERTICES:
        raise ValueError(f"vertex count {n} exceeds the limit of "
                         f"{MAX_GRAPH_VERTICES}")
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(map(_is_int, e))
        for e in edges
    ):
        raise ValueError("'edges' must be a list of [u, v] pairs of ints")
    return SimpleGraph.from_edges(n, [tuple(e) for e in edges])


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass
class ColoredCompleteGraph:
    """Complete directed graph with an n x n table of color ids."""

    n: int
    color: np.ndarray

    def __post_init__(self):
        self.color = np.asarray(self.color, dtype=np.int64)
        if self.color.shape != (self.n, self.n):
            raise ValueError("color table shape mismatch")

    def copy(self) -> "ColoredCompleteGraph":
        return ColoredCompleteGraph(self.n, self.color.copy())


def initial_coloring(g: SimpleGraph) -> ColoredCompleteGraph:
    """Three-color table: loops, edges, and non-adjacent distinct pairs."""
    table = np.full((g.n, g.n), NONEDGE, dtype=np.int64)
    np.fill_diagonal(table, LOOP)
    for u, v in g.edges:
        table[u, v] = EDGE
        table[v, u] = EDGE
    return ColoredCompleteGraph(g.n, table)


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


class PartitionOrder(Enum):
    EQUAL = "equal"
    FINER = "finer"
    COARSER = "coarser"
    INCOMPARABLE = "incomparable"


class PairPartition:
    """Canonical partition of the pair universe of one or two graphs.

    The universe is the concatenation, graph by graph, of all ordered pairs
    (u, v) in row-major order.  Class ids are renumbered by first occurrence
    in that order, so two PairPartition objects over the same universe are
    equal iff their labels arrays match elementwise.
    """

    def __init__(self, sizes, labels):
        self.sizes = tuple(sizes)
        flat = np.asarray(labels, dtype=np.int64).ravel()
        if flat.shape[0] != sum(s * s for s in self.sizes):
            raise ValueError("label array does not match universe size")
        self.labels = _canonicalize(flat)
        self.num_classes = int(self.labels.max()) + 1 if flat.size else 0

    @staticmethod
    def from_colorings(graphs) -> "PairPartition":
        sizes = [g.n for g in graphs]
        flat = np.concatenate([g.color.ravel() for g in graphs])
        return PairPartition(sizes, flat)

    def block(self, tag: int) -> np.ndarray:
        """Class ids of graph ``tag`` as an n x n array."""
        start = sum(s * s for s in self.sizes[:tag])
        n = self.sizes[tag]
        return self.labels[start : start + n * n].reshape(n, n)

    def color_multiset(self, tag: int):
        """Sorted (class, count) pairs for one graph's block."""
        ids, counts = np.unique(self.block(tag), return_counts=True)
        return list(zip(ids.tolist(), counts.tolist()))

    def __eq__(self, other):
        return (
            isinstance(other, PairPartition)
            and self.sizes == other.sizes
            and np.array_equal(self.labels, other.labels)
        )

    def __hash__(self):
        return hash((self.sizes, self.labels.tobytes()))

    def __repr__(self):
        return f"PairPartition(sizes={self.sizes}, classes={self.num_classes})"


def _canonicalize(flat: np.ndarray) -> np.ndarray:
    """Renumber the labels of a 1-D integer array by first occurrence."""
    _, first_idx, inverse = np.unique(flat, return_index=True, return_inverse=True)
    return _by_first_occurrence(first_idx, inverse)


def _by_first_occurrence(first_idx: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """Group ids renumbered in the order of their first members."""
    order = np.argsort(np.argsort(first_idx))
    return order[inverse].astype(np.int64)


_GROUP_CHECK_ENTRIES = 2**15  # entries hashed, then compared, per chunk


def _row_multipliers(width: int) -> np.ndarray:
    """Fixed odd 64-bit multipliers, one per column, for row hashing."""
    rng = np.random.default_rng(0x5EED)
    return rng.integers(0, 2**64, size=width, dtype=np.uint64) | np.uint64(1)


def group_rows(a: np.ndarray) -> np.ndarray:
    """Exact first-occurrence labels for the rows of a 2-D int64 or uint64
    array.

    Rows get equal labels iff they are equal.  Each row is hashed to one
    uint64: every entry's high half is folded into its low half, so rows
    that differ only in high bits still hash apart, and a wrapping dot
    product with fixed odd multipliers follows.  The hashes are grouped by
    one 1-D sort, and every row is then compared with the first row of its
    group.  Hashing and check both take ``_GROUP_CHECK_ENTRIES`` entries at
    a time.  A hash collision fails the check, and the rows are then
    grouped by ``np.lexsort`` instead, so the labels are always exact.
    Any layout works, so the columns of ``b`` are grouped by
    ``group_rows(b.T)`` without a transposed copy.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.dtype not in (np.int64, np.uint64):
        raise ValueError("group_rows takes a 2-D int64 or uint64 array")
    rows, width = a.shape
    step = max(1, _GROUP_CHECK_ENTRIES // max(width, 1))
    mult = _row_multipliers(width)
    hashes = np.empty(rows, dtype=np.uint64)
    for s in range(0, rows, step):
        u = a[s : s + step].view(np.uint64)
        mixed = u >> np.uint64(32)
        mixed ^= u
        hashes[s : s + step] = mixed @ mult
    _, first_idx, inverse = np.unique(hashes, return_index=True,
                                      return_inverse=True)
    rep = first_idx[inverse]
    if not all(np.array_equal(a[s : s + step], a[rep[s : s + step]])
               for s in range(0, rows, step)):
        first_idx, inverse = _lexsort_groups(a)
    return _by_first_occurrence(first_idx, inverse)


def _lexsort_groups(a: np.ndarray):
    """Exact ``(first_idx, inverse)`` of the rows of a 2-D array, as
    ``np.unique`` returns them; the stable sort puts each group's first
    row at its start."""
    order = np.lexsort(a.T)
    ordered = a[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse


def compare_partitions(p: PairPartition, q: PairPartition) -> PartitionOrder:
    """Lattice comparison of two partitions of the same universe."""
    if p.sizes != q.sizes:
        raise ValueError(f"universe mismatch: {p.sizes} vs {q.sizes}")
    if np.array_equal(p.labels, q.labels):
        return PartitionOrder.EQUAL
    p_refines_q = _refines(p.labels, q.labels)
    q_refines_p = _refines(q.labels, p.labels)
    if p_refines_q:
        return PartitionOrder.FINER
    if q_refines_p:
        return PartitionOrder.COARSER
    return PartitionOrder.INCOMPARABLE


def _refines(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff each a-class is contained in a single b-class."""
    combined = a * (int(b.max()) + 1 if b.size else 1) + b
    return np.unique(combined).size == np.unique(a).size


__all__ = [
    "MAX_GRAPH_VERTICES",
    "BudgetExceeded",
    "SimpleGraph",
    "ColoredCompleteGraph",
    "PairPartition",
    "PartitionOrder",
    "InvariantReport",
    "initial_coloring",
    "compare_partitions",
    "check_invariants",
    "load_graph_json",
    "group_rows",
]
