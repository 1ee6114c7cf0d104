"""Gadget-replacement (CFI/Fürer style) instances over small base graphs.

Each base vertex of degree d becomes a gadget of the 2^(d-1) even-parity
bit tuples over its incident edges; a base edge joins gadget vertices whose
bits at that edge agree, or disagree if the edge carries the twist.  The
twisted and untwisted replacements are the canonical hard pair for
refinement lower bounds.

Twist movement works by flipping bit coordinates along an edge path: every
interior path edge is flipped at both endpoints (net zero) while the two
end edges are flipped once, so the resulting gadget-wise bijection behaves
like an isomorphism except at exactly those two base edges.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .graph_core import SimpleGraph


def _norm_edge(e):
    u, v = e
    return (min(u, v), max(u, v))


@dataclass(frozen=True)
class BaseGraph:
    """Connected simple graph with a fixed incident-edge order per vertex."""

    graph: SimpleGraph
    incident: tuple = field(init=False, repr=False)

    def __post_init__(self):
        inc = []
        for v in range(self.graph.n):
            # ascending neighbor id fixes "the i-th edge incident to v"
            inc.append(tuple(_norm_edge((v, w)) for w in self.graph.neighbors(v)))
        object.__setattr__(self, "incident", tuple(inc))
        if len(self.components()) > 1:
            raise ValueError("base graph must be connected")

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def edges(self):
        return sorted(self.graph.edges)

    def degree(self, v: int) -> int:
        return len(self.incident[v])

    def edge_position(self, v: int, e) -> int:
        """Index of base edge e in v's incident-edge order."""
        return self.incident[v].index(_norm_edge(e))

    def components(self, removed=()):
        """Sorted vertex lists of the connected components of the base
        graph minus ``removed``, ordered by smallest vertex."""
        seen = set(removed)
        out = []
        for root in range(self.n):
            if root in seen:
                continue
            seen.add(root)
            members, stack = [root], [root]
            while stack:
                u = stack.pop()
                for e in self.incident[u]:
                    w = e[0] if e[1] == u else e[1]
                    if w not in seen:
                        seen.add(w)
                        members.append(w)
                        stack.append(w)
            out.append(sorted(members))
        return out

    def edge_adjacency(self, e):
        """Base edges sharing an endpoint with e, with the shared vertex."""
        e = _norm_edge(e)
        out = []
        for v in e:
            for f in self.incident[v]:
                if f != e:
                    out.append((f, v))
        return out


def grid_base(n: int, allow_degenerate: bool = False) -> BaseGraph:
    """2 x n grid plus a pendant vertex attached to the (0, n-1) corner.

    Vertices are id(r, c) = r*n + c and the pendant is 2n.  Distances in
    this graph identify vertices only for n >= 3, hence the precondition;
    ``allow_degenerate`` unlocks n = 2 for internal sweeps.
    """
    minimum = 2 if allow_degenerate else 3
    if n < minimum:
        raise ValueError(f"grid base needs n >= {minimum}, got {n}")
    edges = []
    for c in range(n - 1):
        edges.append((c, c + 1))           # top horizontal
        edges.append((n + c, n + c + 1))   # bottom horizontal
    for c in range(n):
        edges.append((c, n + c))           # vertical
    edges.append((n - 1, 2 * n))           # pendant at corner (0, n-1)
    return BaseGraph(SimpleGraph.from_edges(2 * n + 1, edges))


def grid_vertex(n: int, r: int, c: int) -> int:
    return r * n + c


@dataclass
class CfiGraph:
    """Gadget replacement of a base graph, possibly with one twisted edge."""

    graph: SimpleGraph
    base: BaseGraph
    vertex_origin: tuple   # gadget vertex -> (base vertex, parity bit tuple)
    twist: tuple | None

    @property
    def n(self) -> int:
        return self.graph.n

    def gadget(self, base_vertex: int):
        """Gadget vertex ids of one base vertex, in construction order."""
        lo, hi = self._gadget_ranges[base_vertex]
        return range(lo, hi)

    def vertex_id(self, base_vertex: int, parity) -> int:
        return self._vertex_ids[(base_vertex, tuple(parity))]

    def __post_init__(self):
        ranges, ids = {}, {}
        for idx, (bv, parity) in enumerate(self.vertex_origin):
            lo, hi = ranges.get(bv, (idx, idx))
            ranges[bv] = (min(lo, idx), idx + 1)
            ids[(bv, parity)] = idx
        self._gadget_ranges = ranges
        self._vertex_ids = ids


def gadget_tuples(d: int):
    """Even-parity bit tuples of length d, in lexicographic order."""
    return [t for t in itertools.product((0, 1), repeat=d) if sum(t) % 2 == 0]


def default_twist(base: BaseGraph):
    return min(base.edges)


def build_cfi(base: BaseGraph, twist=None) -> CfiGraph:
    """Gadget replacement of ``base``; ``twist`` inverts one base edge."""
    if twist is not None:
        twist = _norm_edge(twist)
        if twist not in base.graph.edges:
            raise ValueError(f"twist {twist} is not a base edge")
    origin = []
    for v in range(base.n):
        for parity in gadget_tuples(base.degree(v)):
            origin.append((v, parity))
    index = {pair: i for i, pair in enumerate(origin)}
    edges = []
    for e in base.edges:
        u, v = e
        i, j = base.edge_position(u, e), base.edge_position(v, e)
        invert = e == twist
        for pa in gadget_tuples(base.degree(u)):
            for pb in gadget_tuples(base.degree(v)):
                if (pa[i] == pb[j]) != invert:
                    edges.append((index[(u, pa)], index[(v, pb)]))
    graph = SimpleGraph.from_edges(len(origin), edges)
    return CfiGraph(graph, base, tuple(origin), twist)


# ---------------------------------------------------------------------------
# twist movement


def edge_path(base: BaseGraph, e_from, e_to, forbidden=frozenset()):
    """Deterministic shortest edge path from e_from to e_to.

    Consecutive path edges must share a vertex outside ``forbidden``.
    Raises if no such path exists.
    """
    e_from, e_to = _norm_edge(e_from), _norm_edge(e_to)
    for e in (e_from, e_to):
        if e not in base.graph.edges:
            raise ValueError(f"{e} is not a base edge")
    if e_from == e_to:
        return [e_from]
    parent = {e_from: None}
    queue = deque([e_from])
    while queue:
        e = queue.popleft()
        # sorted expansion makes tie-breaking deterministic
        for f, shared in sorted(base.edge_adjacency(e)):
            if shared in forbidden or f in parent:
                continue
            parent[f] = e
            if f == e_to:
                path = [f]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                return path[::-1]
            queue.append(f)
    raise ValueError(f"no pebble-free edge path from {e_from} to {e_to}")


def move_twist_automorphism(
    cfi: CfiGraph, e_from, e_to, forbidden=frozenset()
) -> np.ndarray:
    """Gadget-vertex bijection that moves a twist from e_from to e_to.

    Follows ``edge_path`` through vertices outside ``forbidden``: at each
    vertex shared by consecutive path edges it flips the bits of those two
    edges, which keeps parity, so gadget vertices map to gadget vertices.
    Returned as a permutation array over the (twist-independent) CFI vertex
    set.  Viewed as a map from the twist-at-e_from replacement to the
    untwisted one, it preserves adjacency except on pairs originating from
    e_to; equivalently it certifies that twisting e_from and twisting e_to
    give isomorphic graphs.
    """
    base = cfi.base
    path = edge_path(base, e_from, e_to, forbidden)
    masks = {}
    for e, f in zip(path, path[1:]):
        shared = (set(e) & set(f)).pop()
        mask = masks.setdefault(shared, [0] * base.degree(shared))
        for g in (e, f):
            mask[base.edge_position(shared, g)] ^= 1
    perm = np.arange(cfi.n, dtype=np.int64)
    for x, (bv, parity) in enumerate(cfi.vertex_origin):
        if bv in masks:
            flipped = tuple(b ^ m for b, m in zip(parity, masks[bv]))
            perm[x] = cfi.vertex_id(bv, flipped)
    return perm


__all__ = [
    "BaseGraph",
    "CfiGraph",
    "grid_base",
    "grid_vertex",
    "gadget_tuples",
    "default_twist",
    "build_cfi",
    "edge_path",
    "move_twist_automorphism",
]
