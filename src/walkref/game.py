"""Duplicator strategy machinery for the bijective walk pebble game.

Walls, components and twisted components are computed on the base graph
with respect to pebbled base vertices (pebble-respecting automorphisms fix
whole gadgets, so pebbles are tracked by origin).  The central object is
the tuple bijection f^v_{e1,e2}: entries of a Spoiler walk that do not
originate from the chosen degree-3 vertex v map through a pebble-respecting
map phi that relocates the twist defect onto e1; entries originating from v
get an extra gadget-local correction psi that shifts the defect to an edge
chosen per walk run, so that no two consecutive pebble pairs ever straddle
the defect.

``map_tuple`` applies the bijection to one tuple, as the construction
defines it; ``map_tuples`` applies it to a whole array of tuples through
three small tables.  The exhaustive verifiers walk the tuple space in
chunks of ``CHUNK_ENTRIES`` entries through ``map_tuples``, so their
memory is one byte per image tuple (the injectivity marks) plus one chunk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cfi import BaseGraph, CfiGraph, _norm_edge, move_twist_automorphism
from .graph_core import BudgetExceeded

TUPLE_BUDGET = 10**7
# entries (walk rows x (k + 1)) per chunk of the exhaustive verifiers; a
# chunk's temporaries then stay within a few MiB
CHUNK_ENTRIES = 2**15


class NoScenarioError(ValueError):
    """The requested strategy scenario does not exist on this base graph."""


@dataclass(frozen=True)
class PebblePlacement:
    """The two surviving consecutive pebble pairs, by base-vertex origin."""

    u1: int
    u2: int
    k: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("the walk game needs k >= 2")

    @property
    def vertices(self):
        return frozenset((self.u1, self.u2))


@dataclass(frozen=True)
class Component:
    edges: frozenset
    contained: frozenset  # base vertices with all incident edges inside
    twisted: bool

    @property
    def size(self) -> int:
        return len(self.contained)

    @property
    def nontrivial(self) -> bool:
        return self.size > 0


@dataclass
class ComponentStructure:
    components: list
    pebbled: frozenset
    twist: tuple

    @property
    def twisted_component(self) -> Component:
        return next(c for c in self.components if c.twisted)


def twisted_components(base: BaseGraph, pebbled, twist) -> ComponentStructure:
    """Components of the base graph w.r.t. pebbled vertices.

    Two base edges share a component iff they are linked by a walk whose
    interior vertices are unpebbled; the component reachable that way from
    the twist is exactly the set of edges Duplicator can move the twist to.
    """
    twist = _norm_edge(twist)
    if twist not in base.graph.edges:
        raise ValueError(f"twist {twist} is not a base edge")
    pebbled = frozenset(pebbled)
    # every edge touching a component of unpebbled vertices, and each
    # edge between two pebbled vertices on its own
    groups = [{e for v in comp for e in base.incident[v]}
              for comp in base.components(pebbled)]
    groups += [{e} for e in base.edges if pebbled.issuperset(e)]
    components = []
    for edges in groups:
        contained = frozenset(
            v
            for v in range(base.n)
            if base.degree(v) > 0 and set(base.incident[v]) <= edges
        )
        components.append(
            Component(frozenset(edges), contained, twist in edges)
        )
    components.sort(key=lambda c: min(c.edges))
    return ComponentStructure(components, pebbled, twist)


def is_wall(base: BaseGraph, pebbled) -> bool:
    """True iff the pebbled origins are a separator of the base graph."""
    return len(base.components(pebbled)) > 1


# ---------------------------------------------------------------------------
# the tuple bijection


@dataclass
class DuplicatorBijection:
    """Pointwise realization of f^v_{e1,e2} on (k-1)-tuples."""

    g_plain: CfiGraph
    g_twisted: CfiGraph
    pebbles: PebblePlacement
    v: int
    e1: tuple
    e2: tuple
    phi: np.ndarray = field(repr=False)          # plain -> twisted, defect {e1}
    psi_by_edge: dict = field(repr=False)        # chosen e -> permutation

    def chosen_edge(self, left_origin: int, right_origin: int) -> tuple:
        """Edge the defect is parked on for a run of origin-v entries
        bounded by the given neighbor origins (case 2 of the construction)."""
        base = self.g_plain.base
        used = []
        for x in (left_origin, right_origin):
            pair = _norm_edge((x, self.v))
            if x != self.v and pair in base.graph.edges:
                used.append(pair)
        if len(used) == 2 and used[0] != used[1]:
            # 2(a): passed through v on two distinct edges; park on the third
            return next(
                e for e in base.incident[self.v] if e not in used
            )
        # 2(b): at most one incident edge used; park on the smallest free
        # one of {e1, e2} in the incident-edge order at v
        free = [e for e in (self.e1, self.e2) if e not in used]
        order = base.incident[self.v]
        return min(free, key=order.index)

    def map_tuple(self, walk):
        return self.map_tuple_with_edges(walk)[0]

    def map_tuple_with_edges(self, walk):
        """Image tuple plus, per position, the edge holding the defect for
        the consecutive pair starting there (positions 0..k-1, anchored)."""
        origin = self.g_plain.vertex_origin
        k = self.pebbles.k
        if len(walk) != k - 1:
            raise ValueError(f"expected a {k - 1}-tuple")
        origins = (
            [self.pebbles.u1] + [origin[x][0] for x in walk] + [self.pebbles.u2]
        )
        image = []
        run_edge = {}  # position (1-based) -> chosen edge for origin-v runs
        i = 1
        while i <= k - 1:
            if origins[i] != self.v:
                image.append(int(self.phi[walk[i - 1]]))
                i += 1
                continue
            j = i
            while j <= k - 1 and origins[j] == self.v:
                j += 1
            e = self.chosen_edge(origins[i - 1], origins[j])
            psi = self.psi_by_edge[e]
            for pos in range(i, j):
                run_edge[pos] = e
                image.append(int(psi[self.phi[walk[pos - 1]]]))
            i = j
        pair_edges = []
        for pos in range(k):  # pair (pos, pos+1)
            if pos in run_edge:
                pair_edges.append(run_edge[pos])
            elif pos + 1 in run_edge:
                pair_edges.append(run_edge[pos + 1])
            else:
                pair_edges.append(self.e1)
        return tuple(image), pair_edges

    @cached_property
    def _tables(self):
        """Base-vertex origin per gadget vertex; per origin pair, the index
        of ``chosen_edge`` in v's incident-edge order; psi stacked in that
        order; and the index of e1 in it."""
        base = self.g_plain.base
        order = base.incident[self.v]
        origin = np.array([o for o, _ in self.g_plain.vertex_origin],
                          dtype=np.int64)
        choose = np.array(
            [[order.index(self.chosen_edge(a, b)) for b in range(base.n)]
             for a in range(base.n)],
            dtype=np.int64,
        )
        psi = np.stack([self.psi_by_edge[e] for e in order])
        return origin, choose, psi, order.index(self.e1)

    def map_tuples(self, walks):
        """``map_tuple_with_edges`` on every row of an (r, k-1) array.

        Returns the (r, k-1) images and the (r, k) defect edges of the
        consecutive pairs, as indices into ``base.incident[v]``.
        """
        origin, choose, psi, e1 = self._tables
        k = self.pebbles.k
        walks = np.asarray(walks, dtype=np.int64)
        if walks.ndim != 2 or walks.shape[1] != k - 1:
            raise ValueError(f"expected rows of {k - 1}-tuples")
        org = np.empty((len(walks), k + 1), dtype=np.int64)
        org[:, 0], org[:, k] = self.pebbles.u1, self.pebbles.u2
        org[:, 1:k] = origin[walks]
        at_v = org == self.v
        at_v[:, [0, k]] = False  # the anchors always bound a run
        # origins of the run boundaries left and right of each position
        left, right = org.copy(), org.copy()
        for p in range(1, k):
            left[:, p] = np.where(at_v[:, p - 1], left[:, p - 1], org[:, p - 1])
        for p in range(k - 1, 0, -1):
            right[:, p] = np.where(at_v[:, p + 1], right[:, p + 1],
                                   org[:, p + 1])
        run_edge = np.where(at_v, choose[left, right], -1)
        image = self.phi[walks]
        inner = run_edge[:, 1:k]
        image = np.where(inner >= 0, psi[inner, image], image)
        # pair (p, p+1) takes the run edge of p, else that of p+1, else e1
        pair_edges = np.where(
            run_edge[:, :k] >= 0, run_edge[:, :k],
            np.where(run_edge[:, 1:] >= 0, run_edge[:, 1:], e1),
        )
        return image, pair_edges


def duplicator_bijection(
    g_plain: CfiGraph,
    g_twisted: CfiGraph,
    pebbles: PebblePlacement,
    v: int,
    e1,
    e2,
) -> DuplicatorBijection:
    """Build f^v_{e1,e2} for the given pebble placement.

    Requires v to be a degree-3 base vertex contained in the twisted
    component, with e1 != e2 incident to v, and a pebble-respecting map
    parking the defect on e1 (guaranteed by the former, found by routing
    the twist around the pebbled gadgets).
    """
    base = g_plain.base
    if g_twisted.twist is None:
        raise ValueError("the second graph must carry a twist")
    e1, e2 = _norm_edge(e1), _norm_edge(e2)
    if base.degree(v) != 3:
        raise ValueError(f"base vertex {v} must have degree 3")
    if e1 == e2 or v not in e1 or v not in e2:
        raise ValueError("e1, e2 must be distinct edges incident to v")
    comps = twisted_components(base, pebbles.vertices, g_twisted.twist)
    if v not in comps.twisted_component.contained:
        raise ValueError(f"vertex {v} is not in the twisted component")
    phi = move_twist_automorphism(g_plain, g_twisted.twist, e1,
                                  forbidden=pebbles.vertices)
    # moving the defect from e1 to e at v flips the bits of e1 and e there
    psi_by_edge = {e: move_twist_automorphism(g_plain, e1, e)
                   for e in base.incident[v]}
    return DuplicatorBijection(
        g_plain, g_twisted, pebbles, v, e1, e2, phi, psi_by_edge
    )


# ---------------------------------------------------------------------------
# exhaustive verification


def _anchor_pairs(bij: DuplicatorBijection):
    """All (plain anchor, twisted anchor) gadget-vertex choices for u1/u2."""
    g, phi = bij.g_plain, bij.phi
    firsts = [(x, int(phi[x])) for x in g.gadget(bij.pebbles.u1)]
    lasts = [(x, int(phi[x])) for x in g.gadget(bij.pebbles.u2)]
    return firsts, lasts


def _product_chunks(n: int, m: int):
    """The rows of ``itertools.product(range(n), repeat=m)``, in order, as
    (r, m) arrays of about ``CHUNK_ENTRIES`` entries with the two anchors."""
    rows = max(1, CHUNK_ENTRIES // (m + 2))
    total = n**m
    for start in range(0, total, rows):
        flat = np.arange(start, min(start + rows, total))
        yield np.stack(np.unravel_index(flat, (n,) * m), axis=1)


def verify_round_safe(
    bij: DuplicatorBijection,
    g_plain: CfiGraph,
    g_twisted: CfiGraph,
    pebbles: PebblePlacement,
    budget: int = TUPLE_BUDGET,
    return_counterexample: bool = False,
) -> bool:
    """Exhaustively check that Spoiler cannot win this round.

    Enumerates every (k-1)-tuple and every anchor gadget-vertex choice and
    checks that each consecutive pebble pair (anchors included) covers
    isomorphic two-vertex subgraphs: equality and adjacency both agree.
    Also confirms injectivity of the tuple map along the way.  With
    ``return_counterexample`` returns (ok, failing tuple or None) instead
    of the bare verdict; the failing tuple is the first in product order.

    The tuples go through ``map_tuples`` in chunks of ``CHUNK_ENTRIES``
    entries; injectivity is tracked by one byte per image tuple, so the
    memory is n^(k-1) bytes plus one chunk.
    """
    n, k = g_plain.n, pebbles.k
    firsts, lasts = _anchor_pairs(bij)
    cost = n ** (k - 1)
    if cost > budget:
        raise BudgetExceeded(f"{cost} tuples exceed the budget of {budget}")
    a_plain = g_plain.graph.adjacency()
    a_tw = g_twisted.graph.adjacency()
    (x0, y0), (xk, yk) = np.array(firsts).T, np.array(lasts).T
    place = n ** np.arange(k - 2, -1, -1)  # image tuple -> product index
    seen = np.zeros(cost, dtype=bool)

    def pair_ok(x, y, ix, iy):
        return ((x == y) == (ix == iy)) & (a_plain[x, y] == a_tw[ix, iy])

    def verdict(ok, walk=None):
        return (ok, walk) if return_counterexample else ok

    for walks in _product_chunks(n, k - 1):
        image, _ = bij.map_tuples(walks)
        code = image @ place
        bad = seen[code]
        repeat = np.ones(len(code), dtype=bool)
        repeat[np.unique(code, return_index=True)[1]] = False
        bad |= repeat
        # interior consecutive pairs
        bad |= ~pair_ok(walks[:, :-1], walks[:, 1:],
                        image[:, :-1], image[:, 1:]).all(axis=1)
        # anchor pairs: must hold for every gadget-vertex pebble choice,
        # and the first/last choices are independent of each other
        bad |= ~pair_ok(x0, walks[:, :1], y0, image[:, :1]).all(axis=1)
        bad |= ~pair_ok(walks[:, -1:], xk, image[:, -1:], yk).all(axis=1)
        if bad.any():
            return verdict(False, tuple(walks[np.argmax(bad)].tolist()))
        seen[code] = True
    return verdict(True)


def verify_component_bound(
    bij: DuplicatorBijection, ell: int
) -> bool:
    """Check the post-round twisted-component size bound min{l, 2n-l-2}.

    For every walk (enumerated at origin level, which determines the defect
    edges) and every consecutive pebble pair Spoiler may keep, recompute
    the twisted component for the surviving pebbles and defect location.
    """
    base = bij.g_plain.base
    grid_n = (base.n - 1) // 2
    bound = min(ell, 2 * grid_n - ell - 2)
    k = bij.pebbles.k
    order = base.incident[bij.v]
    # one representative gadget vertex per origin reproduces the runs
    rep = np.array([bij.g_plain.gadget(o)[0] for o in range(base.n)])
    cache = {}
    for origins in _product_chunks(base.n, k - 1):
        _, pair_edges = bij.map_tuples(rep[origins])
        full = np.empty((len(origins), k + 1), dtype=np.int64)
        full[:, 0], full[:, k] = bij.pebbles.u1, bij.pebbles.u2
        full[:, 1:k] = origins
        keys = (full[:, :k] * base.n + full[:, 1:]) * len(order) + pair_edges
        for key in np.unique(keys).tolist():
            if key not in cache:
                pair, e = divmod(key, len(order))
                comps = twisted_components(base, divmod(pair, base.n),
                                           order[e])
                cache[key] = comps.twisted_component.size
            if cache[key] < bound:
                return False
    return True


# ---------------------------------------------------------------------------
# strategy scenarios


@dataclass(frozen=True)
class Scenario:
    """One strategy situation: pebbles plus Duplicator's (v, e1, e2)."""

    pebbles: PebblePlacement
    v: int
    e1: tuple
    e2: tuple
    ell: int  # smaller-side vertex count of the e2 separator


def _separator_side_sizes(base: BaseGraph, sep, w: int):
    """Vertex counts (|G1|, |G2|) of base minus the separator pair, with
    w on the G1 side."""
    sep = set(sep)
    g1 = len(next(c for c in base.components(sep) if w in c))
    return g1, base.n - len(sep) - g1


def strategy_scenario(base: BaseGraph, twist, u1: int, u2: int, k: int) -> Scenario:
    """Duplicator's choice of (v, e1, e2) for a wall at pebbles {u1, u2}."""
    twist = _norm_edge(twist)
    comps = twisted_components(base, {u1, u2}, twist)
    contained = comps.twisted_component.contained
    if base.graph.has_edge(u1, u2):
        v = _neighbor_in(base, u1, contained, degree=3)
        vp = _neighbor_in(base, v, set(_neighbors(base, u2)) - {u1})
        e1, e2 = _norm_edge((u1, v)), _norm_edge((v, vp))
    else:
        v = _neighbor_in(base, u1, contained & set(_neighbors(base, u2)),
                         degree=3)
        if not is_wall(base, (u2, v)):
            u1, u2 = u2, u1
        if not is_wall(base, (u2, v)):
            raise NoScenarioError("no orientation makes {u2, v} a separator")
        e1, e2 = _norm_edge((u1, v)), _norm_edge((u2, v))
    w = next(x for x in e1 if x != v)
    _, ell = _separator_side_sizes(base, set(e2), w)
    return Scenario(PebblePlacement(u1, u2, k), v, e1, e2, ell)


def wall_adjacent_scenario(base: BaseGraph, twist, column: int, k: int) -> Scenario:
    """Pebbles on a vertical grid pair forming a wall next to the twist."""
    grid_n = (base.n - 1) // 2
    u1, u2 = column, grid_n + column
    return strategy_scenario(base, twist, u1, u2, k)


def wall_nonadjacent_scenario(base: BaseGraph, twist, column: int, k: int) -> Scenario:
    """Pebbles on a diagonal pair whose common neighbor closes the wall."""
    grid_n = (base.n - 1) // 2
    u1, u2 = grid_n + column + 1, column  # (1, c+1) and (0, c)
    return strategy_scenario(base, twist, u1, u2, k)


def opening_scenario(base: BaseGraph, twist, k: int) -> Scenario:
    """Start-of-game choice: pretend pebbles sit on a middle separator edge
    whose sides both keep at least n-2 vertices.

    Takes the first column, outward from the middle one (c, c+1, c-1,
    c+2, ...), whose wall-adjacent scenario exists; on grid 3 the middle
    column has none.
    """
    grid_n = (base.n - 1) // 2
    middle = grid_n // 2
    for column in sorted(range(grid_n),
                         key=lambda c: (abs(c - middle), c < middle)):
        try:
            return wall_adjacent_scenario(base, twist, column, k)
        except NoScenarioError:
            continue
    raise NoScenarioError(
        f"no column of grid {grid_n} has a wall-adjacent scenario")


def _neighbors(base: BaseGraph, u: int):
    return [e[0] if e[1] == u else e[1] for e in base.incident[u]]


def _neighbor_in(base: BaseGraph, u: int, allowed, degree=None) -> int:
    for x in sorted(_neighbors(base, u)):
        if x in allowed and (degree is None or base.degree(x) == degree):
            return x
    raise NoScenarioError(f"no suitable neighbor of {u}")


__all__ = [
    "TUPLE_BUDGET",
    "NoScenarioError",
    "PebblePlacement",
    "Component",
    "ComponentStructure",
    "DuplicatorBijection",
    "Scenario",
    "twisted_components",
    "is_wall",
    "duplicator_bijection",
    "verify_round_safe",
    "verify_component_bound",
    "strategy_scenario",
    "wall_adjacent_scenario",
    "wall_nonadjacent_scenario",
    "opening_scenario",
]
