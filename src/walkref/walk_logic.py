"""Walk counting logic: formula DAGs, evaluation, and synthesis.

The logic has two free endpoint variables per formula and a single walk
quantifier that binds the whole interior of a k-walk at once: the node
``WalkQuant(j, parts)`` holds on a pair (u, v) iff at least ``j`` distinct
interior tuples (w2, ..., wk) satisfy every part i on the consecutive pair
(w_i, w_{i+1}), with w1 = u and w_{k+1} = v.  Interior values may repeat;
only the variable symbols are distinct.

Formulas are hash-consed, so equal subtrees are physically shared and all
sizes below are DAG sizes.  Evaluation works on whole boolean pair
matrices: a walk quantifier is two or more integer matrix products
followed by a threshold.  Each graph has one ``Evaluator``, shared by
every evaluation on it: its memo keeps conjunctions (class formulas among
them), weakly keyed on the interned nodes, and within one evaluation the
quantifiers over one parts tuple share one count product.  The work
limits ``MAX_TUPLES_PER_QUANTIFIER`` and ``MAX_NODE_EVALS`` are checked on
the whole DAG before the memo is read, and every returned matrix is
read-only.

Synthesis turns the walk-count records of an iterated k-walk refinement
into color-identifying formulas (quantifier depth m identifies a class of
iteration m) and, for two non-equivalent graphs with k >= 3, into a closed
distinguishing sentence of depth m + 1.
"""

from __future__ import annotations

import re
import weakref

import numpy as np

from .graph_core import EDGE, LOOP, NONEDGE, BudgetExceeded, SimpleGraph
from .refinement import RefinementHistory, Workspace, naive_k_walk_step

MAX_TUPLES_PER_QUANTIFIER = 10**7
MAX_NODE_EVALS = 10**6


class WalkFormula:
    """A hash-consed formula node; build via the factory functions below.

    ``op`` is one of "eq", "adj", "not", "and", "walk"; ``j`` is the count
    threshold of a walk quantifier (0 otherwise); ``parts`` holds the
    children.  Nodes are interned, so structural equality is identity.
    ``_depth`` and ``_width`` (the most parts of any walk quantifier in
    the DAG, 0 if none) are kept per node.
    """

    __slots__ = ("op", "j", "parts", "_depth", "_width", "_size",
                 "__weakref__")

    def __init__(self, op, j, parts):
        self.op = op
        self.j = j
        self.parts = parts
        self._depth = (1 if op == "walk" else 0) + max(
            (p._depth for p in parts), default=0
        )
        self._width = max([len(parts) if op == "walk" else 0]
                          + [p._width for p in parts])
        self._size = None

    @property
    def quantifier_depth(self) -> int:
        return self._depth

    @property
    def dag_size(self) -> int:
        """Distinct nodes reachable from this one, counted on first read."""
        if self._size is None:
            seen, stack = {self}, [self]
            while stack:
                for p in stack.pop().parts:
                    if p not in seen:
                        seen.add(p)
                        stack.append(p)
            self._size = len(seen)
        return self._size

    def __repr__(self):
        return f"<WalkFormula {self.op} depth={self._depth} size={self.dag_size}>"


# Weak values free formulas nobody holds; a live node keeps its parts
# alive, so the part ids in its key cannot be reused while it is listed.
_INTERN = weakref.WeakValueDictionary()


def _mk(op, j, parts) -> WalkFormula:
    key = (op, j, tuple(map(id, parts)))
    node = _INTERN.get(key)
    if node is None:
        node = WalkFormula(op, j, tuple(parts))
        _INTERN[key] = node
    return node


EQ = _mk("eq", 0, ())
ADJ = _mk("adj", 0, ())


def not_(f: WalkFormula) -> WalkFormula:
    return _mk("not", 0, (f,))


def and_(parts) -> WalkFormula:
    parts = tuple(parts)
    if not parts:
        raise ValueError("empty conjunction")
    if len(parts) == 1:
        return parts[0]
    return _mk("and", 0, parts)


def walk_quant(j: int, parts) -> WalkFormula:
    parts = tuple(parts)
    if j < 1:
        raise ValueError("walk quantifier needs a count j >= 1")
    if len(parts) < 2:
        raise ValueError("walk quantifier needs k >= 2 parts")
    return _mk("walk", j, parts)


# A tautology on both endpoints: padding part for closed sentences, in the
# spirit of the "z2 = z2" trick (the quantified tuple is unconstrained at
# the padded positions, so the anchor endpoints are ignored).
TOP = not_(and_((EQ, not_(EQ))))


# ---------------------------------------------------------------------------
# evaluation


def _check_budget(f: WalkFormula, n: int) -> None:
    """Raise BudgetExceeded if evaluating ``f`` on n vertices would exceed
    a work limit.

    Both limits are checked up front, on the whole formula DAG, before
    anything is evaluated or read from an evaluator's memo, so a memoized
    result is refused where its evaluation would be: the DAG may have at
    most ``MAX_NODE_EVALS`` nodes (a memoized evaluation touches each
    once), and its widest walk quantifier, with k parts, may range over
    at most ``MAX_TUPLES_PER_QUANTIFIER`` interior tuples, n^(k-1).
    """
    if f._width:
        tuples = n ** (f._width - 1)
        if tuples > MAX_TUPLES_PER_QUANTIFIER:
            raise BudgetExceeded(
                f"evaluation budget exceeded: quantifier ranges over "
                f"{tuples} interior tuples > {MAX_TUPLES_PER_QUANTIFIER}"
            )
    # every live node is interned, so no DAG outgrows the table and the
    # DAG is counted only when the table is larger than the limit
    if len(_INTERN) > MAX_NODE_EVALS and f.dag_size > MAX_NODE_EVALS:
        raise BudgetExceeded(
            f"evaluation budget exceeded: {f.dag_size} formula nodes > "
            f"{MAX_NODE_EVALS} node evaluations"
        )


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class Evaluator:
    """Evaluation on one graph, shared by every ``eval_matrix`` call on it.

    Holds the vertex count and a read-only adjacency matrix, not the
    graph.  Its memo keeps the truth matrix of every conjunction it
    evaluates, weakly keyed on the interned node, so a dropped formula
    leaves the memo with it.  A class formula is a conjunction, and the
    class formulas of later iterations and a distinguishing sentence are
    built from it.  Walk quantifiers and negations are evaluated once per
    call from their parts, and ``walk(j, P)`` and ``not walk(j + 1, P)``
    share one int64 count product per parts tuple P within a call.
    Keeping those across calls too would hold one matrix per node of
    every live formula.  Every returned matrix is read-only.
    """

    def __init__(self, g: SimpleGraph):
        self.n = g.n
        self.adj = _read_only(g.adjacency().astype(bool))
        self.memo = weakref.WeakKeyDictionary()

    def matrix(self, f: WalkFormula) -> np.ndarray:
        return self._value(f, {}, {})

    def _value(self, f, local, counts):
        """``local`` and ``counts`` hold this call's other nodes and its
        count products."""
        memo = self.memo if f.op == "and" else local
        out = memo.get(f)
        if out is not None:
            return out
        if f.op == "eq":
            out = np.eye(self.n, dtype=bool)
        elif f.op == "adj":
            out = self.adj
        elif f.op == "not":
            out = ~self._value(f.parts[0], local, counts)
        elif f.op == "and":
            out = self._value(f.parts[0], local, counts).copy()
            for p in f.parts[1:]:
                out &= self._value(p, local, counts)
        else:  # walk quantifier
            walks = counts.get(f.parts)
            if walks is None:
                # walk counts between endpoints: the product of the parts'
                # boolean matrices; counts stay below n^(k-1), which the
                # tuple limit bounds, so int64 arithmetic is exact
                mats = [self._value(p, local, counts) for p in f.parts]
                walks = mats[0].astype(np.int64)
                for m in mats[1:]:
                    walks = walks @ m.astype(np.int64)
                counts[f.parts] = walks
            out = walks >= f.j
        memo[f] = _read_only(out)
        return out


# graph -> its Evaluator; an equal graph finds it too, for as long as the
# graph it was made for lives
_EVALUATORS = weakref.WeakKeyDictionary()


def eval_matrix(f: WalkFormula, g: SimpleGraph) -> np.ndarray:
    """Read-only boolean n x n matrix of the formula's truth value on
    every pair, from the graph's shared evaluator."""
    _check_budget(f, g.n)
    ev = _EVALUATORS.get(g)
    if ev is None:
        ev = _EVALUATORS[g] = Evaluator(g)
    return ev.matrix(f)


def eval_formula(f: WalkFormula, g: SimpleGraph, u: int, v: int) -> bool:
    """Truth value of the formula on the pair (u, v)."""
    return bool(eval_matrix(f, g)[u, v])


def eval_sentence(f: WalkFormula, g: SimpleGraph) -> bool:
    """Truth value of a closed sentence (anchor-independent formula)."""
    if g.n == 0:
        raise ValueError("sentence evaluation needs a nonempty graph")
    return eval_formula(f, g, 0, 0)


# ---------------------------------------------------------------------------
# synthesis from refinement records


def class_formulas(history) -> dict:
    """Identifying formulas for every class id seen along a k-walk run.

    Accepts a RefinementHistory with walk-count records, or the record
    list itself.  Keys are interned class ids: the three initial classes
    plus every class minted by the recorded iterations.  The formula of a
    class minted at iteration m has quantifier depth exactly m and holds
    on a pair (u, v) of an n-vertex graph iff the pair has that class
    after m iterations (the formula depends only on n and the class's
    walk-count multiset).
    """
    records = history.walk_records if isinstance(history, RefinementHistory) \
        else history
    if records is None:
        raise ValueError("history lacks walk-count records; rerun the "
                         "refinement with multiset recording enabled")
    formulas = {
        LOOP: EQ,
        EDGE: ADJ,
        # a non-edge is a non-loop, non-adjacent pair (plain non-adjacency
        # would wrongly hold on loops)
        NONEDGE: and_((not_(EQ), not_(ADJ))),
    }
    for rec in records:
        base = min(int(t.min()) for t in rec.new_tables)
        for label in sorted(rec.class_multisets):
            counts = rec.class_multisets[label]
            conj = []
            for seq, j in sorted(counts.items()):
                parts = [formulas[c] for c in seq]
                # the grammar only offers ">= j" thresholds; the class's
                # multiset needs exact counts, encoded as (>= j) and not
                # (>= j + 1)
                conj.append(walk_quant(j, parts))
                conj.append(not_(walk_quant(j + 1, parts)))
            formulas[base + label] = and_(conj)
    return formulas


def _color_counts(tables) -> list:
    """Per-graph {class id: count} over all ordered pairs."""
    out = []
    for t in tables:
        ids, counts = np.unique(t, return_counts=True)
        out.append(dict(zip(ids.tolist(), counts.tolist())))
    return out


def synth_distinguishing_sentence(
    g1: SimpleGraph,
    g2: SimpleGraph,
    k: int = 3,
    *,
    return_details: bool = False,
):
    """Closed sentence separating two graphs under k-walk refinement.

    Runs joint k-walk refinement; if the graphs' class-count multisets
    first differ at iteration m, some class occurs n1 > n2 times across
    the two graphs.  Its identifying formula (depth m) is wrapped in one
    outer walk quantifier asserting at least n1 satisfying pairs: with
    k >= 3 the quantifier binds at least two variables, so padding the
    remaining k - 2 parts with a tautology turns the pair count into a
    tuple count of n1 * n^(k-3).  The sentence has depth m + 1, is true
    on the graph with the larger count, and false on the other.
    """
    if k < 3:
        raise ValueError("distinguishing sentences need k >= 3 (the k = 2 "
                         "construction is unsupported)")
    if g1.n != g2.n:
        raise ValueError("graphs must have the same number of vertices")
    ws = Workspace.from_graphs([g1, g2])
    # iterate only until the class-count multisets first differ: later
    # iterations cannot contribute to the sentence.  Each pass splits a
    # class or stops, so there are at most n_1^2 + n_2^2 of them.
    records = []
    part = ws.partition()
    while part.color_multiset(0) == part.color_multiset(1):
        records.append(naive_k_walk_step(ws, k))
        prev, part = part, ws.partition()
        if part == prev:  # stable and still equivalent
            raise ValueError(
                f"{k}-walk refinement does not distinguish the graphs")
    formulas = class_formulas(records)
    counts1, counts2 = _color_counts(c.color for c in ws.colorings)
    best = None
    for cls in sorted(counts1):
        n1, n2 = counts1[cls], counts2.get(cls, 0)
        if n1 > n2 and (best is None or n1 - n2 > best[1] - best[2]):
            best = (cls, n1, n2)
    assert best is not None, "differing multisets must over-represent a class"
    cls, n1, _ = best
    n = g1.n
    sentence = walk_quant(
        n1 * n ** (k - 3), [TOP, formulas[cls]] + [TOP] * (k - 2)
    )
    if return_details:
        return sentence, {"class": cls, "count_true": n1,
                          "iteration": len(records),
                          "depth": sentence.quantifier_depth}
    return sentence


# ---------------------------------------------------------------------------
# serialization: S-expressions with #n= / #n# DAG labels


def to_sexpr(f: WalkFormula) -> str:
    """Serialize a formula DAG; shared compound nodes get #n= / #n# labels
    in first-emission order, so equal DAGs serialize identically."""
    refs = {}

    def count(node):
        refs[id(node)] = refs.get(id(node), 0) + 1
        if refs[id(node)] == 1:
            for p in node.parts:
                count(p)

    count(f)
    labels = {}

    def emit(node):
        if id(node) in labels:
            return f"#{labels[id(node)]}#"
        if node.op == "eq":
            return "eq"
        if node.op == "adj":
            return "adj"
        prefix = ""
        if refs[id(node)] > 1:
            labels[id(node)] = len(labels)
            prefix = f"#{labels[id(node)]}="
        if node.op == "not":
            body = f"(not {emit(node.parts[0])})"
        elif node.op == "and":
            body = "(and " + " ".join(emit(p) for p in node.parts) + ")"
        else:
            body = f"(walk {node.j} " + " ".join(emit(p) for p in node.parts) + ")"
        return prefix + body

    return emit(f)


# a label definition is its own token, also where it sticks to its
# expression ("#0=(and ...)"); counts and labels are canonical ASCII
# integers, as ``to_sexpr`` prints them
_INT = r"(0|[1-9][0-9]*)"
_TOKEN = re.compile(r"#[0-9]+=|\(|\)|[^\s()]+")
_COUNT = re.compile(_INT + r"\Z")
_LABEL_DEF = re.compile("#" + _INT + r"=\Z")
_LABEL_REF = re.compile("#" + _INT + r"#\Z")


def parse_sexpr(text: str) -> WalkFormula:
    """Parse the S-expression format of :func:`to_sexpr` back into the
    (interned) formula DAG; ``parse_sexpr(to_sexpr(f)) is f``.  Any
    malformed input raises ValueError."""
    tokens = _TOKEN.findall(text)
    pos = 0
    table = {}

    def take():
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unexpected end of input")
        tok = tokens[pos]
        pos += 1
        return tok

    def parse():
        tok = take()
        label = None
        m = _LABEL_DEF.match(tok)
        if m:
            label = int(m.group(1))
            tok = take()
        m = _LABEL_REF.match(tok)
        if m:
            if label is not None:
                raise ValueError("label definition of a bare reference")
            ref = int(m.group(1))
            if ref not in table:
                raise ValueError(f"undefined label #{ref}#")
            return table[ref]
        if tok == "eq":
            node = EQ
        elif tok == "adj":
            node = ADJ
        elif tok == "(":
            head = take()
            if head == "not":
                node = not_(parse())
                closer = take()
            elif head == "and":
                parts = []
                while tokens[pos : pos + 1] != [")"]:
                    parts.append(parse())
                node = and_(parts)
                closer = take()
            elif head == "walk":
                count = take()
                if not _COUNT.match(count):
                    raise ValueError(f"walk count {count!r} is not a "
                                     "canonical integer")
                j = int(count)
                parts = []
                while tokens[pos : pos + 1] != [")"]:
                    parts.append(parse())
                node = walk_quant(j, parts)
                closer = take()
            else:
                raise ValueError(f"unknown operator {head!r}")
            if closer != ")":
                raise ValueError("missing closing parenthesis")
        else:
            raise ValueError(f"unexpected token {tok!r}")
        if label is not None:
            table[label] = node
        return node

    try:
        node = parse()
    except RecursionError:
        raise ValueError("S-expression is nested too deeply") from None
    if pos != len(tokens):
        raise ValueError("trailing input after formula")
    return node


__all__ = [
    "WalkFormula",
    "Evaluator",
    "EQ",
    "ADJ",
    "TOP",
    "not_",
    "and_",
    "walk_quant",
    "eval_matrix",
    "eval_formula",
    "eval_sentence",
    "class_formulas",
    "synth_distinguishing_sentence",
    "to_sexpr",
    "parse_sexpr",
]
