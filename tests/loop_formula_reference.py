"""Reference loop formulas: the exact characterization of reach(H, T) = R.

An observation (t, r) holds in a sub-hypergraph H iff t lies in r, no arc
whose body lies in r and whose head does not is in H, and every loop (a
vertex set inducing a strongly connected dependency subgraph) inside r - t
has a justifying arc in H.  The weighted model count of the conjunction
over a batch of observations is their exact likelihood; the tests check
it against `provrefine.likelihood.exact_likelihood`, which enumerates the
reach equalities themselves, and use `loops` to tell acyclic instances,
on which the bounds are exact.  Exponential in the vertex count.
"""

import math
from dataclasses import dataclass
from typing import Iterable

from provrefine.errors import OracleLimitExceeded, ProvRefineError
from provrefine.hypergraph import Arc, Fact, Hypergraph
from provrefine.likelihood import EXACT_ARC_LIMIT
from provrefine.probmodel import NEG_INF, HyperParams

from conftest import all_subgraph_probability
from probmodel_reference import ProbModel


class EmptyLoop(ProvRefineError):
    """Justifications requested for an empty vertex set."""


def dependency_graph(g: Hypergraph) -> dict:
    """Directed graph with an edge h -> b for every arc (h, B) and b in B."""
    edges = {v: set() for v in g.vertices}
    for a in g.arcs:
        edges[a.head].update(a.body)
    return edges


def _strongly_connected(vertices: frozenset, edges: dict) -> bool:
    """Is the subgraph induced by `vertices` strongly connected?"""
    if len(vertices) == 1:
        return True

    def explore(succ):
        start = next(iter(vertices))
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in succ.get(v, ()):
                if w in vertices and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen == vertices

    fwd = {v: edges.get(v, ()) for v in vertices}
    rev = {v: set() for v in vertices}
    for v in vertices:
        for w in edges.get(v, ()):
            if w in vertices:
                rev[w].add(v)
    return explore(fwd) and explore(rev)


def loops(g: Hypergraph, limit: int = 16) -> set:
    """All vertex subsets inducing a strongly connected dependency subgraph.

    Includes non-maximal loops and singleton ("trivial") loops.
    Exponential; guarded by `limit` on the vertex count.
    """
    verts = sorted(g.vertices, key=Fact._key)
    if len(verts) > limit:
        raise OracleLimitExceeded(
            f"loop enumeration over {len(verts)} vertices (limit {limit})")
    edges = dependency_graph(g)
    out = set()
    n = len(verts)
    for mask in range(1, 1 << n):
        subset = frozenset(verts[i] for i in range(n) if mask >> i & 1)
        if _strongly_connected(subset, edges):
            out.add(subset)
    return out


def justifications(g: Hypergraph, l: Iterable[Fact]) -> set:
    """Arcs that can support loop l from outside: head in l, body disjoint."""
    ls = frozenset(l)
    if not ls:
        raise EmptyLoop("justifications of an empty loop")
    return {a for a in g.arcs if a.head in ls and not (a.body & ls)}


@dataclass(frozen=True)
class LoopFormula:
    """[t ⊆ r] ∧ (refuted arcs off) ∧ (every loop inside r∖t justified)."""

    consistent: bool
    negated_arcs: frozenset
    clauses: tuple  # each a frozenset of arcs; at least one must be selected

    def evaluate(self, selected: Iterable[Arc]) -> bool:
        sel = frozenset(selected)
        if not self.consistent:
            return False
        if sel & self.negated_arcs:
            return False
        return all(sel & c for c in self.clauses)


def loop_formula(g_bot: Hypergraph, t: Iterable[Fact], r: Iterable[Fact],
                 loop_limit: int = 16) -> LoopFormula:
    ts = frozenset(t)
    rs = frozenset(r)
    if not ts <= rs:
        return LoopFormula(False, frozenset(), ())
    negated = frozenset(
        a for a in g_bot.arcs if a.body <= rs and a.head not in rs)
    interior = rs - ts
    interior_verts = sorted((v for v in interior if v in g_bot.vertices),
                            key=Fact._key)
    if len(interior_verts) > loop_limit:
        raise OracleLimitExceeded(
            f"loop enumeration over {len(interior_verts)} vertices")
    edges = dependency_graph(g_bot)
    clauses = []
    n = len(interior_verts)
    for mask in range(1, 1 << n):
        loop = frozenset(interior_verts[i] for i in range(n) if mask >> i & 1)
        if not _strongly_connected(loop, edges):
            continue
        just = frozenset(
            a for a in justifications(g_bot, loop)
            if a.body <= rs and a not in negated)
        clauses.append(just)
    # facts of r∖t that are not vertices can never be derived
    consistent = all(v in g_bot.vertices for v in interior)
    return LoopFormula(consistent, negated, tuple(sorted(clauses, key=sorted)))


def loop_formula_wmc(g_bot: Hypergraph, formulas: Iterable[LoopFormula],
                     hp: HyperParams, limit: int = EXACT_ARC_LIMIT) -> float:
    """Log of the weighted model count of a conjunction of loop formulas."""
    formulas = list(formulas)
    if len(g_bot.arcs) > limit:
        raise OracleLimitExceeded(
            f"weighted model count over {len(g_bot.arcs)} arcs (limit {limit})")
    model = ProbModel(g_bot, hp)
    total = all_subgraph_probability(
        model.blueprint, model.params.theta,
        lambda sel: all(f.evaluate(sel) for f in formulas))
    return math.log(total) if total > 0.0 else NEG_INF
