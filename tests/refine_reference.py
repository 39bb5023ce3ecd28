"""Reference refinement encodings, kept as the oracles of `provrefine.refine`.

The formula-tree version of `provrefine.refine.build_phi`, `decode_model`
and `choose_optimistic`, over string-named variables (`e:<arc>`,
`v:<fact>`, `y:<arc>`, `f:<param>`, `z:<fact>`), compiled through
Tseytin, is the oracle the integer clause encoding is checked against.
`solve` is the refinement loop over them.  Both encodings give the solver
the same weighted variables in the same name order, so both must choose
the same weighted part of every model and produce identical traces.

`build_phi_clauses` and `choose_optimistic_clauses` are the integer
clause encodings keyed by the arcs and facts of a `Hypergraph`, sorting
them anew on every call; the encoding that numbers q's cone once per
solve must emit exactly their instances.

`schedule` and `schedule_cost` order (probability, cost) inspection
actions and price an order; only the tests use them.
"""

import math
from typing import Iterable, Optional

from provrefine import hypergraph as hg
from provrefine import maxsat as mx
from provrefine.analysis import Analysis, derive, encode_params
from provrefine.errors import BudgetExceeded, NotAModel, ProvRefineError
from provrefine.hypergraph import Arc, Fact, Hypergraph
from provrefine.probmodel import HyperParams
from provrefine.refine import (RefineConfig, RefineOutcome, _log_theta,
                               _run_solver, forward_restrict, slice_to_query,
                               t_of)

from conftest import solve_formula


def _vertex_var(u: Fact) -> str:
    return "v:" + str(u)


def _arc_var(e: Arc) -> str:
    return "e:" + str(e)


def _aux_var(e: Arc) -> str:
    return "y:" + str(e)


def build_phi(an: Analysis, g_fwd: Hypergraph, q: Fact, a: frozenset,
              hp: Optional[HyperParams] = None,
              alpha: float = 1.0) -> mx.MaxSatInstance:
    """Hard constraint + weights whose models are the feasible refinements.

    A model selects a sub-hypergraph (arc variables), the reached facts
    (vertex variables), and which still-cheap parameters to flip (their
    cheap-mode fact becoming a seed); the query must be reached.
    """
    if q not in g_fwd.vertices:
        raise ProvRefineError(f"query {q} is not in the provenance")
    p0 = encode_params(an, a, 0)
    p1 = encode_params(an, a, 1)
    param_facts = set(an.encode0.values()) | set(an.encode1.values())

    parts = []
    aux_names = []
    by_head = {}
    for e in sorted(g_fwd.arcs, key=Arc._key):
        by_head.setdefault(e.head, []).append(e)
        y = mx.var(_aux_var(e))
        aux_names.append(_aux_var(e))
        body = sorted(e.body, key=Fact._key)
        fires = mx.and_(mx.var(_arc_var(e)), *[mx.var(_vertex_var(b)) for b in body])
        parts.append(mx.iff(y, fires))
        parts.append(mx.implies(y, mx.var(_vertex_var(e.head))))
    for u in sorted(g_fwd.vertices, key=Fact._key):
        if u in param_facts:
            continue
        arcs = by_head.get(u, [])
        just = mx.or_(*[mx.var(_aux_var(e)) for e in arcs]) if arcs else mx.FALSE
        parts.append(mx.implies(mx.var(_vertex_var(u)), just))
    parts.append(mx.var(_vertex_var(q)))
    for u in sorted(p1, key=Fact._key):
        parts.append(mx.var(_vertex_var(u)))
    parts.append(mx.or_(*[mx.var(_vertex_var(u))
                          for u in sorted(p0, key=Fact._key)]))

    hard = mx.exists(aux_names, mx.and_(*parts))
    weights = {}
    for e in sorted(g_fwd.arcs, key=Arc._key):
        weights[_arc_var(e)] = _log_theta(hp, e.rule_type)
    for u in sorted(p0 | p1, key=Fact._key):
        weights[_vertex_var(u)] = -alpha
    return mx.MaxSatInstance(hard, weights)


def build_phi_clauses(an: Analysis, g_fwd: Hypergraph, q: Fact,
                      a: frozenset, hp: Optional[HyperParams] = None,
                      alpha: float = 1.0) -> mx.ClauseInstance:
    """`provrefine.refine.build_phi`'s instance from the arcs of g_fwd.

    Arc variables come first in `Arc._key` order, then the vertex
    variables in `Fact._key` order, then one y_e per arc; only the
    variables of nonzero weight are named.
    """
    if q not in g_fwd.vertices:
        raise ProvRefineError(f"query {q} is not in the provenance")
    p0 = encode_params(an, a, 0)
    p1 = encode_params(an, a, 1)
    param_facts = set(an.encode0.values()) | set(an.encode1.values())
    arcs = sorted(g_fwd.arcs, key=Arc._key)
    facts = sorted(g_fwd.vertices | p0 | p1, key=Fact._key)
    arc_ids = {e: i for i, e in enumerate(arcs, 1)}
    fact_ids = {u: i for i, u in enumerate(facts, len(arcs) + 1)}
    aux_ids = {e: i for i, e in enumerate(arcs, len(arcs) + len(facts) + 1)}

    weights, names = {}, {}  # summed in this order: arcs, then facts
    for e, i in arc_ids.items():
        w = _log_theta(hp, e.rule_type)
        if w != 0.0:
            weights[i] = w
            names[i] = _arc_var(e)
    if alpha != 0.0:
        for u, i in fact_ids.items():
            if u in p0 or u in p1:
                weights[i] = -alpha
                names[i] = _vertex_var(u)

    clauses = []
    justify = {}  # head -> (-v_head, y_e for each arc e into it)
    for e in arcs:
        y, x, head = aux_ids[e], arc_ids[e], fact_ids[e.head]
        body = sorted(fact_ids[b] for b in e.body)
        clauses.append((-y, x))
        clauses.extend((-y, b) for b in body)
        clauses.append((y, -x, *[-b for b in body]))
        clauses.append((-y, head))
        justify.setdefault(e.head, [-head]).append(y)
    for u in facts:
        if u not in param_facts:
            clauses.append(tuple(justify.get(u, (-fact_ids[u],))))
    clauses.append((fact_ids[q],))
    clauses.extend((fact_ids[u],) for u in facts if u in p1)
    clauses.append(tuple(fact_ids[u] for u in facts if u in p0))
    nvars = 2 * len(arcs) + len(facts)
    return mx.ClauseInstance(nvars, clauses, weights, names)


def choose_optimistic_clauses(an: Analysis, g_a: Hypergraph, q: Fact,
                              a: frozenset,
                              alpha: float = 1.0) -> Optional[mx.ClauseInstance]:
    """`provrefine.refine.choose_optimistic`'s instance from the arcs of g_a,
    or None when no parameter is left to flip.

    The flip variables f_x come first in name order, then the z variables
    in `Fact._key` order; only the f_x are named, and only if alpha is not
    0.  The arc clauses follow the iteration order of g_a's arc set.
    """
    unflipped = [x for x in an.params if x not in a]
    if not unflipped:
        return None
    f_ids = {x: i for i, x in enumerate(sorted(unflipped), 1)}
    seeds = {x: an.encode0[x] for x in unflipped}
    z_ids = {u: i for i, u in enumerate(
        sorted(g_a.vertices | set(seeds.values()), key=Fact._key),
        len(f_ids) + 1)}
    clauses = [tuple(f_ids[x] for x in unflipped)]
    clauses += [(f_ids[x], z_ids[u]) for x, u in seeds.items()]
    for e in g_a.arcs:
        clauses.append((z_ids[e.head], *sorted(-z_ids[b] for b in e.body)))
    if q in g_a.vertices:
        clauses.append((-z_ids[q],))
    weights, names = {}, {}
    if alpha != 0.0:
        for x, i in f_ids.items():
            weights[i] = -alpha
            names[i] = "f:" + x
    return mx.ClauseInstance(len(f_ids) + len(z_ids), clauses, weights, names)


def success_prob_lower(h: Hypergraph, hp: Optional[HyperParams]) -> float:
    """Log of the survival probability of the whole selected subgraph."""
    return math.fsum(_log_theta(hp, e.rule_type) for e in h.arcs)


def decode_model(an: Analysis, model: Iterable[str], g_fwd: Hypergraph,
                 a: frozenset):
    """Read off the refined abstraction and selected sub-hypergraph."""
    model = frozenset(model)
    chosen = [e for e in sorted(g_fwd.arcs, key=Arc._key) if _arc_var(e) in model]
    h = Hypergraph(chosen)
    a2 = a | {x for x in an.params
              if x not in a and _vertex_var(an.encode0[x]) in model}
    if not a < a2:
        raise NotAModel("decoded abstraction is not strictly more precise")
    q_candidates = an.queries & g_fwd.vertices
    t = t_of(an, a, a2)
    reached = hg.reach(h, t)
    for q in q_candidates:
        if _vertex_var(q) in model and q not in reached:
            raise NotAModel("selected arcs do not justify the query")
    return a2, h


def choose_optimistic(an: Analysis, g_a: Hypergraph, q: Fact, a: frozenset,
                      cfg: RefineConfig) -> Optional[frozenset]:
    """Cheapest a2 > a whose remaining cheap facts cannot derive q.

    Encodes the closure of the cheap seeds: z variables over-approximate
    reachability from the cheap-mode facts of a2, and z_q is forbidden.
    Unsatisfiable means every refinement still derives q, so the caller
    answers "no".
    """

    def zvar(u: Fact) -> str:
        return "z:" + str(u)

    def fvar(x: str) -> str:
        return "f:" + x

    parts = []
    unflipped = [x for x in an.params if x not in a]
    parts.extend(mx.var(fvar(x)) for x in an.params if x in a)
    if not unflipped:
        return None
    parts.append(mx.or_(*[mx.var(fvar(x)) for x in unflipped]))
    for x in unflipped:
        parts.append(mx.implies(mx.not_(mx.var(fvar(x))),
                                mx.var(zvar(an.encode0[x]))))
    for e in sorted(g_a.arcs, key=Arc._key):
        body = [mx.var(zvar(b)) for b in sorted(e.body, key=Fact._key)]
        head = mx.var(zvar(e.head))
        parts.append(mx.implies(mx.and_(*body) if body else mx.TRUE, head))
    if q in g_a.vertices:
        parts.append(mx.not_(mx.var(zvar(q))))
    weights = {fvar(x): -cfg.alpha for x in unflipped}
    inst = mx.MaxSatInstance(mx.and_(*parts), weights)
    result = solve_formula(lambda cnf: _run_solver(cnf, cfg), inst)
    if result is None:
        return None
    model, _ = result
    return a | {x for x in unflipped if fvar(x) in model}


def solve(an: Analysis, q: Fact, cfg: RefineConfig) -> RefineOutcome:
    """The refinement loop; answers yes (ruled out), no, or limit."""
    if q not in an.queries:
        raise ValueError(f"{q} is not a declared query")
    max_iters = cfg.max_iterations
    if max_iters is None:
        max_iters = len(an.params) + 1
    hp = cfg.hyperparams if cfg.strategy == "probabilistic" else None

    a = frozenset()
    trace = []
    iteration = 0
    while iteration < max_iters:
        iteration += 1
        entry = {"iteration": iteration, "flips": sorted(a)}
        trace.append(entry)
        derived = derive(an, a)
        if q not in derived:
            entry["answer"] = "yes"
            return RefineOutcome("yes", iteration, trace)
        g_a = hg.induced(an.global_graph, derived)
        if q in hg.reach(g_a, encode_params(an, a, 1)):
            entry["answer"] = "no"
            return RefineOutcome("no", iteration, trace)

        try:
            if cfg.strategy == "optimistic":
                a2 = choose_optimistic(an, slice_to_query(g_a, q), q, a, cfg)
                if a2 is None:
                    entry["answer"] = "no"
                    return RefineOutcome("no", iteration, trace)
                entry["chosen"] = sorted(a2)
            else:
                g_fwd = slice_to_query(forward_restrict(g_a, an, a), q)
                inst = build_phi(an, g_fwd, q, a, hp, cfg.alpha)
                result = solve_formula(lambda cnf: _run_solver(cnf, cfg), inst)
                if result is None:
                    raise NotAModel(
                        "refinement constraint unexpectedly unsatisfiable")
                model, objective = result
                a2, h = decode_model(an, model, g_fwd, a)
                entry["chosen"] = sorted(a2)
                entry["objective"] = objective
                entry["log_success"] = success_prob_lower(h, hp)
        except BudgetExceeded:
            entry["answer"] = "limit"
            return RefineOutcome("limit", iteration, trace)
        a = a2
    if trace:
        trace[-1]["answer"] = "limit"
    return RefineOutcome("limit", iteration, trace)


def schedule(actions: list) -> list:
    """Order (probability, cost) actions by descending p/c; stable on ties.

    Returns the permutation as a list of indices into `actions`.
    """
    for p, c in actions:
        if not (0.0 < p <= 1.0) or c <= 0.0:
            raise ValueError("need p in (0,1] and c > 0")
    return sorted(range(len(actions)),
                  key=lambda i: -(actions[i][0] / actions[i][1]))


def schedule_cost(actions: list, order: Iterable[int]) -> float:
    """Expected total cost when trying actions in the given order."""
    total = 0.0
    fail = 1.0
    for i in order:
        p, c = actions[i]
        total += fail * c
        fail *= 1.0 - p
    return total
