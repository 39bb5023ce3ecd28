"""Query-driven abstraction refinement.

Starting from the all-cheap setting, each iteration either rules the
query out (not derivable), confirms it (derivable from precise facts
alone), or asks a MaxSAT solver for the next, strictly more precise
parameter setting.  The pessimistic and probabilistic strategies balance
the chance of reproducing the counterexample against the cost of
precision; the optimistic strategy hunts for a cheapest setting that
could still rule the query out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

from . import hypergraph as hg
from . import maxsat as mx
from .analysis import Abstraction, Analysis, derive, encode_params, project_set
from .errors import BudgetExceeded, NotAModel, QueryNotInProvenance
from .hypergraph import Arc, Fact, Hypergraph
from .probmodel import HyperParams

LOG_EPS = math.log(1e-6)


@dataclass
class RefineConfig:
    strategy: str = "pessimistic"  # optimistic | pessimistic | probabilistic
    alpha: float = 1.0
    hyperparams: Optional[HyperParams] = None  # ignored for pessimistic
    solver: str = "exact"  # exact | approx
    max_iterations: Optional[int] = None
    solver_budget: float = 60.0


@dataclass
class RefineOutcome:
    answer: str  # yes | no | limit
    iterations: int
    trace: list = field(default_factory=list)


def _log_theta(hp: Optional[HyperParams], rule_type: str) -> float:
    """Clamped log survival probability; theta defaults to 1."""
    if hp is None:
        return 0.0
    t = hp.theta.get(rule_type, 1.0)
    if t <= 0.0:
        return LOG_EPS
    return max(math.log(t), LOG_EPS)


def _vertex_var(u: Fact) -> str:
    return "v:" + str(u)


def _arc_var(e: Arc) -> str:
    return "e:" + str(e)


def _aux_var(e: Arc) -> str:
    return "y:" + str(e)


def forward_restrict(g_a: Hypergraph, an: Analysis, a: Abstraction) -> Hypergraph:
    """Keep only arcs pointing away from the parameter facts."""
    seeds = encode_params(an, a, 0) | encode_params(an, a, 1)
    return hg.forward_arcs(g_a, seeds)


def slice_to_query(g: Hypergraph, q: Fact) -> Hypergraph:
    """Arcs that can contribute to deriving q (backward cone)."""
    cone = {q}
    frontier = [q]
    by_head = {}
    for e in g.arcs:
        by_head.setdefault(e.head, []).append(e)
    while frontier:
        u = frontier.pop()
        for e in by_head.get(u, ()):
            for b in e.body:
                if b not in cone:
                    cone.add(b)
                    frontier.append(b)
    return Hypergraph(e for e in g.arcs if e.head in cone)


def t_of(an: Analysis, a: Abstraction, a2: Abstraction) -> frozenset:
    """Seed facts for evaluating candidate a2 on the current provenance."""
    p1_old = encode_params(an, a, 1)
    p1_new = encode_params(an, a2, 1)
    return p1_old | project_set(an, p1_new - p1_old)


def build_phi(an: Analysis, g_fwd: Hypergraph, q: Fact, a: Abstraction,
              hp: Optional[HyperParams] = None,
              alpha: float = 1.0) -> mx.MaxSatInstance:
    """Hard constraint + weights whose models are the feasible refinements.

    A model selects a sub-hypergraph (arc variables), the reached facts
    (vertex variables), and which still-cheap parameters to flip (their
    cheap-mode fact becoming a seed); the query must be reached.
    """
    if q not in g_fwd.vertices:
        raise QueryNotInProvenance(str(q))
    p0 = encode_params(an, a, 0)
    p1 = encode_params(an, a, 1)
    param_facts = set(an.encode0.values()) | set(an.encode1.values())

    parts = []
    aux_names = []
    by_head = {}
    for e in g_fwd.sorted_arcs():
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
    for e in g_fwd.sorted_arcs():
        weights[_arc_var(e)] = _log_theta(hp, e.rule_type)
    for u in sorted(p0 | p1, key=Fact._key):
        weights[_vertex_var(u)] = -alpha
    return mx.MaxSatInstance(hard, weights)


def decode_model(an: Analysis, model: Iterable[str], g_fwd: Hypergraph,
                 a: Abstraction):
    """Read off the refined abstraction and selected sub-hypergraph."""
    model = frozenset(model)
    chosen = [e for e in g_fwd.sorted_arcs() if _arc_var(e) in model]
    h = Hypergraph(chosen)
    flips = set()
    for x, v in a.bits:
        if v == 0 and _vertex_var(an.encode0[x]) in model:
            flips.add(x)
    a2 = a.with_flips(flips)
    if not a < a2:
        raise NotAModel("decoded abstraction is not strictly more precise")
    q_candidates = an.queries & g_fwd.vertices
    t = t_of(an, a, a2)
    reached = hg.reach(h, t)
    for q in q_candidates:
        if _vertex_var(q) in model and q not in reached:
            raise NotAModel("selected arcs do not justify the query")
    return a2, h


def success_prob_lower(h: Hypergraph, hp: Optional[HyperParams]) -> float:
    """Log of the survival probability of the whole selected subgraph."""
    return math.fsum(_log_theta(hp, e.rule_type) for e in h.arcs)


def choose_optimistic(an: Analysis, g_a: Hypergraph, q: Fact, a: Abstraction,
                      cfg: RefineConfig) -> Optional[Abstraction]:
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
    unflipped = [x for x, v in a.bits if v == 0]
    for x, v in a.bits:
        if v == 1:
            parts.append(mx.var(fvar(x)))
    if not unflipped:
        return None
    parts.append(mx.or_(*[mx.var(fvar(x)) for x in unflipped]))
    for x in unflipped:
        parts.append(mx.implies(mx.not_(mx.var(fvar(x))),
                                mx.var(zvar(an.encode0[x]))))
    for e in g_a.sorted_arcs():
        body = [mx.var(zvar(b)) for b in sorted(e.body, key=Fact._key)]
        head = mx.var(zvar(e.head))
        parts.append(mx.implies(mx.and_(*body) if body else mx.TRUE, head))
    if q in g_a.vertices:
        parts.append(mx.not_(mx.var(zvar(q))))
    weights = {fvar(x): -cfg.alpha for x in unflipped}
    inst = mx.MaxSatInstance(mx.and_(*parts), weights)
    result = _run_solver(inst, cfg)
    if result is None:
        return None
    model, _ = result
    flips = {x for x in unflipped if fvar(x) in model}
    return a.with_flips(flips)


def _run_solver(inst: mx.MaxSatInstance, cfg: RefineConfig):
    solve = mx.solve_approx if cfg.solver == "approx" else mx.solve_exact
    return solve(inst, budget=cfg.solver_budget)


def _strategy_hyperparams(cfg: RefineConfig) -> Optional[HyperParams]:
    if cfg.strategy == "pessimistic":
        return None  # theta defaults to 1 everywhere
    return cfg.hyperparams


def solve(an: Analysis, q: Fact, cfg: RefineConfig) -> RefineOutcome:
    """The refinement loop; answers yes (ruled out), no, or limit."""
    if q not in an.queries:
        raise ValueError(f"{q} is not a declared query")
    max_iters = cfg.max_iterations
    if max_iters is None:
        max_iters = len(an.params) + 1
    hp = _strategy_hyperparams(cfg)

    a = an.bottom()
    trace = []
    iteration = 0
    while iteration < max_iters:
        iteration += 1
        entry = {"iteration": iteration, "flips": sorted(a.flips())}
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
                entry["chosen"] = sorted(a2.flips())
            else:
                g_fwd = slice_to_query(forward_restrict(g_a, an, a), q)
                inst = build_phi(an, g_fwd, q, a, hp, cfg.alpha)
                result = _run_solver(inst, cfg)
                if result is None:
                    raise NotAModel(
                        "refinement constraint unexpectedly unsatisfiable")
                model, objective = result
                a2, h = decode_model(an, model, g_fwd, a)
                entry["chosen"] = sorted(a2.flips())
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
