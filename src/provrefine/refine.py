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
from .analysis import Abstraction, Analysis, encode_params, project_set
from .errors import BudgetExceeded, NotAModel, QueryNotInProvenance
from .hypergraph import Fact, Hypergraph
from .probmodel import HyperParams

LOG_EPS = math.log(1e-6)
STRATEGIES = ("optimistic", "pessimistic", "probabilistic")
SOLVERS = ("exact", "approx")


@dataclass
class RefineConfig:
    strategy: str = "pessimistic"  # one of STRATEGIES
    alpha: float = 1.0
    hyperparams: Optional[HyperParams] = None  # ignored for pessimistic
    solver: str = "exact"  # one of SOLVERS
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


@dataclass
class Phi:
    """The refinement constraint as weighted clauses over integer ids.

    `arc_ids` and `fact_ids` give the ids of the arc variables e and the
    vertex variables v_u, `aux_ids` the id of y_e, which holds iff e and
    its whole body hold; `graph` is the hypergraph encoded.
    """

    inst: mx.ClauseInstance
    graph: Hypergraph
    arc_ids: dict
    fact_ids: dict
    aux_ids: dict


def build_phi(an: Analysis, g_fwd: Hypergraph, q: Fact, a: Abstraction,
              hp: Optional[HyperParams] = None, alpha: float = 1.0) -> Phi:
    """Hard clauses + weights whose models are the feasible refinements.

    A model selects a sub-hypergraph (arc variables), the reached facts
    (vertex variables), and which still-cheap parameters to flip (their
    cheap-mode fact becoming a seed); the query must be reached.  The
    clauses: y_e <-> (e and its body) and y_e -> v_head per arc; each
    non-parameter vertex needs a firing arc, v_u -> (y_e or ...); v_q and
    every P1 fact hold, and some P0 fact does.

    Arcs weigh log theta of their rule type, P0 and P1 facts -alpha.  Only
    the variables of nonzero weight are named, `e:<arc>` and `v:<fact>`:
    the solver breaks ties in name order.  The other ids follow
    `Arc._key` and `Fact._key` order.
    """
    if q not in g_fwd.vertices:
        raise QueryNotInProvenance(str(q))
    p0 = encode_params(an, a, 0)
    p1 = encode_params(an, a, 1)
    param_facts = set(an.encode0.values()) | set(an.encode1.values())
    arcs = g_fwd.sorted_arcs()
    facts = sorted(g_fwd.vertices | p0 | p1, key=Fact._key)
    arc_ids = {e: i for i, e in enumerate(arcs, 1)}
    fact_ids = {u: i for i, u in enumerate(facts, len(arcs) + 1)}
    aux_ids = {e: i for i, e in enumerate(arcs, len(arcs) + len(facts) + 1)}

    weights, names = {}, {}  # summed in this order: arcs, then facts
    for e, i in arc_ids.items():
        w = _log_theta(hp, e.rule_type)
        if w != 0.0:
            weights[i] = w
            names[i] = "e:" + str(e)
    if alpha != 0.0:
        for u, i in fact_ids.items():
            if u in p0 or u in p1:
                weights[i] = -alpha
                names[i] = "v:" + str(u)

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
    return Phi(mx.ClauseInstance(nvars, clauses, weights, names), g_fwd,
               arc_ids, fact_ids, aux_ids)


def decode_model(an: Analysis, model: Iterable[int], phi: Phi,
                 a: Abstraction):
    """Read off the refined abstraction and selected sub-hypergraph."""
    model = frozenset(model)
    h = Hypergraph(e for e, i in phi.arc_ids.items() if i in model)
    flips = set()
    for x, v in a.bits:
        if v == 0 and phi.fact_ids[an.encode0[x]] in model:
            flips.add(x)
    a2 = a.with_flips(flips)
    if not a < a2:
        raise NotAModel("decoded abstraction is not strictly more precise")
    q_candidates = an.queries & phi.graph.vertices
    t = t_of(an, a, a2)
    reached = hg.reach(h, t)
    for q in q_candidates:
        if phi.fact_ids[q] in model and q not in reached:
            raise NotAModel("selected arcs do not justify the query")
    return a2, h


def success_prob_lower(h: Hypergraph, hp: Optional[HyperParams]) -> float:
    """Log of the survival probability of the whole selected subgraph."""
    return math.fsum(_log_theta(hp, e.rule_type) for e in h.arcs)


def choose_optimistic(an: Analysis, g_a: Hypergraph, q: Fact, a: Abstraction,
                      cfg: RefineConfig) -> Optional[Abstraction]:
    """Cheapest a2 > a whose remaining cheap facts cannot derive q.

    Encodes the closure of the cheap seeds as Horn clauses: z variables
    over-approximate reachability from the cheap-mode facts of a2, and
    z_q is forbidden.  The flip variables f_x of the unflipped parameters
    weigh -alpha and are named `f:<x>`; they get ids 1..k in name order, so
    that with alpha 0, where nothing is weighted, the solver's completion
    still tries them in name order.  Unsatisfiable means every refinement
    still derives q, so the caller answers "no".
    """
    unflipped = [x for x, v in a.bits if v == 0]
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
    if cfg.alpha != 0.0:
        for x, i in f_ids.items():
            weights[i] = -cfg.alpha
            names[i] = "f:" + x
    inst = mx.ClauseInstance(len(f_ids) + len(z_ids), clauses, weights, names)
    result = _run_solver(inst, cfg)
    if result is None:
        return None
    model, _ = result
    return a.with_flips(x for x in unflipped if f_ids[x] in model)


def _run_solver(inst: mx.ClauseInstance, cfg: RefineConfig):
    solve = mx.solve_approx if cfg.solver == "approx" else mx.solve_exact
    return solve(inst, budget=cfg.solver_budget)


def _strategy_hyperparams(cfg: RefineConfig) -> Optional[HyperParams]:
    if cfg.strategy == "pessimistic":
        return None  # theta defaults to 1 everywhere
    return cfg.hyperparams


def solve(an: Analysis, q: Fact, cfg: RefineConfig) -> RefineOutcome:
    """The refinement loop; answers yes (ruled out), no, or limit.

    Raises ValueError for an unknown strategy or solver, an alpha that is
    not finite, a NaN or negative solver budget, a negative iteration
    limit, and a query the analysis does not declare.
    """
    if cfg.strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {cfg.strategy!r}")
    if cfg.solver not in SOLVERS:
        raise ValueError(f"unknown solver {cfg.solver!r}")
    if not math.isfinite(cfg.alpha):
        raise ValueError(f"alpha must be a finite number, not {cfg.alpha!r}")
    if not cfg.solver_budget >= 0:
        raise ValueError("solver_budget must be a number >= 0, "
                         f"not {cfg.solver_budget!r}")
    if cfg.max_iterations is not None and cfg.max_iterations < 0:
        raise ValueError(
            f"max_iterations must be >= 0, not {cfg.max_iterations!r}")
    if q not in an.queries:
        raise ValueError(f"{q} is not a declared query")
    max_iters = cfg.max_iterations
    if max_iters is None:
        max_iters = len(an.params) + 1
    hp = _strategy_hyperparams(cfg)

    # every step below decides only facts in q's cone (q is fact 0): the
    # analysis under a, the forward arcs and the slices to q
    cone = hg.Index.cone(an.global_graph, q)
    heads, bodies = cone.heads, cone.bodies
    a = an.bottom()
    trace = []
    iteration = 0
    while iteration < max_iters:
        iteration += 1
        entry = {"iteration": iteration, "flips": sorted(a.flips())}
        trace.append(entry)
        p1 = encode_params(an, a, 1)
        dist = cone.run(encode_params(an, a, 0) | p1)
        if 0 not in dist:
            entry["answer"] = "yes"
            return RefineOutcome("yes", iteration, trace)
        if 0 in cone.run(p1):
            entry["answer"] = "no"
            return RefineOutcome("no", iteration, trace)

        try:
            if cfg.strategy == "optimistic":
                # the derived arcs: their whole body is reached
                g_a = cone.slice(lambda j: all(b in dist for b in bodies[j]))
                a2 = choose_optimistic(an, g_a, q, a, cfg)
                if a2 is None:
                    entry["answer"] = "no"
                    return RefineOutcome("no", iteration, trace)
                entry["chosen"] = sorted(a2.flips())
            else:
                # the forward arcs among the derived ones
                g_fwd = cone.slice(lambda j: heads[j] in dist and all(
                    b in dist and dist[b] < dist[heads[j]] for b in bodies[j]))
                phi = build_phi(an, g_fwd, q, a, hp, cfg.alpha)
                result = _run_solver(phi.inst, cfg)
                if result is None:
                    raise NotAModel(
                        "refinement constraint unexpectedly unsatisfiable")
                model, objective = result
                a2, h = decode_model(an, model, phi, a)
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
