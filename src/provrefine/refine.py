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

import itertools
import math
import weakref
from dataclasses import dataclass, field
from typing import Iterable, Optional

from . import hypergraph as hg
from . import maxsat as mx
from .analysis import Analysis, encode_params
from .errors import BudgetExceeded, NotAModel, ProvRefineError
from .hypergraph import Fact, Hypergraph
from .probmodel import HyperParams

LOG_EPS = math.log(1e-6)
STRATEGIES = ("optimistic", "pessimistic", "probabilistic")
SOLVERS = ("exact", "approx")


@dataclass
class RefineConfig:
    strategy: str = "pessimistic"  # one of STRATEGIES
    alpha: float = 1.0
    hyperparams: Optional[HyperParams] = None  # used by probabilistic only
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


def forward_restrict(g_a: Hypergraph, an: Analysis, a: frozenset) -> Hypergraph:
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


def t_of(an: Analysis, a: frozenset, a2: frozenset) -> frozenset:
    """Seed facts for evaluating candidate a2 on the current provenance."""
    p1_old = encode_params(an, a, 1)
    p1_new = encode_params(an, a2, 1)
    return p1_old | an.projection.image(p1_new - p1_old)


class Encoding:
    """What every iteration of one solve encodes and decodes with, over
    the ids of q's cone index `cone`, which numbers the parameter facts
    too: `q` is the query's id, `weights[j]` cone arc j's log theta,
    `enc0[x]` and `enc1[x]` the ids of parameter x's cheap and precise
    facts, and `queries` the declared queries among the numbered facts.
    """

    def __init__(self, an: Analysis, cone: hg.Index, q: Fact,
                 hp: Optional[HyperParams], alpha: float):
        self.an, self.cone, self.alpha, self.q = an, cone, alpha, cone.ids[q]
        self.enc0 = {x: cone.ids[u] for x, u in an.encode0.items()}
        self.enc1 = {x: cone.ids[u] for x, u in an.encode1.items()}
        self.params = set(self.enc0.values()) | set(self.enc1.values())
        self.queries = [cone.ids[u] for u in an.queries if u in cone.ids]
        theta = {t: _log_theta(hp, t) for t in {e.rule_type for e in cone.arcs}}
        self.weights = [theta[e.rule_type] for e in cone.arcs]
        # the names of the variables that may be weighted: every parameter
        # fact's and every weighted arc's
        self.fact_names = {i: "v:" + str(cone.facts[i]) for i in self.params}
        self.arc_names = {j: "e:" + str(e) for j, e in enumerate(cone.arcs)
                          if self.weights[j] != 0.0}


@dataclass
class Phi:
    """The refinement constraint as weighted clauses over integer ids.

    Arc variable k + 1 selects the cone arc `arcs[k]`, and variable
    k + 1 + len(arcs) + len(fact_ids), y_e, holds iff that arc and its
    whole body hold; `fact_ids` maps the encoding's fact numbers to their
    vertex variables v_u, and `vertices` holds the facts the arcs mention.
    """

    inst: mx.ClauseInstance
    arcs: list
    fact_ids: dict
    vertices: set


def build_phi(enc: Encoding, kept: Iterable[int], a: frozenset) -> Phi:
    """Hard clauses + weights whose models are the feasible refinements.

    A model selects a sub-hypergraph of the cone arcs `kept` (arc
    variables), the reached facts (vertex variables), and which still-cheap
    parameters to flip (their cheap-mode fact becoming a seed); the query,
    the encoding's fact q, must be reached.  The clauses: y_e <-> (e and its
    body) and y_e -> v_head per arc; each non-parameter vertex needs a
    firing arc, v_u -> (y_e or ...); v_q and every P1 fact hold, and some
    P0 fact does.

    Arcs weigh log theta of their rule type, P0 and P1 facts -alpha.  Only
    the variables of nonzero weight are named, `e:<arc>` and `v:<fact>`:
    the solver breaks ties in name order.  The other ids follow
    `Arc._key` and `Fact._key` order, as the cone's ids do.
    """
    heads, bodies = enc.cone.heads, enc.cone.bodies
    arcs = sorted(kept)
    vertices = {heads[j] for j in arcs}
    for j in arcs:
        vertices.update(bodies[j])
    if enc.q not in vertices:
        raise ProvRefineError(f"query {enc.cone.facts[enc.q]} is not in the provenance")
    p0 = {enc.enc0[x] for x in enc.an.params if x not in a}
    p1 = {enc.enc1[x] for x in a}
    facts = sorted(vertices | p0 | p1)
    n = len(arcs)
    fact_ids = {u: i for i, u in enumerate(facts, n + 1)}

    weights, names = {}, {}  # summed in this order: arcs, then facts
    for x, j in enumerate(arcs, 1):
        w = enc.weights[j]
        if w != 0.0:
            weights[x] = w
            names[x] = enc.arc_names[j]
    if enc.alpha != 0.0:
        for u in facts:
            if u in p0 or u in p1:
                weights[fact_ids[u]] = -enc.alpha
                names[fact_ids[u]] = enc.fact_names[u]

    clauses = []
    justify = {}  # head -> (-v_head, y_e for each arc e into it)
    aux = n + len(facts)  # y_e of arc variable x is x + aux
    for x, j in enumerate(arcs, 1):
        y, head = x + aux, fact_ids[heads[j]]
        body = [fact_ids[b] for b in bodies[j]]
        clauses.append((-y, x))
        clauses.extend((-y, b) for b in body)
        clauses.append((y, -x, *[-b for b in body]))
        clauses.append((-y, head))
        justify.setdefault(heads[j], [-head]).append(y)
    for u in facts:
        if u not in enc.params:
            clauses.append(tuple(justify.get(u, (-fact_ids[u],))))
    clauses.append((fact_ids[enc.q],))
    clauses.extend((fact_ids[u],) for u in facts if u in p1)
    clauses.append(tuple(fact_ids[u] for u in facts if u in p0))
    nvars = 2 * n + len(facts)
    return Phi(mx.ClauseInstance(nvars, clauses, weights, names), arcs,
               fact_ids, vertices)


def decode_model(enc: Encoding, model: Iterable[int], phi: Phi,
                 a: frozenset):
    """The refined abstraction, and the log survival probability of the
    selected arcs, the fsum of their weights."""
    model = frozenset(model)
    n = len(phi.arcs)
    chosen = [phi.arcs[i - 1] for i in model if i <= n]
    fact_ids = phi.fact_ids
    a2 = a.union([x for x in enc.an.params
                  if x not in a and fact_ids[enc.enc0[x]] in model])
    if not a < a2:
        raise NotAModel("decoded abstraction is not strictly more precise")
    reached = enc.cone.run(t_of(enc.an, a, a2), chosen)
    for q in enc.queries:
        if q in phi.vertices and fact_ids[q] in model and q not in reached:
            raise NotAModel("selected arcs do not justify the query")
    return a2, math.fsum(enc.weights[j] for j in chosen)


def choose_optimistic(enc: Encoding, kept: list, a: frozenset,
                      cfg: RefineConfig) -> frozenset:
    """Cheapest a2 > a whose remaining cheap facts cannot derive q, the
    encoding's fact q, through the cone arcs `kept`.

    Encodes the closure of the cheap seeds as Horn clauses: z variables
    over-approximate reachability from the cheap-mode facts of a2, and
    z_q is forbidden.  The flip variables f_x of the unflipped parameters
    weigh -alpha and are named `f:<x>`; they get ids 1..k in name order, so
    that with alpha 0, where nothing is weighted, the solver's completion
    still tries them in name order; the z ids follow in `Fact._key` order.
    The caller asks only when q is derived with some cheap fact and not
    from the P1 facts alone, so some parameter is unflipped and flipping
    all of them is a model; `_run_solver` raises NotAModel if none is.
    """
    unflipped = [x for x in enc.an.params if x not in a]  # the clauses' order
    heads, bodies, enc0 = enc.cone.heads, enc.cone.bodies, enc.enc0
    f_ids = {x: i for i, x in enumerate(sorted(unflipped), 1)}
    facts = {enc0[x] for x in unflipped}
    for j in kept:
        facts.add(heads[j])
        facts.update(bodies[j])
    z_ids = {u: i for i, u in enumerate(sorted(facts), len(f_ids) + 1)}
    clauses = [tuple(f_ids[x] for x in unflipped)]
    clauses += [(f_ids[x], z_ids[enc0[x]]) for x in unflipped]
    for j in kept:
        clauses.append((z_ids[heads[j]],
                        *[-z_ids[b] for b in reversed(bodies[j])]))
    if kept:  # the slice keeps only arcs that reach q
        clauses.append((-z_ids[enc.q],))
    weights, names = {}, {}
    if enc.alpha != 0.0:
        for x, i in f_ids.items():
            weights[i] = -enc.alpha
            names[i] = "f:" + x
    inst = mx.ClauseInstance(len(f_ids) + len(z_ids), clauses, weights, names)
    model, _ = _run_solver(inst, cfg)
    return a.union([x for x in unflipped if f_ids[x] in model])


def _run_solver(inst: mx.ClauseInstance, cfg: RefineConfig):
    """The configured solver's (model, objective); NotAModel when the
    instance is unsatisfiable, which no refinement step's instance is."""
    solve = mx.solve_approx if cfg.solver == "approx" else mx.solve_exact
    result = solve(inst, budget=cfg.solver_budget)
    if result is None:
        raise NotAModel("refinement constraint unexpectedly unsatisfiable")
    return result


# the last solve's (weak reference to its analysis, query, the query's cone
# index): a run of solves of one query of one analysis, such as one per
# strategy, indexes the cone once.  The slot keeps no analysis alive and
# at most one cone, which no solve mutates, so concurrent solves share it;
# a solve reads the slot once and keeps the cone it read or built, so a
# race between threads costs at most another build
_NO_CONE = (lambda: None, None, None)
_last_cone = _NO_CONE


def _query_cone(an: Analysis, q: Fact) -> hg.Index:
    """The index of q's backward cone and of every parameter fact
    (`hg.Index.cone`), the last solve's when it solved q of this very
    analysis, whose frozen fields keep it valid."""
    global _last_cone
    ref, last_q, cone = _last_cone
    if ref() is an and last_q == q:
        return cone
    # the last cone goes before the next is built
    del cone
    _last_cone = _NO_CONE
    cone = hg.Index.cone(an.global_graph, q, itertools.chain(
        an.encode0.values(), an.encode1.values()))
    _last_cone = (weakref.ref(an), q, cone)
    return cone


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
    # theta is 1 everywhere unless the strategy is probabilistic
    hp = cfg.hyperparams if cfg.strategy == "probabilistic" else None

    # every step below decides only facts in q's cone, which each iteration
    # sweeps once from P0 | P1, the analysis under a, and from P1 alone: the
    # answer, the forward arcs and the slices to q; the cone is indexed once
    # for a run of solves of q of this analysis, and one encoding serves
    # every strategy, built only once an iteration reaches a solver
    cone = _query_cone(an, q)
    root, bodies = cone.ids[q], cone.bodies
    enc = None
    a = frozenset()
    trace = []
    iteration = 0
    while iteration < max_iters:
        iteration += 1
        entry = {"iteration": iteration, "flips": sorted(a)}
        trace.append(entry)
        p1 = encode_params(an, a, 1)
        reach, forward = cone.sweep([encode_params(an, a, 0) | p1, p1])
        if not reach[root] & 1:
            entry["answer"] = "yes"
            return RefineOutcome("yes", iteration, trace)
        if reach[root] & 2:
            entry["answer"] = "no"
            return RefineOutcome("no", iteration, trace)

        if enc is None:
            enc = Encoding(an, cone, q, hp, cfg.alpha)
        try:
            if cfg.strategy == "optimistic":
                # the derived arcs: their whole body is reached
                kept = cone.slice(
                    root, lambda j: all(reach[b] & 1 for b in bodies[j]))
                a2 = choose_optimistic(enc, kept, a, cfg)
                entry["chosen"] = sorted(a2)
            else:
                # the forward arcs from P0 | P1, all of them derived
                kept = cone.slice(root, lambda j: forward[j] & 1)
                phi = build_phi(enc, kept, a)
                model, objective = _run_solver(phi.inst, cfg)
                a2, log_success = decode_model(enc, model, phi, a)
                entry["chosen"] = sorted(a2)
                entry["objective"] = objective
                entry["log_success"] = log_success
        except BudgetExceeded:
            entry["answer"] = "limit"
            return RefineOutcome("limit", iteration, trace)
        a = a2
    if trace:
        trace[-1]["answer"] = "limit"
    return RefineOutcome("limit", iteration, trace)
