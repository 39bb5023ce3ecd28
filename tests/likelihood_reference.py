"""Reference observations, bound terms and bounds: one closure per
abstraction, one full arc scan and one `forward_arcs` per observation, one
weighted model count per head.

The straightforward versions of `provrefine.likelihood.observe`, kept as
the oracle its one bit-parallel sweep per batch is checked against, of
`bound_terms`, kept as the oracle its integer index is checked against,
and of its bounds, kept as the oracle the shape-compiled `likelihood.Bound`
is checked against.  The observations must be equal, in order; the bound
terms must be equal `BoundFormula`s with the same exceptions; the bounds
must agree to rounding, with the same -inf.

`serialize_observations` writes observations in the text format
`provrefine.likelihood.parse_observations` reads; only the tests write
observation files.
"""

import math
from typing import Iterable

from provrefine import hypergraph as hg
from provrefine.analysis import (Abstraction, Analysis, encode_params,
                                 project_set)
from provrefine.errors import ObservationOutOfRange, SelfLoopArc
from provrefine.hypergraph import Fact, Hypergraph
from provrefine.likelihood import (BoundFormula, Observation, PerHead,
                                   _wmc_clauses)
from provrefine.probmodel import NEG_INF, HyperParams

from probmodel_reference import log_one_minus


def observe(an: Analysis, a: Abstraction) -> Observation:
    """Run the analysis under a and project the outcome."""
    p1 = encode_params(an, a, 1)
    t = project_set(an, p1)
    # equals reach over local_provenance: reach(global, P1) lies in derive(a)
    r = project_set(an, [*p1, *map(an.index.facts.__getitem__, an.index.run(p1))])
    return Observation(t=t, r=r)


def bound_terms(g_bot: Hypergraph, obs: Iterable[Observation]) -> BoundFormula:
    obs = list(obs)
    for arc in g_bot.sorted_arcs():  # the least self-loop arc in key order
        if arc.head in arc.body:
            raise SelfLoopArc(str(arc))
    for o in obs:
        if not o.r - o.t <= g_bot.vertices:
            raise ObservationOutOfRange(
                "observation derives facts foreign to the blueprint")
    if any(not o.consistent() for o in obs):
        return BoundFormula(frozenset(), {}, impossible=True)

    negated = set()
    for o in obs:
        for arc in g_bot.arcs:
            if arc.body <= o.r and arc.head not in o.r:
                negated.add(arc)

    by_head = {}
    for arc in g_bot.arcs:
        by_head.setdefault(arc.head, set()).add(arc)

    d_sets = [frozenset(a for a in g_bot.arcs if a.body <= o.r) for o in obs]
    f_sets = [d_k & hg.forward_arcs(g_bot, o.t).arcs
              for o, d_k in zip(obs, d_sets)]

    per_head = {}
    for h in sorted(by_head, key=Fact._key):
        c_h = tuple(k for k, o in enumerate(obs) if h in o.r - o.t)
        if not c_h:
            continue
        a_h = frozenset(by_head[h]) - negated
        per_head[h] = PerHead(
            candidates=a_h,
            lower_clauses=tuple(a_h & f_sets[k] for k in c_h),
            upper_clauses=tuple(a_h & d_sets[k] for k in c_h),
        )
    return BoundFormula(frozenset(negated), per_head)


def bound(bf: BoundFormula, hp: HyperParams, which: str) -> float:
    if bf.impossible:
        return NEG_INF
    total = 0.0
    for arc in bf.negated_arcs:
        lg = log_one_minus(hp, arc.rule_type)
        if lg == NEG_INF:
            return NEG_INF
        total += lg
    theta_cache = {}
    for h, ph in bf.per_head.items():
        clauses = ph.lower_clauses if which == "lower" else ph.upper_clauses
        for arc in ph.candidates:
            theta_cache[arc] = hp.get(arc.rule_type)
        value = _wmc_clauses(clauses, theta_cache)
        if value <= 0.0:
            return NEG_INF
        total += math.log(value)
    return total


def serialize_observations(obs: Iterable[Observation]) -> str:
    lines = []
    for o in obs:
        lines.append("obs\n")
        lines.append("T: " + " ".join(str(f) for f in sorted(o.t, key=Fact._key)) + "\n")
        lines.append("R: " + " ".join(str(f) for f in sorted(o.r, key=Fact._key)) + "\n")
    return "".join(lines)
