"""Reference model, sampling and query probabilities of the random
sub-provenance model that `provrefine.probmodel`'s theta table describes.

`ProbModel` pairs a blueprint with a theta table it validates, and
`log_prob_of` and `prob_of` give the probability of one sub-hypergraph.
`sample` draws one random sub-hypergraph of a blueprint, and
`prob_query_reach_exact` and `prob_query_reach_mc` give the probability
that a query is reachable from a seed set in one, by enumerating every
sub-hypergraph and by sampling.  Only the tests use them.
"""

import math
import random
from dataclasses import dataclass
from typing import Iterable

from provrefine import hypergraph as hg
from provrefine.errors import OracleLimitExceeded, ProvRefineError
from provrefine.hypergraph import Arc, Fact, Hypergraph
from provrefine.likelihood import EXACT_ARC_LIMIT
from provrefine.probmodel import NEG_INF, HyperParams, validate_hyperparams

from conftest import all_subgraph_probability


class NotSubgraph(ProvRefineError):
    """A hypergraph was expected to be a subgraph of the model blueprint."""


def log_theta(hp: HyperParams, rule_type: str) -> float:
    t = hp.get(rule_type)
    return math.log(t) if t > 0.0 else NEG_INF


def log_one_minus(hp: HyperParams, rule_type: str) -> float:
    t = hp.get(rule_type)
    return math.log1p(-t) if t < 1.0 else NEG_INF


@dataclass
class ProbModel:
    blueprint: Hypergraph
    params: HyperParams

    def __post_init__(self):
        validate_hyperparams(self.params, self.blueprint)


def log_prob_of(m: ProbModel, h: Hypergraph) -> float:
    if not h.arcs <= m.blueprint.arcs:
        raise NotSubgraph("hypergraph is not a subgraph of the blueprint")
    total = 0.0
    for arc in m.blueprint.arcs:
        if arc in h.arcs:
            total += log_theta(m.params, arc.rule_type)
        else:
            total += log_one_minus(m.params, arc.rule_type)
    return total


def prob_of(m: ProbModel, h: Hypergraph) -> float:
    lp = log_prob_of(m, h)
    return math.exp(lp) if lp > NEG_INF else 0.0


def sample(m: ProbModel, rng: random.Random) -> Hypergraph:
    """One random sub-hypergraph; deterministic given the rng state."""
    kept = []
    for arc in sorted(m.blueprint.arcs, key=Arc._key):
        if rng.random() < m.params.get(arc.rule_type):
            kept.append(arc)
    return Hypergraph(kept)


def prob_query_reach_exact(m: ProbModel, q: Fact, t: Iterable[Fact],
                           limit: int = EXACT_ARC_LIMIT) -> float:
    """Probability that q is reachable from t, by full enumeration."""
    n = len(m.blueprint.arcs)
    if n > limit:
        raise OracleLimitExceeded(
            f"exact query probability over {n} arcs (limit {limit})")
    ts = frozenset(t)
    return all_subgraph_probability(
        m.blueprint, m.params.theta,
        lambda chosen: q in hg.reach(Hypergraph(chosen), ts))


def prob_query_reach_mc(m: ProbModel, q: Fact, t: Iterable[Fact],
                        trials: int, rng: random.Random):
    """Monte Carlo estimate; returns (estimate, standard error)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    ts = frozenset(t)
    hits = 0
    for _ in range(trials):
        if q in hg.reach(sample(m, rng), ts):
            hits += 1
    p = hits / trials
    stderr = math.sqrt(p * (1.0 - p) / trials)
    return p, stderr
