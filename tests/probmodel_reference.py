"""Reference sampling and query probabilities of `provrefine.probmodel`.

`sample` draws one random sub-hypergraph of a blueprint, and
`prob_query_reach_exact` and `prob_query_reach_mc` give the probability
that a query is reachable from a seed set in one, by enumerating every
sub-hypergraph and by sampling.  Only the tests use them.
"""

import math
import random
from typing import Iterable

from provrefine import hypergraph as hg
from provrefine.errors import OracleLimitExceeded
from provrefine.hypergraph import Fact, Hypergraph
from provrefine.probmodel import EXACT_ARC_LIMIT, ProbModel, _enumerate_subgraphs


def sample(m: ProbModel, rng: random.Random) -> Hypergraph:
    """One random sub-hypergraph; deterministic given the rng state."""
    kept = []
    for arc in m.blueprint.sorted_arcs():
        if rng.random() < m.params.get(arc.rule_type):
            kept.append(arc)
    return Hypergraph(kept)


def prob_query_reach_exact(m: ProbModel, q: Fact, t: Iterable[Fact],
                           limit: int = EXACT_ARC_LIMIT) -> float:
    """Probability that q is reachable from t, by full enumeration."""
    n = len(m.blueprint)
    if n > limit:
        raise OracleLimitExceeded(
            f"exact query probability over {n} arcs (limit {limit})")
    ts = frozenset(t)
    total = 0.0
    for chosen, p in _enumerate_subgraphs(m):
        if q in hg.reach(Hypergraph(chosen), ts):
            total += p
    return total


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
