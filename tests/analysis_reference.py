"""Reference checks of the paper's preconditions on an analysis.

`check_monotone` (derived queries shrink as parameters become precise)
and `check_predictable` (a witness sub-hypergraph of the cheap provenance
reproduces every projected run) are exponential oracles over the
abstraction lattice; only the tests use them, to validate fixtures.
"""

from typing import Optional

from provrefine import hypergraph as hg
from provrefine.analysis import (Analysis, derive, encode_params,
                                 local_provenance, project_set)
from provrefine.errors import OracleLimitExceeded
from provrefine.hypergraph import Hypergraph


def check_monotone(an: Analysis, limit: int = 12) -> bool:
    """Derived queries shrink along the lattice (checked on covering pairs)."""
    if len(an.params) > limit:
        raise OracleLimitExceeded(
            f"monotonicity oracle over {len(an.params)} parameters (limit {limit})")
    derived_q = {}
    for a in an.all_abstractions():
        derived_q[a] = an.queries & derive(an, a)
    for a in derived_q:
        for p in an.params:
            if a.value(p) == 0:
                a2 = a.with_flips([p])
                if not derived_q[a] >= derived_q[a2]:
                    return False
    return True


def check_predictable(an: Analysis, param_limit: int = 12,
                      arc_limit: int = 4096) -> Optional[Hypergraph]:
    """Search for a witness sub-hypergraph of the cheap provenance.

    The witness H must satisfy, for every abstraction a,
    projection(reach under the precise provenance from P1(a)) equals
    reach under H from the projected P1(a).  Greedy: start from the
    whole cheap provenance, remove arcs any observation forces out,
    then verify; return None on verification failure.
    """
    if len(an.params) > param_limit:
        raise OracleLimitExceeded(
            f"predictability oracle over {len(an.params)} parameters")
    g_bot = local_provenance(an, an.bottom())
    if len(g_bot) > arc_limit:
        raise OracleLimitExceeded(
            f"predictability oracle over {len(g_bot)} arcs")
    g_top = local_provenance(an, an.top())

    observations = []
    for a in an.all_abstractions():
        p1 = encode_params(an, a, 1)
        r = project_set(an, hg.reach(g_top, p1))
        observations.append((project_set(an, p1), r))

    keep = set(g_bot.arcs)
    for _, r in observations:
        for arc in list(keep):
            if arc.body <= r and arc.head not in r:
                keep.discard(arc)
    h = Hypergraph(keep)
    for t, r in observations:
        if hg.reach(h, t) != r:
            return None
    return h
