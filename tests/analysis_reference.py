"""Reference checks of the paper's preconditions on an analysis, and the
analysis helpers only the tests use.

`check_monotone` (derived queries shrink as parameters become precise)
and `check_predictable` (a witness sub-hypergraph of the cheap provenance
reproduces every projected run) are exponential oracles over the
abstraction lattice; only the tests use them, to validate fixtures.

An abstraction is the frozenset of the parameters it makes precise:
`frozenset()` is the all-cheap one and `frozenset(an.params)` the
all-precise one.  `all_abstractions` lists every abstraction of an
analysis, and `save_manifest` writes an analysis as the manifest and
provenance files that `solve` and `learn` read.
"""

import os
from typing import Optional

from provrefine import hypergraph as hg
from provrefine.analysis import Analysis, Projection, derive, encode_params
from provrefine.errors import OracleLimitExceeded
from provrefine.hypergraph import Fact, Hypergraph


def all_abstractions(an: Analysis):
    """Every abstraction of an, as the frozenset of its precise parameters,
    the bits of mask i choosing from an.params for i = 0, 1, ..."""
    n = len(an.params)
    for mask in range(1 << n):
        yield frozenset(p for i, p in enumerate(an.params) if mask >> i & 1)


def directive_lines(projection: Projection) -> list:
    out = []
    for rel in sorted(projection.rules):
        rule = projection.rules[rel]
        if rule in ("identity", "drop"):
            out.append(f"{rel} {rule}")
        else:
            target, indices = rule
            vars_ = [f"A{i}" for i in range(max(indices, default=-1) + 1)]
            lhs = f"{rel}({','.join(vars_)})"
            rhs = f"{target}({','.join(vars_[i] for i in indices)})"
            out.append(f"{lhs} -> {rhs}")
    out.append(f"default {projection.default}")
    return out


def serialize_manifest(an: Analysis, provenance_file: str) -> str:
    """Manifest text referring to an already-serialized provenance file."""
    lines = ["params:"]
    for x in an.params:
        lines.append(f"{x} encode0={an.encode0[x]} encode1={an.encode1[x]}")
    lines.append("queries:")
    lines.extend(str(q) for q in sorted(an.queries, key=Fact._key))
    lines.append("projection:")
    lines.extend(directive_lines(an.projection))
    lines.append(f"provenance: {provenance_file}")
    return "\n".join(lines) + "\n"


def save_manifest(an: Analysis, manifest_path: str, provenance_path: str) -> None:
    with open(provenance_path, "w") as fh:
        fh.write(hg.serialize_provenance(an.global_graph))
    rel = os.path.relpath(provenance_path,
                          os.path.dirname(manifest_path) or ".")
    with open(manifest_path, "w") as fh:
        fh.write(serialize_manifest(an, rel))


def check_monotone(an: Analysis, limit: int = 12) -> bool:
    """Derived queries shrink along the lattice (checked on covering pairs)."""
    if len(an.params) > limit:
        raise OracleLimitExceeded(
            f"monotonicity oracle over {len(an.params)} parameters (limit {limit})")
    derived_q = {}
    for a in all_abstractions(an):
        derived_q[a] = an.queries & derive(an, a)
    for a in derived_q:
        for p in an.params:
            if p not in a and not derived_q[a] >= derived_q[a | {p}]:
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
    g_bot = hg.induced(an.global_graph, derive(an, frozenset()))
    if len(g_bot.arcs) > arc_limit:
        raise OracleLimitExceeded(
            f"predictability oracle over {len(g_bot.arcs)} arcs")
    g_top = hg.induced(an.global_graph, derive(an, frozenset(an.params)))

    observations = []
    for a in all_abstractions(an):
        p1 = encode_params(an, a, 1)
        r = an.projection.image(hg.reach(g_top, p1))
        observations.append((an.projection.image(p1), r))

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
