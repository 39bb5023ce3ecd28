"""Reference observations, bound terms and bounds: one closure per
abstraction, one full arc scan and one `forward_arcs` per observation, one
weighted model count per head.

The straightforward versions of `provrefine.likelihood.observe`, kept as
the oracle its one bit-parallel sweep per batch is checked against, of
`bound_terms`, kept as the oracle its integer index and its shapes built
from bit masks are checked against, and of its bounds, kept as the oracle
the shape-compiled `likelihood.Bound` is checked against.  The
observations must be equal, in order; the bound terms must have the same
exceptions and equal per-head lower clauses, in order, and `shapes` and
`n_counts` of the reference terms must equal the shape maps and refuted
counts of the fast ones, in order; the bounds must agree to rounding,
with the same -inf.  Only the reference `Formula` holds the refuted arcs
and each head's candidates and upper clauses: the fast terms keep what
the bounds and the tracer read, so the tests read the rest off the
reference, and the oracles here take their terms from the reference, not
from the code they check.

`wmc_clauses` is the Shannon expansion over frozensets that
`likelihood._compile` compiles; its counts must equal the compiled ones
bit for bit.  `ShapeBound` is the bound as it was before the shapes came
from bit masks: one `shape` per head of each formula's `per_head`, counted
by `wmc_clauses` at every evaluation.

`Observation` is one observation as two fact sets, the form these
references take and give; `observations` lists a batch's observations in
that form, and `same_batch` compares two batches.

`head_shapes` counts the shapes of `bound_terms` with one shape tuple
built per head, the oracle its coded one-candidate heads are checked
against: equal shape maps and refuted counts, in order.  Its
`head_shape` finds a head's distinct clauses with one pass over the
candidates per observation, the oracle of `likelihood._head_shape`,
which splits the observations by each candidate's mask.

`serialize_observations` writes observations in the text format
`provrefine.likelihood.parse_observations` reads; only the tests write
observation files.
"""

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from provrefine import hypergraph as hg
from provrefine.analysis import (Abstraction, Analysis, encode_params,
                                 project_set)
from provrefine.errors import ObservationOutOfRange, SelfLoopArc
from provrefine import likelihood as lk
from provrefine.hypergraph import Arc, Fact, Hypergraph
from provrefine.probmodel import NEG_INF, HyperParams

from probmodel_reference import log_one_minus


class Observation(NamedTuple):
    """One training event, seeded facts t and derived facts r (projected)."""

    t: frozenset
    r: frozenset


def observations(batch: lk.ObservationBatch) -> list:
    """The batch's observations as `Observation`s, in order."""
    rs = [set() for _ in batch.t]
    for f, m in batch.rmask.items():
        for k in range(m.bit_length()):
            if m >> k & 1:
                rs[k].add(f)
    return [Observation(t, frozenset(r)) for t, r in zip(batch.t, rs)]


def same_batch(a: lk.ObservationBatch, b: lk.ObservationBatch) -> bool:
    """Whether two batches hold the same observations, in order."""
    return a.t == b.t and a.rmask == b.rmask


def observe(an: Analysis, a: Abstraction) -> Observation:
    """Run the analysis under a and project the outcome."""
    p1 = encode_params(an, a, 1)
    t = project_set(an, p1)
    # equals reach over local_provenance: reach(global, P1) lies in derive(a)
    r = project_set(an, [*p1, *map(an.index.facts.__getitem__, an.index.run(p1))])
    return Observation(t=t, r=r)


class PerHead(NamedTuple):
    """The constraints on one derived fact h across observations."""

    candidates: frozenset  # A_h: arcs headed h that were never refuted
    lower_clauses: tuple  # per k in C_h (observations deriving h): A_h ∩ F_k
    upper_clauses: tuple  # per k in C_h: A_h ∩ D_k


@dataclass
class Formula:
    """The refuted arcs and each derived head's clauses, as arc sets."""

    negated_arcs: frozenset
    per_head: dict  # Fact -> PerHead, in key order
    impossible: bool = False


def bound_terms(g_bot: Hypergraph, obs: Iterable[Observation]) -> Formula:
    obs = list(obs)
    for arc in sorted(g_bot.arcs, key=Arc._key):  # the least self-loop arc in key order
        if arc.head in arc.body:
            raise SelfLoopArc(arc)
    for k, o in enumerate(obs, start=1):
        foreign = sorted(o.r - o.t - g_bot.vertices, key=Fact._key)
        if foreign:  # the least in key order, whatever the hash seed
            raise ObservationOutOfRange(
                f"observation {k} derives {foreign[0]}, a fact foreign to "
                "the blueprint")
    if any(not o.t <= o.r for o in obs):
        return Formula(frozenset(), {}, impossible=True)

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
    return Formula(frozenset(negated), per_head)


def shape(clauses: tuple) -> tuple:
    """A head's clauses up to renaming arcs: (rule types, clauses).

    Arcs become positions numbered in `Arc._key` order, so the count
    branches on the same arc as over the arcs themselves and every head of
    one shape has bit for bit the shape's value.  Repeated clauses count
    once, as they do in the weighted count.  A single arc needs no sort.
    """
    distinct = set(clauses)
    arcs = set().union(*distinct)
    if len(arcs) > 1:
        arcs = sorted(arcs, key=Arc._key)
    pos = {arc: i for i, arc in enumerate(arcs)}
    return (tuple(a.rule_type for a in arcs),
            frozenset(frozenset(pos[a] for a in c) for c in distinct))


def shapes(bf: Formula, which: str) -> dict:
    """Shape -> number of heads, by first head in `per_head` order."""
    out = {}
    for ph in bf.per_head.values():
        s = shape(ph.lower_clauses if which == "lower" else ph.upper_clauses)
        out[s] = out.get(s, 0) + 1
    return out


def head_shapes(index: hg.Index, obs: lk.ObservationBatch) -> tuple:
    """(lower_shapes, upper_shapes, n_counts) of `likelihood.bound_terms`
    as it counted them before the heads with one candidate were coded: a
    shape tuple built and hashed per head, `one_arc_shape` for a head with
    one candidate and `head_shape` for the others, counted by first head;
    refuted rule types by first refuted arc in key order.  For a batch
    that `bound_terms` neither refuses nor finds impossible."""
    rmask, cmask = lk._blueprint_masks(index, obs)
    fwd = index.sweep(obs.t)[1]
    full = (1 << len(obs.t)) - 1
    heads, w = index.heads, []
    for body in index.bodies:
        m = full
        for b in body:
            m &= rmask[b]
        w.append(m)
    refuted = [w[j] & ~rmask[h] for j, h in enumerate(heads)]

    types = [arc.rule_type for arc in index.arcs]
    lower, upper = {}, {}
    for _, c, a_h in lk._candidates(index, cmask, refuted):
        if len(a_h) == 1:  # three bit tests per bound
            j = a_h[0]
            d = w[j] & c
            lo = one_arc_shape(types[j], d & fwd[j], c)
            up = one_arc_shape(types[j], d, c)
        else:
            dmask = [w[j] & c for j in a_h]
            fmask = [m & fwd[j] for m, j in zip(dmask, a_h)]
            lo = head_shape(types, a_h, fmask, c)
            up = head_shape(types, a_h, dmask, c)
        lower[lo] = lower.get(lo, 0) + 1
        upper[up] = upper.get(up, 0) + 1
    refuted_types = {}
    for j, bad in enumerate(refuted):
        if bad:
            refuted_types[types[j]] = refuted_types.get(types[j], 0) + 1
    return lower, upper, refuted_types


def one_arc_shape(rule_type: str, m: int, c: int) -> tuple:
    """The shape of a head's clauses when it has one candidate, of type
    rule_type, in the clauses of the bits of m (within c)."""
    if not m:
        return ((), frozenset([frozenset()]))
    return (rule_type,), frozenset([frozenset([0])] if m == c
                                   else [frozenset(), frozenset([0])])


def head_shape(types: list, a_h: list, masks: list, c: int) -> tuple:
    """The shape of the clauses, one per bit k of c, where clause k holds
    the candidates a_h[i] with bit k in masks[i] (each within c): one
    pass over the candidates per bit.

    Only the arcs in some clause get a position, in the order of a_h, and
    equal clauses count once.
    """
    distinct = set()  # each clause as a mask over the candidates
    for k in range(c.bit_length()):
        if c >> k & 1:
            distinct.add(sum(1 << i for i, m in enumerate(masks) if m >> k & 1))
    used = 0
    for cl in distinct:
        used |= cl
    pos = [i for i in range(len(a_h)) if used >> i & 1]
    return (tuple(types[a_h[i]] for i in pos),
            frozenset(frozenset(p for p, i in enumerate(pos) if cl >> i & 1)
                      for cl in distinct))


def n_counts(bf: Formula) -> dict:
    """Rule type -> refuted arcs of it, by first refuted arc in key order."""
    out = {}
    for arc in sorted(bf.negated_arcs, key=Arc._key):
        out[arc.rule_type] = out.get(arc.rule_type, 0) + 1
    return out


def wmc_clauses(clauses, theta) -> float:
    """Weighted count of assignments satisfying a monotone CNF.

    Variable v is true with probability theta[v].  Shannon expansion on
    the least variable, with memoization on the remaining clause set, on
    an explicit stack: a clause set pushes its two branches, the one with
    the variable true on top, beneath them a tuple that sums their values
    once both are counted.
    """
    root = frozenset(frozenset(c) for c in clauses)
    memo = {}
    stack = [root]
    while stack:
        cls = stack.pop()
        if type(cls) is tuple:
            cls, p, on, off = cls
            memo[cls] = p * memo[on] + (1.0 - p) * memo[off]
        elif cls not in memo:
            if not cls:
                memo[cls] = 1.0
            elif frozenset() in cls:
                memo[cls] = 0.0
            else:
                var = min(min(c) for c in cls)
                on = frozenset(c for c in cls if var not in c)
                off = frozenset(
                    (c - {var}) if var in c else c for c in cls)
                stack += ((cls, theta[var], on, off), off, on)
    return memo[root]


class ShapeBound(lk.Bound):
    """`likelihood.Bound` from the reference formulas' `per_head`: one
    `shape` per head, counted by `wmc_clauses` at each evaluation."""

    def __init__(self, formulas, which: str):
        self.impossible = False
        self.n_counts = {}
        multiplicity = {}
        for bf in formulas:
            self.impossible |= bf.impossible
            for k, n in n_counts(bf).items():
                self.n_counts[k] = self.n_counts.get(k, 0) + n
            for s, m in shapes(bf, which).items():
                multiplicity[s] = multiplicity.get(s, 0) + m
        self.shapes = [(types, clauses, m)
                       for (types, clauses), m in multiplicity.items()]

    def terms(self, hp: HyperParams, types, shape_ids) -> float:
        if self.impossible:
            return NEG_INF
        total = 0.0
        for k in types:
            t = hp.get(k)
            if t >= 1.0:
                return NEG_INF
            total += self.n_counts[k] * math.log1p(-t)
        values = 0.0
        for i in shape_ids:
            types_i, clauses, m = self.shapes[i]
            v = wmc_clauses(clauses, [hp.get(k) for k in types_i])
            if v <= 0.0:
                return NEG_INF
            values += m * math.log(v)
        return total + values


def bound(bf: Formula, hp: HyperParams, which: str) -> float:
    """The lower or upper bound (`which`) of a reference formula: one
    weighted count per head."""
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
        value = wmc_clauses(clauses, theta_cache)
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
