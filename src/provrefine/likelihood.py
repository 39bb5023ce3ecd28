"""Likelihood of reachability observations under the random-subgraph model.

An observation records which projected facts were seeded (T) and which
were derived (R) in one analysis run.  A batch of them is one
bit-parallel `ObservationBatch`: each observation's T, and per fact the
mask of the observations whose R holds it.  `observe` builds it from one
sweep's masks and `parse_observations` from a file, and `bound_terms`
and `exact_likelihood` read its masks off it; no per-observation R set
is ever built.  The probability that a random sub-hypergraph H of the
blueprint, keeping each arc with its rule type's theta
(`probmodel.HyperParams`), reproduces a batch (reach(H, T_k) = R_k for
all k) is bounded below and above by products of per-head weighted
model counts.  `bound_terms` counts the refuted arcs of each rule type
and the heads of each distinct shape, read off its bit masks, and keeps
nothing else that only the tests would read (the field rule of
`tests/test_public_names.py`); `Bound` compiles each shape's count once
and evaluates it under any theta;
`exact_likelihood` enumerates every subset of the same index's arcs for
the exact value on small instances, with no graph built per subset.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from . import hypergraph as hg
from .analysis import Analysis, encode_params
from .errors import (ObservationOutOfRange, OracleLimitExceeded, ParseError,
                     SelfLoopArc)
from .probmodel import NEG_INF, HyperParams, validate_hyperparams

EXACT_ARC_LIMIT = 15  # exact_likelihood enumerates the subsets of at most this many arcs


class ObservationBatch:
    """A batch of observations, one bit per observation k.

    `t[k]` is observation k's seed set, and `rmask[f]`, per fact f in some
    r, the mask of the observations whose r holds f.  `bound_terms` reads
    its masks off this, and `observe` builds it from its sweep masks with
    no per-observation r set.
    """

    __slots__ = ("t", "rmask")

    def __init__(self, t: list, rmask: dict):
        self.t, self.rmask = t, rmask

    @classmethod
    def of(cls, obs: Iterable) -> "ObservationBatch":
        """The batch of (t, r) pairs, in order."""
        t, rmask = [], {}
        for k, (seeds, r) in enumerate(obs):
            t.append(frozenset(seeds))
            bit = 1 << k
            for f in r:
                rmask[f] = rmask.get(f, 0) | bit
        return cls(t, rmask)

    def consistent(self) -> bool:
        """Whether every observation's t lies in its r."""
        rmask = self.rmask
        return all(rmask.get(u, 0) >> k & 1
                   for k, t in enumerate(self.t) for u in t)


def observe(an: Analysis, abstractions: Iterable[frozenset]) -> ObservationBatch:
    """Run the analysis under each abstraction and project the outcomes.

    One `Index.sweep` of the analysis's cached index closes every
    abstraction's P1 facts at once; the facts reached by the same
    abstractions are projected together, once, and each fact of that
    image takes their mask.  Observation k's t is its projected seeds, so
    they take bit k too (a seed outside the index is in no sweep mask).
    r equals reach over local_provenance: reach(global, P1) lies in
    derive(a).
    """
    p1s = [encode_params(an, a, 1) for a in abstractions]
    reach, _ = an.index.sweep(p1s)
    by_mask = {}  # abstractions as a mask -> the facts they reach
    for f, m in zip(an.index.facts, reach):
        if m:
            by_mask.setdefault(m, []).append(f)
    rmask = {}
    for m, fs in by_mask.items():
        for f in an.projection.image(fs):
            rmask[f] = rmask.get(f, 0) | m
    t = [an.projection.image(p1) for p1 in p1s]
    for k, seeds in enumerate(t):
        bit = 1 << k
        for f in seeds:
            rmask[f] = rmask.get(f, 0) | bit
    return ObservationBatch(t, rmask)


@dataclass
class PerHead:
    """The lower-bound clauses of one derived fact h across observations:
    per k in C_h, the observations deriving h, A_h ∩ F_k, where A_h holds
    the arcs into h that no observation refutes."""

    lower_clauses: tuple


@dataclass
class BoundFormula:
    """The terms of both bounds over one blueprint.

    A head's shape is its clauses up to renaming arcs: (rule types,
    clauses), where the arcs some clause holds become positions in
    `Arc._key` order and each distinct clause is one frozenset of
    positions, so that every head of a shape has bit for bit the shape's
    weighted count.  `per_head` holds each candidate head's lower-bound
    clauses as arc sets, for the benchmark's tracer; it is built on first
    read, from the bit masks `bound_terms` keeps in `_masks`.  The refuted
    arcs, the candidates and the upper clauses as arc sets are not kept:
    nothing in the library reads them.
    """

    n_counts: dict  # rule type -> its refuted arcs, by first arc in key order
    lower_shapes: dict  # shape of A_h ∩ F_k -> heads, by first head in key order
    upper_shapes: dict  # shape of A_h ∩ D_k -> heads, likewise
    impossible: bool = False  # some observation had t ⊄ r
    _masks: tuple = field(default=None, repr=False, compare=False)

    @cached_property
    def per_head(self) -> dict:
        """Fact -> PerHead, in key order."""
        return _per_head(*self._masks) if self._masks else {}


def _blueprint_masks(index: hg.Index, obs: ObservationBatch) -> tuple:
    """(rmask, cmask) per fact id of the blueprint `index`: the bits of the
    observations whose r holds the fact, and of those that derive it
    (r - t).

    Refuses a self-loop arc of the blueprint, the least in key order
    named, and then an observation deriving a fact outside the blueprint,
    the least such fact of the first such observation named: the one check
    of every likelihood, bound or exact.
    """
    if any(map(tuple.__contains__, index.bodies, index.heads)):
        for h, body, arc in zip(index.heads, index.bodies, index.arcs):
            if h in body:  # the first in id order is the least in key order
                raise SelfLoopArc(arc)
    tmask = {}  # seed fact -> the observations it seeds
    for k, t in enumerate(obs.t):
        bit = 1 << k
        for u in t:
            tmask[u] = tmask.get(u, 0) | bit
    ids, n = index.ids, len(index.facts)
    rmask, cmask = [0] * n, [0] * n
    foreign = {}  # fact outside the blueprint -> the observations deriving it
    for f, m in obs.rmask.items():
        c = m & ~tmask.get(f, 0)
        i = ids.get(f)
        if i is not None:
            rmask[i], cmask[i] = m, c
        elif c:
            foreign[f] = c
    if foreign:
        first = 0
        for c in foreign.values():
            first |= c
        first &= -first
        f = min((f for f, c in foreign.items() if c & first), key=hg.Fact._key)
        raise ObservationOutOfRange(f"observation {first.bit_length()} derives "
                                    f"{f}, a fact foreign to the blueprint")
    return rmask, cmask


def bound_terms(index: hg.Index, obs: ObservationBatch) -> BoundFormula:
    """The refuted arcs' count per rule type and the per-head shapes of
    both bounds over the blueprint `index`.

    The one index serves every observation: from an analysis, the
    restriction of its index that `local_provenance` returns, so nothing
    is ranked again; from a graph with no analysis, `hg.Index` of its
    arcs.  `_blueprint_masks` refuses a self-loop arc and a foreign fact
    and reads, per fact, `rmask` (the k with the fact in r_k) and `cmask`
    (the k that derive it) off the batch.  Each arc holds one bit per
    observation k: W is the AND of its body facts' `rmask` (all ones for
    an empty body), so bit k of W says the body lies in r_k.  An arc is
    refuted iff W has a bit its head's `rmask` lacks; `dmask = W &
    cmask[head]` marks the D_k holding it, and `fmask`, that and the arcs
    forward from t_k, the F_k, all from one `Index.sweep` from every t_k.
    A head's clause for k is its candidates with bit k set, and its shape
    comes from those masks alone: a head with one candidate, as most are,
    keys by an integer code, its rule type and whether the candidate is in
    no, every or some clause, and each code becomes its shape once
    (`_counted`); a head with more has its shape built (`_head_shape`).
    """
    rmask, cmask = _blueprint_masks(index, obs)
    if not obs.consistent():
        return BoundFormula({}, {}, {}, impossible=True)

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
    type_ids = {}  # rule type -> its index, by first arc
    base = [3 * type_ids.setdefault(t, len(type_ids)) for t in types]
    lower, upper = [], []  # per head its shape, or its one candidate's code
    for _, c, a_h in _candidates(index, cmask, refuted):
        if len(a_h) == 1:  # three bit tests per bound
            j = a_h[0]
            d = w[j] & c
            m, b = d & fwd[j], base[j]
            lower.append(b if not m else b + 1 if m == c else b + 2)
            upper.append(b if not d else b + 1 if d == c else b + 2)
        else:
            dmask = [w[j] & c for j in a_h]
            fmask = [m & fwd[j] for m, j in zip(dmask, a_h)]
            lower.append(_head_shape(types, a_h, fmask, c))
            upper.append(_head_shape(types, a_h, dmask, c))
    n_counts = {}
    for j, bad in enumerate(refuted):
        if bad:
            n_counts[types[j]] = n_counts.get(types[j], 0) + 1
    names = list(type_ids)
    return BoundFormula(n_counts, _counted(lower, names), _counted(upper, names),
                        _masks=(index, cmask, refuted, fwd, w))


def _candidates(index: hg.Index, cmask: list, refuted: list):
    """(h, c, a_h) per fact h with arcs into it that some observation
    derives: c is its cmask and a_h its unrefuted arcs, in id order, which
    is key order.  A head's arcs are the ids from `first[h]` up to
    `first[h + 1]`; most heads have one, which is tested alone."""
    first = index.first
    for h, c in enumerate(cmask):
        if c:
            lo, hi = first[h], first[h + 1]
            if hi - lo == 1:
                yield h, c, [] if refuted[lo] else [lo]
            elif lo != hi:
                yield h, c, [j for j in range(lo, hi) if not refuted[j]]


_NO_ARC = ((), frozenset([frozenset()]))  # every clause empty
_ALWAYS = frozenset([frozenset([0])])  # one arc, in every clause
_SOMETIMES = frozenset([frozenset(), frozenset([0])])  # one arc, in some


def _counted(keys: list, names: list) -> dict:
    """Shape -> number of heads, by first head, from each head's key: its
    shape, or the code of its one candidate, 3 × the index in names of its
    rule type plus 0 if it is in no clause, 1 if in every clause, 2 if in
    some.  Each code becomes its shape once; codes and shapes that name
    one shape add up in the shape's place, its first head's."""
    out = {}
    for key, n in Counter(keys).items():
        if type(key) is int:
            t, k = divmod(key, 3)
            key = ((names[t],), _ALWAYS if k == 1 else _SOMETIMES) if k else _NO_ARC
        out[key] = out.get(key, 0) + n
    return out


def _head_shape(types: list, a_h: list, masks: list, c: int) -> tuple:
    """The shape of the clauses, one per bit k of c, where clause k holds
    the candidates a_h[i] with bit k in masks[i] (each within c).

    Only the arcs in some clause get a position, in the order of a_h, and
    equal clauses count once: the bits of c are split by each position's
    mask in turn, so each distinct clause is found once, with no pass per
    bit.
    """
    pos = [i for i, m in enumerate(masks) if m]
    parts = {0: c}  # clause, as a mask over positions -> the bits k it holds for
    for p, i in enumerate(pos):
        m, bit = masks[i], 1 << p
        split = {}
        for cl, ks in parts.items():
            if ks & m:
                split[cl | bit] = ks & m
            if ks & ~m:
                split[cl] = ks & ~m
        parts = split
    return (tuple(types[a_h[i]] for i in pos),
            frozenset(frozenset(p for p in range(len(pos)) if cl >> p & 1)
                      for cl in parts))


def _per_head(index: hg.Index, cmask: list, refuted: list, fwd: list,
              w: list) -> dict:
    """Each head's lower-bound clauses as arc sets, from `bound_terms`'
    masks: clause k holds the candidates whose bit k is set in `w & fwd`."""
    arcs, per_head = index.arcs, {}
    for h, c, a_h in _candidates(index, cmask, refuted):
        fmask = [w[j] & c & fwd[j] for j in a_h]
        per_head[index.facts[h]] = PerHead(tuple(
            frozenset(arcs[j] for j, m in zip(a_h, fmask) if m >> k & 1)
            for k in range(c.bit_length()) if c >> k & 1))
    return per_head


def _compile(clauses) -> tuple:
    """The weighted count of assignments satisfying a monotone CNF, as
    (root, steps) for `_run` to evaluate under any theta.

    Variables are arcs, or arc positions of a shape; variable v is true
    with probability theta[v], and variables outside every clause
    marginalize away.  Shannon expansion on the least variable, with
    memoization on the remaining clause set: each clause set gets a slot,
    0 for one holding the empty clause (count 0.0), 1 for the empty set
    (count 1.0), and i + 2 for the one that step i counts, `(var, on,
    off)`, from the slots of its branches with var true and with var
    false, which earlier steps fill.  The expansion runs on an explicit
    stack, as its depth grows with the number of variables: a clause set
    pushes its two branches, the one with the variable true on top,
    beneath them a tuple that makes its step once both have slots.
    """
    root = frozenset(frozenset(c) for c in clauses)
    slot, steps = {}, []
    stack = [root]
    while stack:
        cls = stack.pop()
        if type(cls) is tuple:
            cls, var, on, off = cls
            steps.append((var, slot[on], slot[off]))
            slot[cls] = len(steps) + 1
        elif cls not in slot:
            if not cls:
                slot[cls] = 1
            elif frozenset() in cls:
                slot[cls] = 0
            else:
                var = min(min(c) for c in cls)
                on = frozenset(c for c in cls if var not in c)
                off = frozenset(
                    (c - {var}) if var in c else c for c in cls)
                stack += ((cls, var, on, off), off, on)
    return slot[root], steps


def _run(compiled: tuple, theta) -> float:
    """The weighted count that `_compile` compiled, under theta."""
    root, steps = compiled
    val = [0.0, 1.0]
    for var, on, off in steps:
        p = theta[var]
        val.append(p * val[on] + (1.0 - p) * val[off])
    return val[root]


class Bound:
    """The lower or upper bound (`which`) of one or more `BoundFormula`s.

    Holds the refuted-arc count of each rule type (`n_counts`) and the
    distinct head shapes of the formulas, in formula order, each with its
    count compiled once (`_compile`) and the number of heads it stands for
    (`shapes`), so a sum counts once per shape rather than once per head.
    """

    def __init__(self, formulas: Iterable[BoundFormula], which: str):
        self.impossible = False
        self.n_counts = {}
        multiplicity = {}  # shape -> number of heads
        for bf in formulas:
            self.impossible |= bf.impossible
            for k, n in bf.n_counts.items():
                self.n_counts[k] = self.n_counts.get(k, 0) + n
            shapes = bf.lower_shapes if which == "lower" else bf.upper_shapes
            for shape, m in shapes.items():
                multiplicity[shape] = multiplicity.get(shape, 0) + m
        self.shapes = [(types, _compile(clauses), m)
                       for (types, clauses), m in multiplicity.items()]

    def terms(self, hp: HyperParams, types: Iterable[str], shape_ids) -> float:
        """Sum of n · log(1 - theta) over the refuted types `types` plus
        m · log(value) over the shapes `shape_ids`, or -inf."""
        if self.impossible:
            return NEG_INF
        total = 0.0
        for k in types:
            t = hp.get(k)
            if t >= 1.0:
                return NEG_INF
            total += self.n_counts[k] * math.log1p(-t)
        shapes = 0.0
        for i in shape_ids:
            types_i, compiled, m = self.shapes[i]
            v = _run(compiled, [hp.get(k) for k in types_i])
            if v <= 0.0:
                return NEG_INF
            shapes += m * math.log(v)
        return total + shapes

    def value(self, hp: HyperParams) -> float:
        return self.terms(hp, self.n_counts, range(len(self.shapes)))


def lower_bound(bf: BoundFormula, hp: HyperParams) -> float:
    return Bound([bf], "lower").value(hp)


def upper_bound(bf: BoundFormula, hp: HyperParams) -> float:
    return Bound([bf], "upper").value(hp)


def exact_likelihood(index: hg.Index, obs: ObservationBatch,
                     hp: HyperParams) -> float:
    """Log-probability by enumerating every subset of the blueprint
    `index`'s arc ids (key order), after the bounds' own check of the
    blueprint and the observations.  With t in r and no foreign fact
    derived, reach(subset, t) = r iff `run` reaches the ids of r."""
    rmask, _ = _blueprint_masks(index, obs)
    if not obs.consistent():
        return NEG_INF
    n = len(index.arcs)
    if n > EXACT_ARC_LIMIT:
        raise OracleLimitExceeded(
            f"exact likelihood over {n} arcs (limit {EXACT_ARC_LIMIT})")
    validate_hyperparams(hp, index)
    theta = [hp.get(arc.rule_type) for arc in index.arcs]
    r_ids = [{i for i, m in enumerate(rmask) if m >> k & 1}
             for k in range(len(obs.t))]
    total = 0.0
    for mask in range(1 << n):
        p = 1.0
        chosen = []
        for j in range(n):
            if mask >> j & 1:
                p *= theta[j]
                chosen.append(j)
            else:
                p *= 1.0 - theta[j]
        if p > 0.0 and all(index.run(t, chosen).keys() == r
                           for t, r in zip(obs.t, r_ids)):
            total += p
    return math.log(total) if total > 0.0 else NEG_INF


# ---------------------------------------------------------------------------
# observation text format


def parse_observations(text: str) -> ObservationBatch:
    """Blocks of `obs` / `T: facts` / `R: facts`; facts as in parse_facts."""
    out = []  # (t, r) per observation
    cur = {}  # "T:" / "R:" -> the facts of the current block
    start = 0  # the first line of the current block, 0 before the first

    def flush():
        if start and len(cur) < 2:
            raise ParseError(start, "observation missing T: or R: line" if cur
                             else "observation has no T: or R: line")
        if cur:
            out.append((cur.pop("T:"), cur.pop("R:")))

    def entry(lineno, line):
        nonlocal start
        if line == "obs":
            flush()
            start = lineno
        elif line[:2] in ("T:", "R:"):
            if line[:2] in cur:
                raise ValueError(f"second {line[:2]} line in one observation")
            cur[line[:2]] = hg.parse_facts(line[2:])
            start = start or lineno  # a first block without its `obs`
        else:
            raise ValueError(f"unexpected line {line!r}")

    hg.read_lines(text, entry)
    flush()
    return ObservationBatch.of(out)
