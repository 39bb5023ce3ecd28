"""Maximum-likelihood fitting of per-rule survival probabilities.

Observations from several programs are merged as if they came from one
larger program (disjoint groups, one blueprint each).  The optimizer is
cyclic coordinate ascent on the likelihood lower bound, the shape-compiled
`likelihood.Bound` of the groups' bound terms: each rule type's theta in
turn is improved by a deterministic 1-D line search.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable

from . import hypergraph as hg
from . import likelihood as lk
from .analysis import Analysis
from .errors import ProvRefineError
from .probmodel import NEG_INF, HyperParams

EPSILON = 1e-6  # the least theta learn fits
CYCLE_TOL = 1e-7  # learn stops after a cycle that gains less
SEARCH_TOL = 1e-6  # line_search narrows its bracket to this width
MAX_CYCLES = 100  # learn stops after this many cycles in any case


@dataclass
class ObservationGroup:
    """Observations sharing one blueprint (one program), an index:
    `Analysis.blueprint` for a sampled group, and the observations as one
    `likelihood.ObservationBatch`."""

    blueprint: hg.Index
    observations: lk.ObservationBatch


@dataclass
class TrainingSet:
    groups: list = field(default_factory=list)

    def rule_types(self) -> set:
        return {arc.rule_type for g in self.groups for arc in g.blueprint.arcs}

    def bound_terms(self) -> list:
        """Each group's `likelihood.bound_terms`, in group order."""
        return [lk.bound_terms(g.blueprint, g.observations) for g in self.groups]

    @staticmethod
    def merge(parts: Iterable["TrainingSet"]) -> "TrainingSet":
        merged = TrainingSet()
        for ts in parts:
            merged.groups.extend(ts.groups)
        return merged


def sample_training(an: Analysis, n: int, max_flips: int,
                    rng: random.Random) -> TrainingSet:
    """n observations from random abstractions, each the frozenset of the
    1..max_flips parameters it makes precise, in one group over the
    analysis's one blueprint (`Analysis.blueprint`)."""
    if n < 1:
        raise ValueError("need at least one sample")
    if max_flips < 1:
        raise ValueError("max_flips must be >= 1")
    if not an.params:
        raise ValueError("the analysis has no parameters to flip")
    max_flips = min(max_flips, len(an.params))
    abstractions = [frozenset(rng.sample(an.params, rng.randint(1, max_flips)))
                    for _ in range(n)]
    return TrainingSet([ObservationGroup(an.blueprint, lk.observe(an, abstractions))])


class _Objective(lk.Bound):
    """The lower bound of a training set's bound terms, plus the types some
    term constrains (`constrained`) and the shapes that mention each type
    (`heads_of_type`), the only ones a change of its theta re-evaluates."""

    def __init__(self, formulas: Iterable[lk.BoundFormula]):
        super().__init__(formulas, "lower")
        if self.impossible:
            raise ValueError("training observation with T not within R")
        self.heads_of_type = {k: [] for k in self.n_counts}
        for i, (types, _, _) in enumerate(self.shapes):
            for k in set(types):
                self.heads_of_type.setdefault(k, []).append(i)
        self.constrained = set(self.heads_of_type)

    def coordinate_function(self, k: str, hp: HyperParams) -> Callable[[float], float]:
        """Objective as a function of theta_k, up to a constant."""
        refuted = [k] if k in self.n_counts else []
        shape_ids = self.heads_of_type.get(k, [])

        def f(t: float) -> float:
            trial = hp.copy()
            trial.theta[k] = t
            return self.terms(trial, refuted, shape_ids)

        return f


def line_search(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Deterministic 1-D maximization on [lo, hi].

    Golden-section narrowing followed by a quadratic refinement; the
    endpoints always compete, and exact ties go to the leftmost point.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    evals = {}

    def ev(x: float) -> float:
        if x not in evals:
            evals[x] = f(x)
        return evals[x]

    a, b = lo, hi
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    while b - a > SEARCH_TOL:
        if ev(c) >= ev(d):
            b, d = d, c
            c = b - gr * (b - a)
        else:
            a, c = c, d
            d = a + gr * (b - a)
    ev(lo)
    ev(hi)

    # quadratic refinement around the incumbent, when it is interior
    best = max(sorted(evals), key=lambda x: evals[x])
    near = sorted(evals)
    i = near.index(best)
    if 0 < i < len(near) - 1:
        x0, x1, x2 = near[i - 1], near[i], near[i + 1]
        y0, y1, y2 = evals[x0], evals[x1], evals[x2]
        if all(y > NEG_INF for y in (y0, y1, y2)):
            denom = (x1 - x0) * (y1 - y2) - (x1 - x2) * (y1 - y0)
            if abs(denom) > 1e-300:
                vertex = x1 - 0.5 * ((x1 - x0) ** 2 * (y1 - y2)
                                     - (x1 - x2) ** 2 * (y1 - y0)) / denom
                if lo <= vertex <= hi:
                    ev(vertex)

    best_val = max(evals.values())
    return min(x for x, y in evals.items() if y == best_val)


def learn(ts: TrainingSet) -> HyperParams:
    """Fit hyperparameters by cyclic coordinate ascent on the lower bound,
    from theta = 0.5 on every constrained type."""
    return _fit(_Objective(ts.bound_terms()), ts.rule_types())


def _fit(objective: _Objective, all_types: set) -> HyperParams:
    if not objective.constrained:
        raise ProvRefineError("no observation constrains any hyperparameter")

    hp = HyperParams({k: 1.0 for k in all_types})
    hp.unconstrained = set(all_types) - objective.constrained
    for k in objective.constrained:
        hp.theta[k] = 0.5

    current = objective.value(hp)
    order = sorted(objective.constrained)
    for _ in range(MAX_CYCLES):
        cycle_start = current
        for k in order:
            f = objective.coordinate_function(k, hp)
            base = f(hp.theta[k])
            best = line_search(f, EPSILON, 1.0)
            gain = f(best) - base
            if gain > 0:
                hp.theta[k] = best
                current += gain
        if current > NEG_INF and cycle_start > NEG_INF:
            if current - cycle_start < CYCLE_TOL:
                break
        elif current == cycle_start:
            break
    return hp


def leave_one_out(training_sets: list) -> list:
    """Per program, learn from all the other programs' observations."""
    if len(training_sets) < 2:
        raise ProvRefineError("leave-one-out needs at least two programs")
    # each program's bound terms once, for every fold that trains on it
    terms = [ts.bound_terms() for ts in training_sets]
    out = []
    for i in range(len(training_sets)):
        rest = [j for j in range(len(training_sets)) if j != i]
        objective = _Objective(bf for j in rest for bf in terms[j])
        types = TrainingSet.merge(training_sets[j] for j in rest).rule_types()
        out.append(_fit(objective, types))
    return out
