"""Reference learning: one weighted model count per head, one closure per
observation.

The straightforward versions of `provrefine.learning._Objective` and
`sample_training`, kept as the oracles the fast ones are checked against.
`_Objective` runs `wmc_clauses` on every head's own clauses at every
evaluation, where the compiled objective counts once per distinct shape;
`sample_training` closes the whole global graph afresh for every
observation, where the fast one indexes it once per analysis, and takes
its blueprint from the definition, the graph induced by the facts derived
at bottom, indexed, where the fast one restricts the analysis's index.
`ShapeObjective` is the objective as it was before the shapes came from
bit masks: `learning._Objective` on `likelihood_reference.ShapeBound`.
Both objectives take `bound_terms`, each group's reference terms, and
`learn` fits either one as `learning.learn` fits its own.
`observations` lists a training set's observations across its groups.
"""

import math
import random
from typing import Callable

from provrefine import hypergraph as hg
from provrefine import learning
from provrefine import likelihood as lk
from provrefine.analysis import (Abstraction, Analysis, derive, encode_params,
                                 project_set)
from provrefine.learning import ObservationGroup, TrainingSet
from provrefine.probmodel import NEG_INF, HyperParams

import likelihood_reference
from likelihood_reference import Observation


def observations(ts: TrainingSet) -> list:
    return [o for g in ts.groups
            for o in likelihood_reference.observations(g.observations)]


def bound_terms(ts: TrainingSet) -> list:
    """Each group's `likelihood_reference.bound_terms`, in group order."""
    return [likelihood_reference.bound_terms(
        hg.Hypergraph(g.blueprint.arcs),
        likelihood_reference.observations(g.observations)) for g in ts.groups]


def learn(ts: TrainingSet, objective) -> HyperParams:
    """`learning.learn` with `objective` (`_Objective` or `ShapeObjective`)
    on the reference bound terms."""
    return learning._fit(objective(bound_terms(ts)), ts.rule_types())


def observe(an: Analysis, a: Abstraction) -> Observation:
    """Run the analysis under a and project the outcome."""
    p1 = encode_params(an, a, 1)
    t = project_set(an, p1)
    r = project_set(an, hg.reach(an.global_graph, p1))
    return Observation(t=t, r=r)


def sample_training(an: Analysis, n: int, max_flips: int,
                    rng: random.Random) -> TrainingSet:
    """n observations from random abstractions flipping 1..max_flips params."""
    max_flips = min(max_flips, len(an.params))
    blueprint = hg.induced(an.global_graph, derive(an, an.bottom()))
    obs = []
    for _ in range(n):
        count = rng.randint(1, max_flips)
        flips = rng.sample(list(an.params), count)
        obs.append(observe(an, an.bottom().with_flips(flips)))
    return TrainingSet([ObservationGroup(hg.Index(blueprint.arcs),
                                         lk.ObservationBatch.of(obs))])


class _Objective:
    """The lower-bound log-likelihood, factored per rule type.

    Precomputes from reference formulas (`likelihood_reference.Formula`),
    for every type, how many refuted arcs it owns and which per-head
    formulas mention it, so a single-coordinate change only re-evaluates
    the affected heads.
    """

    def __init__(self, formulas):
        self.n_counts = {}
        self.heads = []  # list of clause tuples
        self._head_types = []
        for bf in formulas:
            if bf.impossible:
                raise ValueError("training observation with T not within R")
            for arc in bf.negated_arcs:
                self.n_counts[arc.rule_type] = self.n_counts.get(arc.rule_type, 0) + 1
            for ph in bf.per_head.values():
                if not ph.lower_clauses:
                    continue
                self.heads.append(ph.lower_clauses)
                self._head_types.append(
                    {a.rule_type for c in ph.lower_clauses for a in c})
        self.constrained = set(self.n_counts)
        for types in self._head_types:
            self.constrained |= types
        self.heads_of_type = {
            k: [i for i, types in enumerate(self._head_types) if k in types]
            for k in self.constrained
        }

    def _head_value(self, i: int, hp: HyperParams) -> float:
        theta = {}
        for c in self.heads[i]:
            for arc in c:
                theta[arc] = hp.get(arc.rule_type)
        return likelihood_reference.wmc_clauses(self.heads[i], theta)

    def value(self, hp: HyperParams) -> float:
        total = 0.0
        for k, n in self.n_counts.items():
            t = hp.get(k)
            if t >= 1.0:
                return NEG_INF
            total += n * math.log1p(-t)
        for i in range(len(self.heads)):
            v = self._head_value(i, hp)
            if v <= 0.0:
                return NEG_INF
            total += math.log(v)
        return total

    def coordinate_function(self, k: str, hp: HyperParams) -> Callable[[float], float]:
        """Objective as a function of theta_k, up to a constant."""
        n = self.n_counts.get(k, 0)
        head_ids = self.heads_of_type.get(k, [])

        def f(t: float) -> float:
            trial = hp.copy()
            trial.theta[k] = t
            total = 0.0
            if n:
                if t >= 1.0:
                    return NEG_INF
                total += n * math.log1p(-t)
            for i in head_ids:
                v = self._head_value(i, trial)
                if v <= 0.0:
                    return NEG_INF
                total += math.log(v)
            return total

        return f


class ShapeObjective(learning._Objective, likelihood_reference.ShapeBound):
    """`learning._Objective`, its bound built and evaluated by `ShapeBound`."""
