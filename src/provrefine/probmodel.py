"""Random sub-provenance model: independent per-arc survival.

A blueprint hypergraph is partitioned by rule type; each type carries a
survival probability theta.  A random sub-hypergraph keeps every arc
independently with its type's theta.  Probabilities of events are
products over arcs, kept in log space to survive hundreds of factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from . import hypergraph as hg
from .errors import NotSubgraph
from .hypergraph import Hypergraph

NEG_INF = float("-inf")

EXACT_ARC_LIMIT = 15


@dataclass
class HyperParams:
    """Per-rule-type survival probabilities, plus unconstrained markers."""

    theta: dict = field(default_factory=dict)
    unconstrained: set = field(default_factory=set)

    def get(self, rule_type: str) -> float:
        try:
            return self.theta[rule_type]
        except KeyError:
            raise KeyError(f"no hyperparameter for rule type {rule_type!r}")

    def log_theta(self, rule_type: str) -> float:
        t = self.get(rule_type)
        return math.log(t) if t > 0.0 else NEG_INF

    def log_one_minus(self, rule_type: str) -> float:
        t = self.get(rule_type)
        return math.log1p(-t) if t < 1.0 else NEG_INF

    def copy(self) -> "HyperParams":
        return HyperParams(dict(self.theta), set(self.unconstrained))

    @staticmethod
    def uniform(rule_types: Iterable[str], value: float = 0.5) -> "HyperParams":
        return HyperParams({k: value for k in rule_types})


def validate_hyperparams(hp: HyperParams, blueprint: Hypergraph) -> None:
    missing = blueprint.rule_types() - set(hp.theta)
    if missing:
        raise KeyError(f"missing hyperparameters for rule types {sorted(missing)}")
    for k, v in hp.theta.items():
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"theta[{k!r}] = {v} outside [0, 1]")


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
            total += m.params.log_theta(arc.rule_type)
        else:
            total += m.params.log_one_minus(arc.rule_type)
    return total


def prob_of(m: ProbModel, h: Hypergraph) -> float:
    lp = log_prob_of(m, h)
    return math.exp(lp) if lp > NEG_INF else 0.0


def _enumerate_subgraphs(m: ProbModel):
    """Yield (sub-hypergraph arcs, probability) over all 2^n selections."""
    arcs = m.blueprint.sorted_arcs()
    n = len(arcs)
    theta = [m.params.get(a.rule_type) for a in arcs]
    for mask in range(1 << n):
        p = 1.0
        chosen = []
        for i in range(n):
            if mask >> i & 1:
                p *= theta[i]
                chosen.append(arcs[i])
            else:
                p *= 1.0 - theta[i]
        if p > 0.0:
            yield chosen, p


# ---------------------------------------------------------------------------
# hyperparameter file format: one "rule_type theta" pair per line


def parse_hyperparams(text: str) -> HyperParams:
    theta = {}
    unconstrained = set()

    def entry(_, line):
        parts = line.split()
        if len(parts) not in (2, 3) or (len(parts) == 3 and parts[2] != "unconstrained"):
            raise ValueError(f"expected 'rule_type theta [unconstrained]': {line!r}")
        name, value = parts[0], parts[1]
        try:
            v = float(value)
        except ValueError:
            raise ValueError(f"malformed theta {value!r}") from None
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"theta {v} outside [0, 1]")
        if name in theta:
            raise ValueError(f"a second theta for {name!r}")
        theta[name] = v
        if len(parts) == 3:
            unconstrained.add(name)

    hg.read_lines(text, entry)
    return HyperParams(theta, unconstrained)


def serialize_hyperparams(hp: HyperParams) -> str:
    lines = []
    for name in sorted(hp.theta):
        flag = " unconstrained" if name in hp.unconstrained else ""
        lines.append(f"{name} {hp.theta[name]:.9f}{flag}\n")
    return "".join(lines)


def load_hyperparams(path: str) -> HyperParams:
    with open(path) as fh:
        return parse_hyperparams(fh.read())


def save_hyperparams(hp: HyperParams, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(serialize_hyperparams(hp))
