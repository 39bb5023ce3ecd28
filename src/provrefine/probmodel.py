"""The survival-probability table of the random sub-provenance model.

A blueprint hypergraph is partitioned by rule type; each type carries a
survival probability theta, and a random sub-hypergraph keeps every arc
independently with its type's theta.  `HyperParams` is that table,
`validate_hyperparams` checks it against a blueprint's arcs (an index's
or a graph's), and the text format below reads and writes it.
Probabilities of events are kept in log space, where an impossible one
is `NEG_INF`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import hypergraph as hg
from .errors import ProvRefineError

NEG_INF = float("-inf")


@dataclass
class HyperParams:
    """Per-rule-type survival probabilities, plus unconstrained markers."""

    theta: dict = field(default_factory=dict)
    unconstrained: set = field(default_factory=set)

    def get(self, rule_type: str) -> float:
        try:
            return self.theta[rule_type]
        except KeyError:
            raise ProvRefineError(
                f"no hyperparameter for rule type {rule_type!r}") from None

    def copy(self) -> "HyperParams":
        return HyperParams(dict(self.theta), set(self.unconstrained))


def validate_hyperparams(hp: HyperParams, blueprint) -> None:
    """`blueprint` is an `hg.Index` or a `Hypergraph`: only its arcs count."""
    missing = {arc.rule_type for arc in blueprint.arcs} - set(hp.theta)
    if missing:
        raise ProvRefineError(
            f"missing hyperparameters for rule types {sorted(missing)}")
    for k, v in hp.theta.items():
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"theta[{k!r}] = {v} outside [0, 1]")


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
