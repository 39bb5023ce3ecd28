import math
import random

import pytest

import provrefine.hypergraph as hg
from provrefine import probmodel as pm
from provrefine.errors import OracleLimitExceeded, ProvRefineError
from provrefine.hypergraph import Arc, Fact, Hypergraph

import probmodel_reference
from conftest import (all_subgraph_probability, fact, random_hypergraph,
                      save_hyperparams)
from probmodel_reference import NotSubgraph, ProbModel, log_prob_of, prob_of


def _model(rng, max_arcs=8):
    g = random_hypergraph(rng, max_verts=6, max_arcs=max_arcs)
    theta = {k: rng.random() for k in sorted({a.rule_type for a in g.arcs})}
    return ProbModel(g, pm.HyperParams(theta))


def test_subgraph_probabilities_sum_to_one():
    rng = random.Random(11)
    for _ in range(20):
        model = _model(rng)
        total = all_subgraph_probability(model.blueprint, model.params.theta,
                                         lambda _: True)
        assert total == pytest.approx(1.0)


def test_prob_of_matches_product():
    g = Hypergraph([Arc(fact(1), frozenset([fact(0)]), "a"),
                    Arc(fact(2), frozenset([fact(0)]), "b")])
    model = ProbModel(g, pm.HyperParams({"a": 0.25, "b": 0.5}))
    sub = Hypergraph([Arc(fact(1), frozenset([fact(0)]), "a")])
    assert prob_of(model, sub) == pytest.approx(0.25 * 0.5)
    assert log_prob_of(model, sub) == pytest.approx(math.log(0.125))


def test_prob_of_rejects_foreign_arcs():
    g = Hypergraph([Arc(fact(1), frozenset([fact(0)]), "a")])
    model = ProbModel(g, pm.HyperParams({"a": 0.5}))
    foreign = Hypergraph([Arc(fact(9), frozenset(), "a")])
    with pytest.raises(NotSubgraph):
        prob_of(model, foreign)


def test_sample_frequencies_match_theta():
    g = Hypergraph([Arc(fact(1), frozenset([fact(0)]), "a")])
    model = ProbModel(g, pm.HyperParams({"a": 0.3}))
    rng = random.Random(5)
    n = 4000
    hits = sum(len(probmodel_reference.sample(model, rng).arcs) for _ in range(n))
    assert hits / n == pytest.approx(0.3, abs=0.03)


def test_query_reach_exact_vs_monte_carlo():
    rng = random.Random(23)
    g = Hypergraph([Arc(fact(1), frozenset([fact(0)]), "a"),
                    Arc(fact(2), frozenset([fact(1)]), "a"),
                    Arc(fact(2), frozenset([fact(0)]), "b")])
    model = ProbModel(g, pm.HyperParams({"a": 0.5, "b": 0.25}))
    exact = probmodel_reference.prob_query_reach_exact(model, fact(2), [fact(0)])
    # reach iff (a1 and a2) or b  =>  0.25 + 0.25 - 0.25*0.25
    assert exact == pytest.approx(0.25 + 0.25 - 0.0625)
    est, stderr = probmodel_reference.prob_query_reach_mc(
        model, fact(2), [fact(0)], trials=20_000, rng=rng)
    assert abs(est - exact) < 4 * stderr + 1e-9


def test_exact_enumeration_refuses_large_graphs():
    g = Hypergraph(Arc(fact(i + 1), frozenset([fact(0)]), "a")
                   for i in range(20))
    model = ProbModel(g, pm.HyperParams({"a": 0.5}))
    with pytest.raises(OracleLimitExceeded):
        probmodel_reference.prob_query_reach_exact(model, fact(1), [fact(0)])


def test_hyperparams_validation():
    g = Hypergraph([Arc(fact(1), frozenset([fact(0)]), "a")])
    with pytest.raises(ValueError):
        pm.validate_hyperparams(pm.HyperParams({"a": 1.5}), g)
    with pytest.raises(ProvRefineError, match=r"rule types \['a'\]"):
        pm.validate_hyperparams(pm.HyperParams({"b": 0.5}), g)
    pm.validate_hyperparams(pm.HyperParams({"a": 0.0}), g)


def test_hyperparams_file_round_trip(tmp_path):
    hp = pm.HyperParams({"a": 0.125, "b": 1.0}, unconstrained={"b"})
    path = tmp_path / "theta.txt"
    save_hyperparams(hp, str(path))
    back = pm.parse_hyperparams(path.read_text())
    assert back.theta == pytest.approx(hp.theta)
    assert back.unconstrained == {"b"}
