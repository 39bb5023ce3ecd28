"""The points-to client of `pointsto_reference`: a well-formed analysis
with cyclic provenance, whose refinement answers agree with the
all-precise program under every strategy and whose learned likelihood
bounds keep a gap."""

import random

import pytest

import provrefine.hypergraph as hg
from provrefine import analysis as ana
from provrefine import learning
from provrefine import likelihood as lk
from provrefine import refine

import pointsto_reference
from conftest import uniform


@pytest.fixture(scope="module")
def an():
    return pointsto_reference.pointsto_analysis()


def _reaches(g: hg.Hypergraph, src, dst) -> bool:
    """Whether a path of arcs leads from fact src to fact dst, each step
    from a body fact to its arc's head."""
    heads_of = {}
    for arc in g.arcs:
        for b in arc.body:
            heads_of.setdefault(b, set()).add(arc.head)
    seen, frontier = {src}, [src]
    while frontier:
        for h in heads_of.get(frontier.pop(), ()):
            if h == dst:
                return True
            if h not in seen:
                seen.add(h)
                frontier.append(h)
    return False


def test_the_points_to_analysis_is_well_formed(an):
    assert ana.check_well_formed(an) == []


def test_the_blueprint_has_an_arc_that_closes_a_cycle(an):
    """Some arc of the blueprint is not forward from the all-cheap seeds,
    and one such arc's head leads back to its own body."""
    g = hg.Hypergraph(an.blueprint.arcs)
    seeds = ana.encode_params(an, an.bottom(), 0)
    backward = g.arcs - hg.forward_arcs(g, seeds).arcs
    assert backward
    assert any(_reaches(g, arc.head, b) for arc in backward for b in arc.body)


def test_every_strategy_answers_as_the_all_precise_program(an):
    """Each answer is `no` iff a naive fixpoint of the all-precise program
    derives the query.  Some answers are each, and the all-cheap analysis
    settles none of them: every solve refines."""
    want = pointsto_reference.all_precise_verdicts()
    assert set(want.values()) == {"yes", "no"}
    hp = uniform(sorted({arc.rule_type for arc in an.global_graph.arcs}))
    refined = 0
    for strategy in refine.STRATEGIES:
        cfg = refine.RefineConfig(strategy=strategy, hyperparams=hp)
        for q in pointsto_reference.QUERIES:
            out = refine.solve(an, q, cfg)
            assert out.answer == want[q], (strategy, q)
            refined += out.iterations > 1
    assert refined == 3 * len(pointsto_reference.QUERIES)


def test_learned_bounds_are_ordered_with_a_gap(an):
    """At the theta learned from seeded samples, lower <= upper on every
    group, and strictly on some."""
    ts = learning.TrainingSet.merge(
        learning.sample_training(an, 20, 3, random.Random(seed))
        for seed in range(4))
    hp = learning.learn(ts)
    gaps = []
    for g in ts.groups:
        bf = lk.bound_terms(g.blueprint, g.observations)
        lower, upper = lk.lower_bound(bf, hp), lk.upper_bound(bf, hp)
        assert lower <= upper
        gaps.append(upper - lower)
    assert max(gaps) > 0.0
