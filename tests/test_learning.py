import math
import random
from collections import Counter

import pytest

from provrefine import hypergraph as hg
from provrefine import learning
from provrefine import likelihood as lk
from provrefine import probmodel as pm
from provrefine.errors import ProvRefineError
from provrefine.hypergraph import Arc, Fact

import learning_reference
import likelihood_reference
from likelihood_reference import Observation, observations, same_batch
from conftest import (assert_same_index, random_smudge_analysis,
                      random_smudge_program)
from datalog_reference import smudge_analysis, guards_tested


def _f(name):
    return Fact(name, ())


def _bernoulli_corpus(successes: int, total: int):
    """`total` one-arc programs; the arc survived in `successes` of them."""
    a, b = _f("a"), _f("b")
    blueprint = hg.Index([Arc(b, frozenset([a]), "coin")])
    groups = []
    for i in range(total):
        r = frozenset([a, b]) if i < successes else frozenset([a])
        groups.append(learning.ObservationGroup(
            blueprint, lk.ObservationBatch.of([Observation(t=frozenset([a]), r=r)])))
    return learning.TrainingSet(groups)


def test_line_search_quadratic():
    got = learning.line_search(lambda x: -(x - 0.3) ** 2, 0.0, 1.0)
    assert got == pytest.approx(0.3, abs=1e-4)


def test_line_search_monotone_hits_endpoint():
    assert learning.line_search(lambda x: x, 0.0, 1.0) == pytest.approx(1.0, abs=1e-6)
    assert learning.line_search(lambda x: -x, 0.0, 1.0) == pytest.approx(0.0, abs=1e-6)


def test_line_search_constant_prefers_leftmost():
    assert learning.line_search(lambda x: 5.0, 0.0, 1.0) == 0.0


def test_bernoulli_mle_recovers_frequency():
    ts = _bernoulli_corpus(3, 10)
    hp = learning.learn(ts)
    assert hp.theta["coin"] == pytest.approx(0.3, abs=1e-4)


def test_all_successes_drives_theta_to_one():
    hp = learning.learn(_bernoulli_corpus(5, 5))
    assert hp.theta["coin"] == pytest.approx(1.0, abs=1e-4)


def test_unconstrained_types_are_flagged():
    # the "noise" arc's head is never observed derived nor refuted
    a, b, c = _f("a"), _f("b"), _f("c")
    blueprint = hg.Index([Arc(b, frozenset([a]), "coin"),
                          Arc(c, frozenset([_f("never")]), "noise")])
    ts = learning.TrainingSet([learning.ObservationGroup(
        blueprint, lk.ObservationBatch.of(
            [Observation(t=frozenset([a]), r=frozenset([a, b]))]))])
    hp = learning.learn(ts)
    assert hp.theta["noise"] == 1.0
    assert "noise" in hp.unconstrained
    assert "coin" not in hp.unconstrained


def test_degenerate_training_set_raises():
    blueprint = hg.Index([Arc(_f("b"), frozenset([_f("a")]), "coin")])
    ts = learning.TrainingSet([learning.ObservationGroup(
        blueprint, lk.ObservationBatch.of(
            [Observation(t=frozenset(), r=frozenset())]))])
    with pytest.raises(ProvRefineError, match="no observation constrains"):
        learning.learn(ts)


def test_learn_stops_after_one_cycle_when_the_bound_is_minus_inf_everywhere(
        monkeypatch):
    # x and y derive only each other, so no theta gives the observation
    # that derives both from no facts a finite lower bound; refuting z still
    # moves theta_s, but the objective stays -inf and one cycle ends the fit
    x, y, z = _f("x"), _f("y"), _f("z")
    blueprint = hg.Index([Arc(x, frozenset([y]), "r"), Arc(y, frozenset([x]), "r"),
                          Arc(z, frozenset(), "s")])
    ts = learning.TrainingSet([learning.ObservationGroup(
        blueprint, lk.ObservationBatch.of(
            [Observation(t=frozenset(), r=frozenset([x, y]))]))])
    searches = []
    real = learning.line_search

    def counting(f, lo, hi):
        searches.append((lo, hi))
        return real(f, lo, hi)

    monkeypatch.setattr(learning, "line_search", counting)
    hp = learning.learn(ts)
    assert learning._Objective(ts.bound_terms()).value(hp) == pm.NEG_INF
    assert searches == [(learning.EPSILON, 1.0)]
    assert hp.theta == {"r": 1.0, "s": learning.EPSILON}
    assert hp.unconstrained == {"r"}


def test_learned_theta_is_a_likelihood_maximum():
    ts = _bernoulli_corpus(7, 10)
    hp = learning.learn(ts)
    obj = learning._Objective(ts.bound_terms())
    best = obj.value(hp)
    for delta in (-0.05, 0.05):
        trial = hp.copy()
        trial.theta["coin"] += delta
        assert obj.value(trial) <= best + 1e-9


# how far a learned theta may lie from the share of tested guards that
# hold: over corpus seeds 0-199 of `_smudge_corpus` the largest distance
# was 1.3e-10 for the whole corpus and 2.0e-10 for a fold of four, once a
# share of 0 is read as the least theta `learn` fits
TRUTH_TOL = 1e-9


def _smudge_corpus(rng, programs=80):
    """Per program of a random smudge corpus, its training set (20
    observations of at most 3 flips) and, per site whose guard some
    observation tests, (K, whether the guard holds)."""
    sets, truths = [], []
    for _ in range(programs):
        sites, init = random_smudge_program(rng, max_sites=10)
        ts = learning.sample_training(smudge_analysis(sites, init), 20, 3, rng)
        site_of = {Fact("cheap", (s[0],)): i for i, s in enumerate(sites)}
        tested = {}  # an observation's t is its precise sites, projected
        for t in ts.groups[0].observations.t:
            tested.update(guards_tested(sites, init, {site_of[f] for f in t}))
        sets.append(ts)
        truths.append([(sites[i][1], holds) for i, holds in tested.items()])
    return sets, truths


def _assert_theta_is_the_truth(hp, truths) -> dict:
    """Each cheap_smudgeK is the share of tested K-guards that hold, and the
    thetas order as the shares do; returns the shares."""
    tested = {}
    for k, holds in (pair for program in truths for pair in program):
        tested.setdefault(k, []).append(holds)
    share = {k: max(sum(v) / len(v), learning.EPSILON) for k, v in tested.items()}
    for k, want in share.items():
        assert hp.theta[f"cheap_smudge{k}"] == pytest.approx(want, abs=TRUTH_TOL), k
    for k in share:
        for j in share:
            if share[k] > share[j]:
                assert hp.theta[f"cheap_smudge{k}"] > hp.theta[f"cheap_smudge{j}"]
    return share


@pytest.mark.hashseed
def test_learned_theta_is_the_share_of_guards_tested_that_hold():
    """Learning recovers the generator's truth end to end: from random
    smudge programs through `sample_training` and `learn`, each guard is
    one arc that survives or not, once per program, and the programs'
    guards hold or fail for good, since values never change.  So the
    maximum-likelihood theta of cheap_smudgeK is the share of the
    K-guards some observation tests that hold.  The seed's truth orders
    theta2 > theta3 > theta5 > theta7; the folds of `leave_one_out`, over
    four groups of programs, must each find the share of the other three."""
    sets, truths = _smudge_corpus(random.Random(6))
    share = _assert_theta_is_the_truth(
        learning.learn(learning.TrainingSet.merge(sets)), truths)
    assert sorted(share, key=share.get, reverse=True) == [2, 3, 5, 7]
    folds = learning.leave_one_out(
        [learning.TrainingSet.merge(sets[i::4]) for i in range(4)])
    for i, hp in enumerate(folds):
        _assert_theta_is_the_truth(
            hp, [t for j, t in enumerate(truths) if j % 4 != i])


def test_sample_training_shapes():
    from provrefine import datalog

    an = datalog.smudge_fixture()
    rng = random.Random(0)
    ts = learning.sample_training(an, 6, 2, rng)
    assert len(ts.groups) == 1
    assert len(learning_reference.observations(ts)) == 6
    for o in learning_reference.observations(ts):
        # each flipped precise(l) projects to its own cheap(l): t is the flips
        assert 1 <= len(o.t) <= 2
        assert o.t <= o.r


def _assert_same_training(got, want):
    """The same observations, in order, and blueprints equal field by field."""
    assert len(got.groups) == len(want.groups)
    for g, w in zip(got.groups, want.groups):
        assert same_batch(g.observations, w.observations)
        assert_same_index(g.blueprint, w.blueprint)


@pytest.mark.hashseed
def test_sample_training_equals_the_per_observation_reference():
    rng = random.Random(23)
    for _ in range(40):
        an, a = random_smudge_analysis(rng, max_sites=10)
        assert observations(lk.observe(an, [a])) == [learning_reference.observe(an, a)]
        n, max_flips, seed = rng.randint(1, 12), rng.randint(1, 4), rng.random()
        got = learning.sample_training(an, n, max_flips, random.Random(seed))
        expect = learning_reference.sample_training(an, n, max_flips,
                                                    random.Random(seed))
        _assert_same_training(got, expect)


def test_sample_training_indexes_the_global_graph_once(monkeypatch):
    from provrefine import analysis as ana

    calls = []

    class CountedIndex(hg.Index):
        def __init__(self, arcs=()):
            calls.append(1)
            super().__init__(arcs)

    monkeypatch.setattr(hg, "Index", CountedIndex)
    an, a = random_smudge_analysis(random.Random(3), max_sites=10)
    ana.derive(an, a)
    ana.local_provenance(an, a)
    lk.observe(an, [a])
    learning.sample_training(an, 20, 3, random.Random(0))
    ts = learning.sample_training(an, 20, 3, random.Random(1))
    assert len(calls) == 1  # the analysis's own index serves every closure
    # every sample shares the analysis's one blueprint
    assert ts.groups[0].blueprint is an.blueprint
    assert_same_index(an.blueprint, ana.local_provenance(an, frozenset()))
    # and its ranking every blueprint: each is a restriction of it
    ranked = hg._ranked
    monkeypatch.setattr(hg, "_ranked", lambda *args: calls.append(2) or ranked(*args))
    ts = learning.TrainingSet.merge(
        [ts, learning.sample_training(an, 20, 3, random.Random(2))])
    learning.learn(ts)
    assert calls == [1]


def test_sample_training_is_the_same_before_and_after_the_index_is_cached():
    an, _ = random_smudge_analysis(random.Random(5), max_sites=10)
    assert "index" not in vars(an)
    first = learning.sample_training(an, 12, 3, random.Random(7))
    assert "index" in vars(an)
    again = learning.sample_training(an, 12, 3, random.Random(7))
    expect = learning_reference.sample_training(an, 12, 3, random.Random(7))
    _assert_same_training(first, expect)
    _assert_same_training(again, expect)


def test_merge_concatenates_groups():
    a = _bernoulli_corpus(1, 2)
    b = _bernoulli_corpus(2, 2)
    merged = learning.TrainingSet.merge([a, b])
    assert len(merged.groups) == 4


def test_leave_one_out_folds():
    sets = [_bernoulli_corpus(1, 1), _bernoulli_corpus(0, 1),
            _bernoulli_corpus(1, 1)]
    folds = learning.leave_one_out(sets)
    assert len(folds) == 3
    # fold 1 drops the failure, so the remaining corpus is all-successes
    assert folds[1].theta["coin"] == pytest.approx(1.0, abs=1e-4)
    assert folds[0].theta["coin"] == pytest.approx(0.5, abs=1e-3)


def test_leave_one_out_takes_each_programs_bound_terms_once(monkeypatch):
    # each fold learns what learn does on the other programs, from bound
    # terms taken once per program rather than once per fold it is in
    rng = random.Random(41)
    sets = [learning.sample_training(random_smudge_analysis(rng)[0], 6, 3, rng)
            for _ in range(4)]
    want = [learning.learn(learning.TrainingSet.merge(sets[:i] + sets[i + 1:]))
            for i in range(len(sets))]
    calls = []
    real = lk.bound_terms

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(lk, "bound_terms", counting)
    assert learning.leave_one_out(sets) == want
    assert len(calls) == len(sets)


def test_leave_one_out_needs_two_programs():
    with pytest.raises(ProvRefineError, match="at least two programs"):
        learning.leave_one_out([_bernoulli_corpus(1, 1)])


def _random_training_set(rng, n=8):
    """One to three smudge programs, up to n observations each."""
    parts = []
    for _ in range(rng.randint(1, 3)):
        an, _ = random_smudge_analysis(rng)
        parts.append(learning.sample_training(an, rng.randint(1, n), 3, rng))
    return learning.TrainingSet.merge(parts)


def test_objective_equals_the_per_head_reference():
    rng = random.Random(17)
    close = lambda a, b: math.isclose(a, b, rel_tol=1e-12)
    infinite = 0
    for _ in range(40):
        ts = _random_training_set(rng)
        obj = learning._Objective(ts.bound_terms())
        ref = learning_reference._Objective(learning_reference.bound_terms(ts))
        assert obj.constrained == ref.constrained
        assert obj.n_counts == ref.n_counts
        hp = pm.HyperParams({k: rng.uniform(0.01, 0.99) for k in ts.rule_types()})
        assert close(obj.value(hp), ref.value(hp))
        for k in sorted(obj.constrained):
            f, g = obj.coordinate_function(k, hp), ref.coordinate_function(k, hp)
            for t in (0.0, 1e-6, rng.random(), 0.5, 1.0 - 1e-9, 1.0):
                assert close(f(t), g(t)), (k, t)
                infinite += f(t) == pm.NEG_INF
            at_edge = hp.copy()
            at_edge.theta[k] = rng.choice((0.0, 1.0))
            assert close(obj.value(at_edge), ref.value(at_edge))
    assert infinite > 0


def test_objective_is_the_sum_of_the_groups_lower_bounds():
    # the objective learn maximizes is the bound a caller of lower_bound reads
    rng = random.Random(31)
    finite = infinite = 0
    for _ in range(20):
        ts = _random_training_set(rng)
        obj = learning._Objective(ts.bound_terms())
        for _ in range(3):
            hp = pm.HyperParams({k: rng.choice((0.0, 1.0, rng.uniform(0.05, 0.95)))
                                 for k in sorted(ts.rule_types())})
            want = sum(lk.lower_bound(lk.bound_terms(g.blueprint, g.observations), hp)
                       for g in ts.groups)
            got = obj.value(hp)
            if want == pm.NEG_INF:
                assert got == want
                infinite += 1
            else:
                assert math.isclose(got, want, rel_tol=1e-12), (got, want)
                finite += 1
    assert finite and infinite


def test_learn_agrees_with_the_per_head_objective():
    rng = random.Random(29)
    for _ in range(12):
        ts = _random_training_set(rng, n=6)
        got = learning.learn(ts)
        want = learning_reference.learn(ts, learning_reference._Objective)
        assert got.unconstrained == want.unconstrained
        assert got.theta.keys() == want.theta.keys()
        for k, v in want.theta.items():
            assert got.theta[k] == pytest.approx(v, abs=1e-9)


def _five_programs():
    """Five programs x 40 observations: about a thousand lower-bound heads,
    but only a handful of distinct shapes."""
    rng = random.Random(1)
    return learning.TrainingSet.merge(
        learning.sample_training(random_smudge_analysis(rng, max_sites=16)[0],
                                 40, 3, rng)
        for _ in range(5))


def test_learn_counts_once_per_shape(monkeypatch):
    # counting once per head and line-search point took over 20 000
    # weighted model counts here; each distinct shape is compiled once
    ts = _five_programs()
    terms = learning_reference.bound_terms(ts)
    heads = sum(len(bf.per_head) for bf in terms)
    shapes = set().union(*(likelihood_reference.shapes(bf, "lower")
                           for bf in terms))
    assert heads > 20 * len(shapes)
    calls = []
    real = lk._compile

    def counting(clauses):
        calls.append(clauses)
        return real(clauses)

    monkeypatch.setattr(lk, "_compile", counting)
    learning.learn(ts)
    assert Counter(calls) == Counter(clauses for _, clauses in shapes)


def test_learn_builds_no_arc_clause_set(monkeypatch):
    # the shapes come from bound_terms' bit masks: no head's clauses are
    # made into arc sets unless per_head is read
    calls = []
    real = lk._per_head
    monkeypatch.setattr(lk, "_per_head",
                        lambda *args: calls.append(1) or real(*args))
    rng = random.Random(4)
    an = random_smudge_analysis(rng, max_sites=10)[0]
    ts = learning.TrainingSet.merge(
        [learning.sample_training(an, 20, 3, rng) for _ in range(2)])
    learning.learn(ts)
    learning.leave_one_out([ts, learning.sample_training(an, 10, 3, rng)])
    assert calls == []
    bf = ts.bound_terms()[0]
    assert bf.per_head and bf.per_head is bf.per_head
    assert calls == [1]


def test_learning_never_builds_the_upper_shapes(monkeypatch):
    # learning maximises the lower bound alone: each formula's upper
    # shapes are built only when read, and learning never reads them
    import pointsto_reference

    formulas = []
    real = lk.bound_terms
    monkeypatch.setattr(lk, "bound_terms",
                        lambda *args: formulas.append(real(*args)) or formulas[-1])
    rng = random.Random(6)
    programs = [random_smudge_analysis(rng, max_sites=10)[0] for _ in range(3)]
    programs.append(pointsto_reference.pointsto_analysis())
    parts = [learning.sample_training(an, 20, 3, rng) for an in programs]
    learning.learn(learning.TrainingSet.merge(parts))
    learning.leave_one_out(parts)
    assert len(formulas) == 2 * len(parts)
    assert all(vars(bf).keys() & {"lower_shapes", "upper_shapes"} == {"lower_shapes"}
               for bf in formulas)
    assert all(bf.lower_shapes for bf in formulas)


@pytest.mark.hashseed
def test_learn_equals_the_theta_of_the_per_head_shape_bound():
    # bit for bit: the same shapes and refuted types in the same order, and
    # the same float operations in each count
    rng = random.Random(43)
    cases = [_five_programs()] + [_random_training_set(rng) for _ in range(12)]
    for ts in cases:
        got = learning.learn(ts)
        want = learning_reference.learn(ts, learning_reference.ShapeObjective)
        assert got == want
