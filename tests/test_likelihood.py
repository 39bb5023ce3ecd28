import itertools
import math
import random
import re

import pytest

import provrefine.hypergraph as hg
from provrefine import likelihood as lk
from provrefine import probmodel as pm
from provrefine.errors import ObservationOutOfRange, ParseError, SelfLoopArc
from provrefine.hypergraph import Arc, Fact, Hypergraph

import likelihood_reference
from likelihood_reference import Observation, observations, same_batch
import loop_formula_reference as lfr
from conftest import (fact, random_hypergraph, random_seed_set,
                      random_smudge_analysis, uniform)

pytestmark = pytest.mark.hashseed


def _f(name):
    return Fact(name, ())


_batch = lk.ObservationBatch.of


@pytest.fixture
def four_arc_example():
    """One head h fed by four bodies; three observations pin it down."""
    h = _f("h")
    b = {k: _f(f"b{k}") for k in range(1, 5)}
    arcs = {k: Arc(h, frozenset([b[k]]), f"e{k}") for k in range(1, 5)}
    g = Hypergraph(arcs.values())
    obs = [
        Observation(t=frozenset([b[1]]), r=frozenset([b[1]])),
        Observation(t=frozenset([b[1], b[2], b[4]]),
                    r=frozenset([b[1], b[2], b[4], h])),
        Observation(t=frozenset([b[3], b[4]]),
                    r=frozenset([b[3], b[4], h])),
    ]
    return g, arcs, obs


def test_four_arc_structure(four_arc_example):
    g, arcs, obs = four_arc_example
    bf = lk.bound_terms(hg.Index(g.arcs), _batch(obs))
    want = likelihood_reference.bound_terms(g, obs)
    assert want.negated_arcs == frozenset([arcs[1]])
    assert bf.n_counts == {"e1": 1}
    (h_key,) = want.per_head
    ph = want.per_head[h_key]
    assert ph.candidates == frozenset([arcs[2], arcs[3], arcs[4]])
    assert set(ph.lower_clauses) == {frozenset([arcs[2], arcs[4]]),
                                     frozenset([arcs[3], arcs[4]])}
    assert ph.lower_clauses == ph.upper_clauses
    assert list(bf.per_head) == [h_key]
    assert bf.per_head[h_key].lower_clauses == ph.lower_clauses
    assert bf.lower_shapes == bf.upper_shapes


def test_four_arc_bounds_and_exact(four_arc_example):
    g, arcs, obs = four_arc_example
    hp = pm.HyperParams({f"e{k}": 0.5 for k in range(1, 5)})
    bf = lk.bound_terms(hg.Index(g.arcs), _batch(obs))
    # (1/2) * WMC((S2 or S4) and (S3 or S4)) = 0.5 * 0.625
    for f in (lk.lower_bound, lk.upper_bound):
        assert f(bf, hp) == pytest.approx(math.log(0.3125))
    assert lk.exact_likelihood(hg.Index(g.arcs), _batch(obs), hp) == \
        pytest.approx(math.log(0.3125))


def test_cyclic_pair_bounds(monkeypatch):
    # a <-> b with no seeds: nothing is derivable, yet the upper bound
    # counts the mutually-justifying cycle
    a, b = _f("a"), _f("b")
    g = Hypergraph([Arc(a, frozenset([b]), "r"), Arc(b, frozenset([a]), "r")])
    obs = [Observation(t=frozenset(), r=frozenset([a, b]))]
    hp = pm.HyperParams({"r": 0.5})
    built = []
    real = lk._shapes
    monkeypatch.setattr(lk, "_shapes",
                        lambda *args: built.append(args[-1]) or real(*args))
    bf = lk.bound_terms(hg.Index(g.arcs), _batch(obs))
    assert built == []
    assert lk.lower_bound(bf, hp) == pm.NEG_INF
    for _ in range(2):  # each bound's shapes are built once, on first read
        assert lk.upper_bound(bf, hp) == pytest.approx(math.log(0.25))
    assert len(built) == 2 and built[0] is bf._lower and built[1] is bf._upper
    assert bf.upper_shapes is bf.upper_shapes
    assert lk.exact_likelihood(hg.Index(g.arcs), _batch(obs), hp) == pm.NEG_INF


def test_inconsistent_observation_gives_zero_likelihood():
    a, b = _f("a"), _f("b")
    g = Hypergraph([Arc(b, frozenset([a]), "r")])
    obs = [Observation(t=frozenset([a]), r=frozenset([b]))]  # t not in r
    bf = lk.bound_terms(hg.Index(g.arcs), _batch(obs))
    hp = pm.HyperParams({"r": 0.5})
    assert bf.impossible
    assert bf.lower_shapes == bf.upper_shapes == bf.per_head == {}
    assert lk.lower_bound(bf, hp) == pm.NEG_INF
    assert lk.upper_bound(bf, hp) == pm.NEG_INF
    assert lk.exact_likelihood(hg.Index(g.arcs), _batch(obs), hp) == pm.NEG_INF


def test_self_loop_arcs_are_rejected():
    a = _f("a")
    g = Hypergraph([Arc(a, frozenset([a]), "r")])
    with pytest.raises(SelfLoopArc):
        lk.bound_terms(hg.Index(g.arcs),
                       _batch([Observation(frozenset(), frozenset())]))


def test_the_least_self_loop_arc_in_key_order_is_named():
    # not whichever arc the frozenset yields first, which follows the hash seed
    g = hg.parse_provenance("e <- e @ t\nb <- d @ u\nc <- c d @ s\na <- b a @ r\n")
    obs = [Observation(frozenset(), frozenset())]
    want = "self-loop arc (a head in its own body): a <- a b @ r"
    with pytest.raises(SelfLoopArc, match=f"^{re.escape(want)}$"):
        lk.bound_terms(hg.Index(g.arcs), _batch(obs))
    with pytest.raises(SelfLoopArc, match=f"^{re.escape(want)}$"):
        likelihood_reference.bound_terms(g, obs)


def test_foreign_facts_are_rejected():
    # the least foreign fact of the first such observation is named, not
    # whichever fact the frozenset yields first, which follows the hash seed
    g = hg.parse_provenance("b <- a @ r\n")
    ghosts = [Fact("g", (i,)) for i in (3, "x", 1, "a", 2)]
    obs = [Observation(frozenset([_f("a")]), frozenset([_f("a"), _f("b")])),
           Observation(frozenset(), frozenset([_f("b"), *ghosts])),
           Observation(frozenset(), frozenset([_f("a0")]))]
    want = "observation 2 derives g(1), a fact foreign to the blueprint"
    with pytest.raises(ObservationOutOfRange, match=f"^{re.escape(want)}$"):
        lk.bound_terms(hg.Index(g.arcs), _batch(obs))
    with pytest.raises(ObservationOutOfRange, match=f"^{re.escape(want)}$"):
        lk.exact_likelihood(hg.Index(g.arcs), _batch(obs), uniform(["r"]))
    with pytest.raises(ObservationOutOfRange, match=f"^{re.escape(want)}$"):
        likelihood_reference.bound_terms(g, obs)


def _random_instance(rng, acyclic=False):
    g = random_hypergraph(rng, max_verts=6, max_arcs=8, acyclic=acyclic,
                          empty_body_ok=False)
    while any(a.head in a.body for a in g.arcs):
        g = random_hypergraph(rng, max_verts=6, max_arcs=8, acyclic=acyclic,
                              empty_body_ok=False)
    hp = pm.HyperParams({k: rng.uniform(0.05, 0.95)
                         for k in sorted({a.rule_type for a in g.arcs})})
    arcs = sorted(g.arcs, key=Arc._key)  # draws that follow no hash order
    obs = []
    for _ in range(rng.randint(1, 3)):
        t = random_seed_set(rng, g)
        r = hg.reach(Hypergraph(a for a in arcs if rng.random() < 0.7), t)
        obs.append(Observation(t=t, r=r))
    return g, hp, obs


def test_bounds_sandwich_exact_on_random_instances():
    rng = random.Random(99)
    for _ in range(60):
        g, hp, obs = _random_instance(rng)
        bf = lk.bound_terms(hg.Index(g.arcs), _batch(obs))
        lo = lk.lower_bound(bf, hp)
        up = lk.upper_bound(bf, hp)
        exact = lk.exact_likelihood(hg.Index(g.arcs), _batch(obs), hp)
        assert lo <= exact + 1e-9
        assert exact <= up + 1e-9


def test_upper_equals_exact_on_acyclic_instances():
    rng = random.Random(7)
    for _ in range(40):
        g, hp, obs = _random_instance(rng, acyclic=True)
        bf = lk.bound_terms(hg.Index(g.arcs), _batch(obs))
        up = lk.upper_bound(bf, hp)
        exact = lk.exact_likelihood(hg.Index(g.arcs), _batch(obs), hp)
        if exact == pm.NEG_INF:
            assert up == pm.NEG_INF
        else:
            assert up == pytest.approx(exact, abs=1e-9)


def test_a_head_with_many_candidates_counts_without_recursing_per_arc():
    n, theta = 1200, 0.001
    h, a = Fact("h", ()), [Fact(f"a{i}", ()) for i in range(n)]
    g = Hypergraph([Arc(h, frozenset([x]), "r") for x in a]
                   + [Arc(x, frozenset(), "base") for x in a])
    bf = lk.bound_terms(hg.Index(g.arcs),
                        _batch([Observation(t=frozenset(), r=frozenset([h, *a]))]))
    hp = pm.HyperParams({"r": theta, "base": 1.0})
    # h needs one of its n arcs; each a<i> has its one base arc
    expect = math.log1p(-(1.0 - theta) ** n)
    assert lk.lower_bound(bf, hp) == pytest.approx(expect, rel=1e-12)
    assert lk.upper_bound(bf, hp) == pytest.approx(expect, rel=1e-12)


def test_loop_formula_evaluates_reach_equality():
    rng = random.Random(3)
    for _ in range(40):
        g, hp, obs = _random_instance(rng)
        for o in obs:
            f = lfr.loop_formula(g, o.t, o.r)
            for n in range(len(g.arcs) + 1):
                for chosen in itertools.combinations(g.arcs, n):
                    expect = hg.reach(Hypergraph(chosen), o.t) == o.r
                    assert f.evaluate(frozenset(chosen)) == expect


def test_loop_formula_wmc_equals_exact_likelihood():
    rng = random.Random(41)
    for _ in range(25):
        g, hp, obs = _random_instance(rng)
        formulas = [lfr.loop_formula(g, o.t, o.r) for o in obs]
        wmc = lfr.loop_formula_wmc(g, formulas, hp)
        exact = lk.exact_likelihood(hg.Index(g.arcs), _batch(obs), hp)
        if exact == pm.NEG_INF:
            assert wmc == pm.NEG_INF
        else:
            assert wmc == pytest.approx(exact, abs=1e-9)


def test_observe_projects_seeds_and_reach():
    from provrefine import analysis as ana
    from provrefine import datalog

    an = datalog.smudge_fixture()
    a = frozenset(["0"])
    [o] = observations(lk.observe(an, [a]))
    assert o.t == frozenset([Fact("cheap", (0,))])
    assert o.t <= o.r


def test_observe_equals_the_per_abstraction_reference_in_order():
    """The smudge fixture under every subset of its parameters, and
    generated programs under no abstraction, one, or more than 64 (masks
    of several machine words), repeats among them."""
    from provrefine import datalog

    an = datalog.smudge_fixture()
    cases = [(an, [frozenset(flips) for n in range(len(an.params) + 1)
                   for flips in itertools.combinations(an.params, n)])]
    rng = random.Random(37)
    for _ in range(30):
        an, a = random_smudge_analysis(rng, max_sites=10)
        n = rng.choice([0, 1, rng.randint(2, 20), rng.randint(65, 70)])
        cases.append((an, [a] + [frozenset(
            p for p in an.params if rng.random() < 0.5) for _ in range(n)]))
    cases.append((an, []))
    for an, abstractions in cases:
        want = [likelihood_reference.observe(an, a) for a in abstractions]
        got = lk.observe(an, abstractions)
        assert observations(got) == want
        assert same_batch(got, _batch(want))


def test_an_observation_batch_gives_its_list_back():
    """list -> batch -> list is the identity, in order, with t not within
    r, duplicates, empty sets and facts in several observations, and the
    batch's masks are those of the list."""
    rng = random.Random(19)
    pool = [fact(i) for i in range(6)] + [_f("ghost"), Fact("g", ("x",))]
    cases = [[], [Observation(frozenset(), frozenset())]]
    for _ in range(200):
        obs = [Observation(frozenset(rng.sample(pool, rng.randint(0, 3))),
                           frozenset(rng.sample(pool, rng.randint(0, 6))))
               for _ in range(rng.choice((1, 3, rng.randint(60, 70))))]
        obs += rng.sample(obs, rng.randint(0, min(3, len(obs))))  # duplicates
        rng.shuffle(obs)
        cases.append(obs)
    outcomes = set()
    for obs in cases:
        batch = _batch(obs)
        assert observations(batch) == obs
        assert same_batch(_batch(observations(batch)), batch)
        assert batch.t == [o.t for o in obs]
        assert batch.rmask == {f: sum(1 << k for k, o in enumerate(obs) if f in o.r)
                               for f in set().union(*(o.r for o in obs))}
        # no arc and no foreign fact: None exactly when some t is not within its r
        inconsistent = lk._blueprint_masks(hg.Index((), pool), batch) is None
        assert inconsistent == (not all(o.t <= o.r for o in obs))
        outcomes.add(inconsistent)
    assert outcomes == {True, False}


def test_observe_equals_reach_over_the_local_provenance():
    from provrefine import analysis as ana

    rng = random.Random(12)
    for _ in range(30):
        an, a = random_smudge_analysis(rng)
        p1 = ana.encode_params(an, a, 1)
        lp = ana.local_provenance(an, a)
        old_r = an.projection.image(hg.reach(Hypergraph(lp.arcs), p1))
        [o] = observations(lk.observe(an, [a]))
        assert o.r == old_r


def test_lower_clauses_match_the_inline_forward_filter():
    from provrefine import analysis as ana

    rng = random.Random(21)
    cases = [_random_instance(rng)[::2] for _ in range(60)]
    for _ in range(8):
        an, _ = random_smudge_analysis(rng)
        flips = [[p for p in an.params if rng.random() < 0.5] for _ in range(4)]
        cases.append((Hypergraph(ana.local_provenance(an, frozenset()).arcs),
                      observations(lk.observe(an, [frozenset(f)
                                                   for f in flips]))))
    for g, obs in cases:
        bf = lk.bound_terms(hg.Index(g.arcs), _batch(obs))
        if bf.impossible:
            continue
        candidates = {h: ph.candidates for h, ph in
                      likelihood_reference.bound_terms(g, obs).per_head.items()}
        assert list(bf.per_head) == list(candidates)
        # F_k written out as its own distance filter over D_k
        f_sets = []
        for o in obs:
            dist = hg.distances(g, o.t)
            f_sets.append(frozenset(
                a for a in g.arcs if a.body <= o.r
                and all(dist[a.head] > dist[b] for b in a.body)))
        for h, ph in bf.per_head.items():
            want = tuple(candidates[h] & f_k
                         for o, f_k in zip(obs, f_sets) if h in o.r - o.t)
            assert ph.lower_clauses == want


def _bound_terms_or_error(bound_terms, g, obs):
    try:
        return bound_terms(g, obs)
    except (SelfLoopArc, ObservationOutOfRange) as exc:
        return type(exc), str(exc)


def _assert_same_formula(got, want):
    """The same exception, or the same per-head lower clauses, in order,
    and the shape maps and refuted counts, in order, that the reference
    `shape` gives over its clauses and its refuted arcs."""
    if not isinstance(want, likelihood_reference.Formula):
        assert got == want
        return
    assert got.impossible == want.impossible
    assert [(h, ph.lower_clauses) for h, ph in got.per_head.items()] == \
        [(h, ph.lower_clauses) for h, ph in want.per_head.items()]
    assert list(got.n_counts.items()) == list(
        likelihood_reference.n_counts(want).items())
    for which, shapes in (("lower", got.lower_shapes), ("upper", got.upper_shapes)):
        assert list(shapes.items()) == list(
            likelihood_reference.shapes(want, which).items()), which


def _messy_instance(rng):
    """A random graph with empty bodies and cycles, and observations that
    may be inconsistent, name foreign facts, or meet a self-loop arc."""
    g = random_hypergraph(rng, max_verts=7, max_arcs=12)
    arcs = set(g.arcs)
    for _ in range(rng.choice((0, 0, 0, 1, 2))):
        v = fact(rng.randrange(7))
        arcs.add(Arc(v, frozenset([v, fact(rng.randrange(7))]), "loop"))
    g = Hypergraph(arcs)
    obs = []
    for _ in range(rng.randint(1, 4)):
        t = random_seed_set(rng, g)
        r = set(hg.reach(Hypergraph(a for a in sorted(g.arcs, key=Arc._key)
                                    if rng.random() < 0.7), t))
        if rng.random() < 0.1:
            r.add(_f("ghost"))
        if rng.random() < 0.1:
            t |= {_f("seed_only")}
            r.add(_f("seed_only"))
        if t and rng.random() < 0.1:
            r.discard(min(t, key=Fact._key))
        obs.append(Observation(t=frozenset(t), r=frozenset(r)))
    return g, obs


def _smudge_group(rng, programs=1, n=4):
    from provrefine import learning

    parts = [learning.sample_training(random_smudge_analysis(rng)[0], n, 3, rng)
             for _ in range(programs)]
    return [(Hypergraph(grp.blueprint.arcs), observations(grp.observations))
            for ts in parts for grp in ts.groups]


def test_bound_terms_equals_the_reference(four_arc_example):
    rng = random.Random(33)
    g4, _, obs4 = four_arc_example
    a, b = _f("a"), _f("b")
    cyclic = Hypergraph([Arc(a, frozenset([b]), "r"), Arc(b, frozenset([a]), "r")])
    cases = [(g4, obs4), (cyclic, [Observation(frozenset(), frozenset([a, b]))])]
    cases += [_random_instance(rng)[::2] for _ in range(100)]
    cases += [_messy_instance(rng) for _ in range(300)]
    for _ in range(12):
        cases += _smudge_group(rng, n=rng.randint(1, 12))
    outcomes = set()
    for g, obs in cases:
        want = _bound_terms_or_error(likelihood_reference.bound_terms, g, obs)
        got = _bound_terms_or_error(lk.bound_terms, hg.Index(g.arcs),
                                    _batch(obs))
        _assert_same_formula(got, want)
        outcomes.add(want[0] if isinstance(want, tuple) else want.impossible)
    assert outcomes == {SelfLoopArc, ObservationOutOfRange, True, False}


def test_coded_heads_count_as_one_shape_per_head_in_order():
    """On groups of 20 observations flipping at most 3 parameters of
    16-site smudge programs, and on messy instances, the shape maps and
    refuted counts equal, item by item and in order, those of one shape
    built per head (`likelihood_reference.head_shapes`)."""
    from datalog_reference import smudge_analysis
    from provrefine import learning

    rng = random.Random(89)
    cases = []
    for _ in range(6):
        sites = [(i, rng.choice((2, 3, 5, 7)), rng.choice("xyzw"),
                  rng.choice("xyzw")) for i in range(16)]
        an = smudge_analysis(sites, {o: rng.randrange(10) for o in "xyzw"})
        grp = learning.sample_training(an, 20, 3, rng).groups[0]
        cases.append((grp.blueprint, grp.observations))
    for _ in range(300):
        g, obs = _messy_instance(rng)
        cases.append((hg.Index(g.arcs), _batch(obs)))
    compared = 0
    for index, batch in cases:
        try:
            got = lk.bound_terms(index, batch)
        except (SelfLoopArc, ObservationOutOfRange):
            continue
        if got.impossible:
            continue
        lower, upper, n_counts = likelihood_reference.head_shapes(index, batch)
        assert list(got.lower_shapes.items()) == list(lower.items())
        assert list(got.upper_shapes.items()) == list(upper.items())
        assert list(got.n_counts.items()) == list(n_counts.items())
        compared += 1
    assert compared > 100


def test_exact_likelihood_refuses_what_the_bounds_refuse():
    """The same check, in the same order: a self-loop arc, then the least
    foreign fact of the first observation deriving one; an impossible
    batch is -inf."""
    rng = random.Random(47)
    outcomes = set()
    for _ in range(300):
        g, obs = _messy_instance(rng)
        want = _bound_terms_or_error(likelihood_reference.bound_terms, g, obs)
        if isinstance(want, likelihood_reference.Formula) and not want.impossible:
            continue  # a likelihood to enumerate: the sandwich tests cover it
        try:
            got = lk.exact_likelihood(hg.Index(g.arcs), _batch(obs),
                                      uniform(a.rule_type for a in g.arcs))
        except (SelfLoopArc, ObservationOutOfRange) as exc:
            got = type(exc), str(exc)
        assert got == (pm.NEG_INF if isinstance(want, likelihood_reference.Formula)
                       else want)
        outcomes.add(want[0] if isinstance(want, tuple) else "impossible")
    assert outcomes == {SelfLoopArc, ObservationOutOfRange, "impossible"}


def test_bound_terms_with_shared_heads_and_partly_forward_clauses():
    """Heads with two or more candidates and heads with one, where an
    observation derives the head through a candidate that is in its D_k
    but not forward from its t_k: the clauses still equal the reference."""
    rng = random.Random(71)
    seen = {"many": 0, "partial many": 0, "partial one": 0}
    for _ in range(300):
        g = random_hypergraph(rng, max_verts=8, max_arcs=rng.choice((12, 24)))
        obs = []
        for _ in range(rng.randint(3, 12)):
            t = random_seed_set(rng, g)
            r = hg.reach(Hypergraph(a for a in sorted(g.arcs)
                                    if rng.random() < 0.8), t)
            obs.append(Observation(t=t, r=r))
        want = likelihood_reference.bound_terms(g, obs)
        _assert_same_formula(lk.bound_terms(hg.Index(g.arcs), _batch(obs)), want)
        for ph in want.per_head.values():
            partial = ph.lower_clauses != ph.upper_clauses
            if len(ph.candidates) > 1:
                seen["many"] += 1
                seen["partial many"] += partial
            elif len(ph.candidates) == 1:
                seen["partial one"] += partial
    assert min(seen.values()) >= 10, seen


def test_bounds_equal_the_per_head_reference():
    rng = random.Random(57)
    cases = [_random_instance(rng, acyclic=rng.random() < 0.5)[::2]
             for _ in range(100)]
    cases += [_messy_instance(rng) for _ in range(200)]
    for _ in range(8):
        cases += _smudge_group(rng, n=rng.randint(1, 12))
    outcomes = set()
    for g, obs in cases:
        bf = _bound_terms_or_error(lk.bound_terms, hg.Index(g.arcs),
                                   _batch(obs))
        if isinstance(bf, tuple):
            continue
        ref = likelihood_reference.bound_terms(g, obs)
        for _ in range(3):
            hp = pm.HyperParams({k: rng.choice((0.0, 1.0, rng.uniform(0.05, 0.95)))
                                 for k in sorted({a.rule_type for a in g.arcs})})
            for which, bound in (("lower", lk.lower_bound), ("upper", lk.upper_bound)):
                got = bound(bf, hp)
                want = likelihood_reference.bound(ref, hp, which)
                if want == pm.NEG_INF:
                    assert got == want, (which, got)
                else:
                    assert math.isclose(got, want, rel_tol=1e-12), (which, got, want)
                outcomes.add((bf.impossible, want == pm.NEG_INF))
    assert outcomes == {(True, True), (False, True), (False, False)}


def _random_cnf(rng, n_vars):
    """A monotone CNF over range(n_vars), maybe with empty and repeated
    clauses, as a list of clauses."""
    clauses = [frozenset(v for v in range(n_vars) if rng.random() < 0.4)
               for _ in range(rng.randint(0, 6))]
    if clauses and rng.random() < 0.3:
        clauses += rng.sample(clauses, rng.randint(1, len(clauses)))
    if rng.random() < 0.1:
        clauses.append(frozenset())
    return clauses


def test_compiled_counts_equal_the_frozenset_expansion_bit_for_bit():
    rng = random.Random(61)
    # the last: a head with 1200 candidate arcs, one clause of them all
    cases = [[], [frozenset()], [frozenset([0]), frozenset([0])],
             [frozenset(range(1200))]]
    cases += [_random_cnf(rng, rng.randint(1, 8)) for _ in range(400)]
    seen = {"empty clause": 0, "repeated clause": 0}
    for clauses in cases:
        n = max((max(c) for c in clauses if c), default=-1) + 1
        for _ in range(3):
            theta = [rng.choice((0.0, 1.0, 0.5, rng.random())) for _ in range(n)]
            want = likelihood_reference.wmc_clauses(clauses, theta)
            assert lk._run(lk._compile(clauses), theta) == want, (clauses, theta)
        seen["empty clause"] += frozenset() in clauses
        seen["repeated clause"] += len(set(clauses)) < len(clauses)
    assert min(seen.values()) >= 10, seen


def test_bounds_of_random_formulas_equal_the_shape_bound_bit_for_bit():
    # summed per distinct shape in formula order, as the reference sums
    rng = random.Random(83)
    cases = ([_random_instance(rng)[::2] for _ in range(40)]
             + _smudge_group(rng, programs=3, n=12))
    pairs = [(lk.bound_terms(hg.Index(g.arcs), _batch(obs)),
              likelihood_reference.bound_terms(g, obs)) for g, obs in cases]
    pairs = [(bf, ref) for bf, ref in pairs if not bf.impossible]
    for which in ("lower", "upper"):
        for n in (1, 7, len(pairs)):
            group = [bf for bf, _ in pairs[:n]]
            got = lk.Bound(group, which)
            want = likelihood_reference.ShapeBound([ref for _, ref in pairs[:n]],
                                                   which)
            assert [(t, m) for t, _, m in got.shapes] == \
                [(t, m) for t, _, m in want.shapes]
            assert list(got.n_counts.items()) == list(want.n_counts.items())
            types = sorted(set().union(*(bf.n_counts for bf in group),
                                       *(t for t, _, _ in got.shapes)))
            for _ in range(5):
                hp = pm.HyperParams({k: rng.choice((0.0, 1.0, rng.random()))
                                     for k in types})
                assert got.value(hp) == want.value(hp)


def test_refuted_types_are_counted_in_the_key_order_of_their_first_arc():
    # not in the order a frozenset of arcs yields them, which follows the
    # hash seed: the float sum of a bound follows this order
    g = hg.parse_provenance("d <- s @ t7\nb <- s @ t7\ne <- s @ t3\n"
                            "c <- s @ t5\nf <- b @ t5\n")
    s = _f("s")
    bf = lk.bound_terms(hg.Index(g.arcs),
                        _batch([Observation(frozenset([s]), frozenset([s]))]))
    assert list(bf.n_counts.items()) == [("t7", 2), ("t5", 1), ("t3", 1)]
    g = hg.parse_provenance("b <- a @ t1\nc <- a @ t3\n")
    other = lk.bound_terms(hg.Index(g.arcs), _batch([
        Observation(frozenset([_f("a")]), frozenset([_f("a")]))]))
    assert list(other.n_counts) == ["t1", "t3"]
    assert list(lk.Bound([other, bf], "lower").n_counts.items()) == [
        ("t1", 1), ("t3", 2), ("t7", 2), ("t5", 1)]


def test_observation_file_round_trip():
    obs = [Observation(t=frozenset([_f("a")]),
                       r=frozenset([_f("a"), _f("b")])),
           Observation(t=frozenset(), r=frozenset())]
    text = likelihood_reference.serialize_observations(obs)
    back = lk.parse_observations(text)
    assert observations(back) == obs


def test_observation_facts_may_be_separated_by_commas():
    text = "obs\nT: c(1, 2), a\nR: a, c(1,2) b\n"
    (o,) = observations(lk.parse_observations(text))
    assert o.t == frozenset([Fact("c", (1, 2)), _f("a")])
    assert o.r == o.t | {_f("b")}
    with pytest.raises(ParseError) as exc:
        lk.parse_observations("obs\nT: a\nR: a(1.5)\n")
    assert exc.value.line == 3


def test_a_second_t_or_r_line_in_one_observation_is_an_error():
    for text, line in [("obs\nT: a\nT: b\nR: a b\n", 3),
                       ("obs\nT: a\nR: a\n\nR: a b\n", 5),
                       ("T: a\nR: a\nT: b\nR: b\n", 3)]:
        with pytest.raises(ParseError) as exc:
            lk.parse_observations(text)
        assert exc.value.line == line


def test_an_obs_line_with_no_t_or_r_line_after_it_is_an_error():
    for text, line in [("obs\n", 1), ("obs\nobs\nT: a\nR: a\n", 1),
                       ("obs\nT: a\nR: a\n\nobs\n# done\n", 5),
                       ("T: a\nR: a\nobs\nobs\nT: b\nR: b\n", 3)]:
        with pytest.raises(ParseError, match="no T: or R: line") as exc:
            lk.parse_observations(text)
        assert exc.value.line == line


def test_an_unfinished_observation_is_reported_at_its_first_line():
    # its `obs` line, or its first T: or R: line when it has none; in the
    # middle of the file, at its end, and first without a header
    for text, line in [("obs\nT: a\n", 1), ("obs\nT: a", 1),
                       ("obs\nT: a\n\n", 1), ("obs\r\nT: a\r\n", 1),
                       ("obs\nT: x\nobs\nT: x\nR: x\n", 1),
                       ("obs\nT: a\nR: a\n\nobs\nR: a\nobs\nT: a\nR: a\n", 5),
                       ("obs\nT: a\nR: a\nobs\n# none yet\nR: a\n", 4),
                       ("T: a\nobs\nT: a\nR: a\n", 1), ("# c\n\nR: a\n", 3)]:
        with pytest.raises(ParseError, match="missing T: or R:") as exc:
            lk.parse_observations(text)
        assert exc.value.line == line
