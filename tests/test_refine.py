import dataclasses
import itertools
import math
import random
from collections import Counter

import pytest

import provrefine.hypergraph as hg
import pointsto_reference
import refine_reference
from analysis_reference import analysis_top
from conftest import random_gadget, random_smudge_analysis, uniform
from provrefine import analysis as ana
from provrefine import datalog
from provrefine import maxsat as mx
from provrefine import refine
from provrefine.errors import NotAModel, QueryNotInProvenance
from provrefine.probmodel import HyperParams


@pytest.fixture(scope="module")
def smudge():
    return datalog.smudge_fixture()


@pytest.fixture(scope="module")
def smudge_hp():
    return HyperParams(datalog.smudge_theta())


def _query(an):
    return next(iter(an.queries))


class TestSolveSmudge:
    def test_pessimistic_trace(self, smudge):
        out = refine.solve(smudge, _query(smudge), refine.RefineConfig())
        assert out.answer == "yes"
        assert out.iterations == 3
        assert out.trace[0]["chosen"] == ["0", "4"]
        assert out.trace[1]["chosen"] == ["0", "1", "2", "4"]
        assert out.trace[2]["answer"] == "yes"

    def test_probabilistic_trace(self, smudge, smudge_hp):
        cfg = refine.RefineConfig(strategy="probabilistic",
                                  hyperparams=smudge_hp)
        out = refine.solve(smudge, _query(smudge), cfg)
        assert out.answer == "yes"
        assert out.iterations == 3
        assert out.trace[0]["chosen"] == ["0", "4"]
        # chance of the 0-4 path: 1/2 at the first site, 1/7 at the last
        assert out.trace[0]["log_success"] == pytest.approx(math.log(1 / 14))

    def test_optimistic_trace(self, smudge):
        cfg = refine.RefineConfig(strategy="optimistic")
        out = refine.solve(smudge, _query(smudge), cfg)
        assert out.answer == "yes"
        assert out.iterations == 5
        assert out.trace[0]["chosen"] == ["0", "3"]

    def test_iteration_limit(self, smudge):
        cfg = refine.RefineConfig(max_iterations=1)
        out = refine.solve(smudge, _query(smudge), cfg)
        assert out.answer == "limit"

    def test_unknown_query_rejected(self, smudge):
        with pytest.raises(ValueError):
            refine.solve(smudge, hg.parse_fact("dirty(s0,x)"),
                         refine.RefineConfig())

    def test_approx_solver_agrees_on_smudge(self, smudge):
        cfg = refine.RefineConfig(solver="approx")
        out = refine.solve(smudge, _query(smudge), cfg)
        assert out.answer == "yes"

    @pytest.mark.parametrize("field, value", [
        ("strategy", "pesimistic"), ("strategy", "Optimistic"),
        ("solver", "exakt"), ("solver", None)])
    def test_unknown_strategy_or_solver_rejected(self, smudge, field, value):
        cfg = refine.RefineConfig(**{field: value})
        with pytest.raises(ValueError, match=field):
            refine.solve(smudge, _query(smudge), cfg)

    @pytest.mark.parametrize("field, value", [
        ("alpha", math.nan), ("alpha", math.inf), ("alpha", -math.inf),
        ("solver_budget", math.nan), ("solver_budget", -1.0),
        ("solver_budget", -math.inf), ("max_iterations", -3)])
    def test_unusable_parameters_rejected(self, smudge, field, value,
                                          monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("solved with an unusable parameter")

        monkeypatch.setattr(mx, "solve_exact", forbidden)
        cfg = refine.RefineConfig(**{field: value})
        with pytest.raises(ValueError, match=field):
            refine.solve(smudge, _query(smudge), cfg)

    @pytest.mark.parametrize("field, value, answer, iterations", [
        ("solver_budget", 0.0, "limit", 1), ("solver_budget", math.inf, "yes", 3),
        ("max_iterations", 0, "limit", 0)])
    def test_edge_parameters_accepted(self, smudge, field, value, answer,
                                      iterations):
        cfg = refine.RefineConfig(**{field: value})
        out = refine.solve(smudge, _query(smudge), cfg)
        assert (out.answer, out.iterations) == (answer, iterations)


def _weighted_part(inst, model):
    """The names of a model's true weighted ids."""
    return frozenset(inst.names[v] for v in model if v in inst.weights)


def _run_recording(monkeypatch, solve, an, q, cfg):
    """The outcome of solve, and the weighted part of each solver result."""
    seen = []
    for name in ("solve_exact", "solve_approx"):
        def recording(inst, budget=60.0, inner=getattr(mx, name)):
            result = inner(inst, budget)
            seen.append(None if result is None
                        else (_weighted_part(inst, result[0]), result[1]))
            return result
        monkeypatch.setattr(mx, name, recording)
    try:
        return solve(an, q, cfg), seen
    finally:
        monkeypatch.undo()


def _random_thetas(rng, an):
    types = sorted({a.rule_type for a in an.global_graph.arcs})
    theta = {t: rng.choice([1.0, 1.0, 0.5, 1 / 3, 0.2, 0.9, 0.0])
             for t in types}
    return HyperParams(theta), rng.choice([1.0, 1.0, 0.5, 2.0, 0.0])


_NOWHERE = hg.parse_fact("dirty(end,nowhere)")


def _random_case(rng, i):
    if i % 2:
        return random_gadget(rng)
    an, _ = random_smudge_analysis(rng, max_sites=8)
    return an, _query(an)


def _reference_cases(seen):
    """The demo, then random gadgets and smudge programs, each with random
    thetas (1 and 0 included) and a random alpha (0 included): 220 whose
    query the all-cheap setting derives, so that the solver runs, 40 whose
    query it does not, and 10 asking a declared query that no arc derives.
    `seen` counts the cases of each kind, and of those, the ones whose
    global graph has arcs outside the query's backward cone."""
    an = datalog.smudge_fixture()
    yield an, _query(an), HyperParams(datalog.smudge_theta()), 1.0
    quota = {"solver runs": 220, "underived": 40, "no arc": 10}
    rng, other_rng, tries = random.Random(7), random.Random(8), 0
    while any(seen[kind] < n for kind, n in quota.items()):
        if seen["solver runs"] < quota["solver runs"]:
            an, q = _random_case(rng, seen["solver runs"])
            if q not in ana.derive(an, an.bottom()):
                continue
            kind, case_rng = "solver runs", rng
        else:
            tries += 1
            an, q = _random_case(other_rng, tries)
            if q not in ana.derive(an, an.bottom()) and \
                    seen["underived"] < quota["underived"]:
                kind = "underived"
            elif seen["no arc"] < quota["no arc"]:
                kind = "no arc"
                an = dataclasses.replace(an, queries=an.queries | {_NOWHERE})
                q = _NOWHERE
            else:
                continue
            case_rng = other_rng
        seen[kind] += 1
        if len(refine.slice_to_query(an.global_graph, q).arcs) < len(an.global_graph.arcs):
            seen[kind, "outside the cone"] += 1
        yield (an, q, *_random_thetas(case_rng, an))


def test_clause_encoding_matches_the_formula_reference(monkeypatch):
    """Identical outcomes and identical weighted parts of every model."""
    seen = Counter()
    for an, q, hp, alpha in _reference_cases(seen):
        for strategy in refine.STRATEGIES:
            if alpha == 0.0 and strategy != "optimistic":
                # P0 facts weigh nothing, so which flips a tied optimum
                # uses falls to the completion order of the unnamed arcs;
                # the reference took them in name order
                continue
            for solver in refine.SOLVERS:
                cfg = refine.RefineConfig(strategy=strategy, solver=solver,
                                          hyperparams=hp, alpha=alpha)
                got = _run_recording(monkeypatch, refine.solve, an, q, cfg)
                expect = _run_recording(monkeypatch, refine_reference.solve,
                                        an, q, cfg)
                assert got == expect, (str(q), strategy, solver, alpha)
    assert seen["solver runs"] == 220
    assert seen["underived"] == 40 and seen["no arc"] == 10
    for kind in ("solver runs", "underived"):
        assert seen[kind, "outside the cone"] >= 10, seen
    assert seen["no arc", "outside the cone"] == 10


def _cone(an, q):
    """q's cone index as `refine.solve` builds it, with the parameter
    facts."""
    return hg.Index.cone(an.global_graph, q,
                         [*an.encode0.values(), *an.encode1.values()])


def _sliced(cone, q, keep):
    return hg.Hypergraph(cone.arcs[j] for j in cone.slice(cone.ids[q], keep))


def _assert_same_instance(got, expect, ordered=True):
    """Equal nvars, equal weights and names in the same order, and equal
    clauses: in the same order, or else as a multiset."""
    assert got.nvars == expect.nvars
    if ordered:
        assert got.clauses == expect.clauses
    else:
        assert Counter(got.clauses) == Counter(expect.clauses)
    assert list(got.weights.items()) == list(expect.weights.items())
    assert list(got.names.items()) == list(expect.names.items())
    assert got.hidden == expect.hidden == frozenset()


def test_the_cone_encoding_matches_the_graph_keyed_clauses(monkeypatch):
    """On every iteration, build_phi and choose_optimistic over the
    per-solve numbering of the cone emit the instances that the oracles
    keyed by a Hypergraph's arcs and facts do: the same nvars, the same
    weights and names in the same order, and the same clauses.  The
    optimistic oracle orders its arc clauses by the iteration order of a
    frozenset, which follows the hash seed, so those compare as a
    multiset."""
    checked, current, instances = Counter(), {}, []
    inner, choose, run_solver = (refine.build_phi, refine.choose_optimistic,
                                 refine._run_solver)

    def compared(enc, kept, a):
        phi = inner(enc, kept, a)
        g_fwd = hg.Hypergraph(enc.cone.arcs[j] for j in kept)
        expect = refine_reference.build_phi_clauses(
            enc.an, g_fwd, enc.cone.facts[enc.q], a, current["hp"],
            current["alpha"])
        _assert_same_instance(phi.inst, expect)
        checked[current["alpha"] != 0.0, bool(phi.inst.weights)] += 1
        return phi

    def recording(inst, cfg):
        instances.append(inst)
        return run_solver(inst, cfg)

    def compared_optimistic(enc, kept, a, cfg):
        instances.clear()
        a2 = choose(enc, kept, a, cfg)
        g_a = hg.Hypergraph(enc.cone.arcs[j] for j in kept)
        expect = refine_reference.choose_optimistic_clauses(
            enc.an, g_a, enc.cone.facts[enc.q], a, cfg.alpha)
        [got] = instances
        _assert_same_instance(got, expect, ordered=False)
        checked["optimistic", cfg.alpha != 0.0] += 1
        return a2

    monkeypatch.setattr(refine, "build_phi", compared)
    monkeypatch.setattr(refine, "choose_optimistic", compared_optimistic)
    monkeypatch.setattr(refine, "_run_solver", recording)
    demo = datalog.smudge_fixture()
    demo_hp = HyperParams(datalog.smudge_theta())
    cases = [(demo, _query(demo), demo_hp, alpha)
             for alpha in (0.0, 0.5, 1.0, 2.0)]
    # a client with cyclic provenance, where the forward restriction cuts
    pointsto = pointsto_reference.pointsto_analysis()
    pointsto_hp = uniform(sorted(
        {arc.rule_type for arc in pointsto.global_graph.arcs}))
    cases += [(pointsto, q, pointsto_hp, alpha)
              for q in pointsto_reference.QUERIES for alpha in (0.0, 1.0)]
    for an, q, hp, alpha in itertools.chain(cases, _reference_cases(Counter())):
        for strategy in refine.STRATEGIES:
            cfg = refine.RefineConfig(strategy=strategy, hyperparams=hp,
                                      alpha=alpha)
            current.update(hp=hp if strategy == "probabilistic" else None,
                           alpha=alpha)
            refine.solve(an, q, cfg)
    # alpha 0 with weighted arcs, alpha 0 with nothing weighted, and others
    assert checked[False, True] >= 20 and checked[False, False] >= 20
    assert checked[True, True] >= 200
    assert checked["optimistic", False] >= 20
    assert checked["optimistic", True] >= 150


def test_optimistic_choices_are_cheapest_refinements(monkeypatch):
    """Each optimistic choice a2 flips a parameter that a left cheap, leaves
    cheap facts that cannot derive q through the kept arcs, and flips no
    more parameters than needed: checked by brute force over the subsets
    of the unflipped parameters."""
    checked = Counter()
    choose = refine.choose_optimistic

    def brute_forced(enc, kept, a, cfg):
        a2 = choose(enc, kept, a, cfg)
        unflipped = sorted(x for x, v in a.bits if v == 0)
        assert len(unflipped) <= 10

        def rules_out(flips):
            seeds = [enc.an.encode0[x] for x in unflipped if x not in flips]
            return enc.q not in enc.cone.run(seeds, kept)

        fewest = next(k for k in range(1, len(unflipped) + 1)
                      if any(rules_out(set(flips)) for flips in
                             itertools.combinations(unflipped, k)))
        assert a < a2
        flips = set(a2.flips()) - set(a.flips())
        assert rules_out(flips)
        assert len(flips) == fewest
        checked["choices"] += 1
        return a2

    monkeypatch.setattr(refine, "choose_optimistic", brute_forced)
    rng = random.Random(19)
    for i in range(400):
        an, q = _random_case(rng, i)
        cfg = refine.RefineConfig(strategy="optimistic",
                                  alpha=rng.choice([0.5, 1.0, 2.0]))
        refine.solve(an, q, cfg)
    assert checked["choices"] >= 150, checked


@pytest.mark.parametrize("solver", refine.SOLVERS)
def test_choose_optimistic_with_nothing_left_to_flip_raises(smudge, solver):
    """At the top no refinement exists: the optimistic step raises
    NotAModel, as the pessimistic step does on an unsatisfiable constraint,
    and returns no abstraction."""
    q = _query(smudge)
    cone = _cone(smudge, q)
    enc = refine.Encoding(smudge, cone, q, None, 1.0)
    cfg = refine.RefineConfig(strategy="optimistic", solver=solver)
    with pytest.raises(NotAModel):
        refine.choose_optimistic(enc, cone.slice(enc.q, lambda j: True),
                                 analysis_top(smudge), cfg)


def test_one_encoding_per_solve_that_reaches_a_solver(monkeypatch):
    """Every strategy builds one Encoding in a solve whose first iteration
    reaches the solver, and none in a solve that answers before it."""
    built, calls, seen = [], [], Counter()
    run_solver = refine._run_solver

    class Counted(refine.Encoding):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    def counting(inst, cfg):
        calls.append(inst)
        return run_solver(inst, cfg)

    monkeypatch.setattr(refine, "Encoding", Counted)
    monkeypatch.setattr(refine, "_run_solver", counting)
    rng = random.Random(23)
    demo = datalog.smudge_fixture()
    cases = [(demo, _query(demo))] + [_random_case(rng, i) for i in range(60)]
    for an, q in cases:
        for strategy in refine.STRATEGIES:
            built.clear()
            calls.clear()
            cfg = refine.RefineConfig(strategy=strategy,
                                      hyperparams=_random_thetas(rng, an)[0])
            out = refine.solve(an, q, cfg)
            assert len(built) == min(1, len(calls)), (str(q), strategy)
            if out.iterations == 1 and out.answer == "yes":
                assert not built
            seen[strategy, bool(calls)] += 1
    for strategy in refine.STRATEGIES:
        assert seen[strategy, True] >= 20 and seen[strategy, False] >= 5, seen


def test_the_cone_index_agrees_with_the_whole_graph():
    """On q's backward cone, the analysis under a, the "no" test and both
    slices equal their versions over the whole global graph."""
    rng = random.Random(11)
    outside = 0
    for i in range(300):
        if i % 2:
            an, q = random_gadget(rng)
            a = an.bottom().with_flips(
                p for p in an.params if rng.random() < 0.5)
        else:
            an, a = random_smudge_analysis(rng, max_sites=8)
            # the declared query, or any other fact of the graph
            q = rng.choice([_query(an)] + sorted(an.global_graph.vertices))
        cone = _cone(an, q)
        root = cone.ids[q]
        outside += len(cone.arcs) < len(an.global_graph.arcs)
        p0 = ana.encode_params(an, a, 0)
        p1 = ana.encode_params(an, a, 1)
        dist = cone.run(p0 | p1)
        heads, bodies = cone.heads, cone.bodies
        derived = lambda j: all(b in dist for b in bodies[j])
        forward = lambda j: heads[j] in dist and all(
            b in dist and dist[b] < dist[heads[j]] for b in bodies[j])
        assert (q in ana.derive(an, a)) == (root in dist)
        whole = hg.distances(an.global_graph, p0 | p1)
        # a parameter fact outside the cone is reached only as a seed
        in_cone = {q} | {f for e in cone.arcs for f in (e.head, *e.body)}
        for u, j in cone.ids.items():
            expect = (whole.get(u, hg.INFINITY) if u in in_cone
                      else 0 if u in p0 | p1 else hg.INFINITY)
            assert dist.get(j, hg.INFINITY) == expect
        g_a = hg.Hypergraph(ana.local_provenance(an, a).arcs)
        assert (root in cone.run(p1)) == (q in hg.reach(g_a, p1))
        assert _sliced(cone, q, forward) == refine.slice_to_query(
            refine.forward_restrict(g_a, an, a), q)
        assert _sliced(cone, q, derived) == refine.slice_to_query(g_a, q)
    assert outside >= 100


def test_solve_never_closes_over_the_global_graph(smudge_hp, monkeypatch):
    """The per-iteration steps run on the cone index alone, and nothing is
    cached on the analysis or its graph."""
    def forbidden(*args, **kwargs):
        raise AssertionError("refinement went over the global graph")

    for name in ("derive", "local_provenance"):
        monkeypatch.setattr(ana, name, forbidden)
    for name in ("induced", "distances", "forward_arcs"):
        monkeypatch.setattr(hg, name, forbidden)
    for name in ("forward_restrict", "slice_to_query"):
        monkeypatch.setattr(refine, name, forbidden)
    analyses = [datalog.smudge_fixture()]
    rng = random.Random(5)
    analyses += [random_smudge_analysis(rng, max_sites=8)[0] for _ in range(6)]
    reach = hg.reach
    for an in analyses:
        g = an.global_graph

        def local_reach(h, t, g=g):
            assert h is not g, "refinement closed the global graph"
            return reach(h, t)

        monkeypatch.setattr(hg, "reach", local_reach)
        before = (dict(vars(an)), dict(vars(g)))
        for strategy in refine.STRATEGIES:
            for solver in refine.SOLVERS:
                cfg = refine.RefineConfig(strategy=strategy, solver=solver,
                                          hyperparams=smudge_hp)
                refine.solve(an, _query(an), cfg)
        assert (dict(vars(an)), dict(vars(g))) == before


def test_solve_never_compiles_a_formula(smudge, smudge_hp, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("refinement went through Tseytin")

    monkeypatch.setattr(mx, "compile_instance", forbidden)
    monkeypatch.setattr(mx, "_tseytin", forbidden)
    for strategy in refine.STRATEGIES:
        for solver in refine.SOLVERS:
            cfg = refine.RefineConfig(strategy=strategy, solver=solver,
                                      hyperparams=smudge_hp)
            assert refine.solve(smudge, _query(smudge), cfg).answer == "yes"


def test_final_check_rejects_a_corrupted_incumbent(smudge, monkeypatch):
    # without propagation, the False-first completion leaves v_q unjustified
    monkeypatch.setattr(mx._Engine, "propagate", lambda self: True)
    with pytest.raises(NotAModel):
        refine.solve(smudge, _query(smudge), refine.RefineConfig())
    x = mx.var("x")
    with pytest.raises(NotAModel):
        mx.solve_exact(mx.compile_instance(
            mx.MaxSatInstance(mx.or_(x, mx.var("y")), {"x": -1.0})))


def test_forward_restrict_drops_backward_arcs(smudge):
    a = smudge.bottom()
    g_a = hg.Hypergraph(ana.local_provenance(smudge, a).arcs)
    fwd = refine.forward_restrict(g_a, smudge, a)
    seeds = ana.encode_params(smudge, a, 0) | ana.encode_params(smudge, a, 1)
    dist = hg.distances(g_a, seeds)
    for e in g_a.arcs:
        in_fwd = e in fwd.arcs
        expect = dist[e.head] is not hg.INFINITY and \
            all(dist[e.head] > dist[b] for b in e.body)
        assert in_fwd == expect


def test_slice_to_query_preserves_derivability(smudge):
    a = smudge.bottom()
    q = _query(smudge)
    g_a = hg.Hypergraph(ana.local_provenance(smudge, a).arcs)
    seeds = ana.encode_params(smudge, a, 0) | ana.encode_params(smudge, a, 1)
    sliced = refine.slice_to_query(g_a, q)
    assert sliced.arcs <= g_a.arcs
    assert (q in hg.reach(g_a, seeds)) == (q in hg.reach(sliced, seeds))


def test_t_of_mixes_old_seeds_with_projected_new_ones(smudge):
    a = smudge.bottom().with_flips(["0"])
    a2 = a.with_flips(["4"])
    t = refine.t_of(smudge, a, a2)
    assert hg.parse_fact("precise(0)") in t
    assert hg.parse_fact("cheap(4)") in t  # projected from precise(4)


def _forward(cone, q, an, a):
    """The ids of q's forward cone arcs under a, sliced to q."""
    dist = cone.run(ana.encode_params(an, a, 0) | ana.encode_params(an, a, 1))
    heads, bodies = cone.heads, cone.bodies
    return cone.slice(cone.ids[q], lambda j: heads[j] in dist and all(
        b in dist and dist[b] < dist[heads[j]] for b in bodies[j]))


def test_build_phi_rejects_unreachable_query(smudge):
    a = smudge.bottom()
    nope = hg.parse_fact("nope(1)")
    cone = _cone(smudge, nope)
    enc = refine.Encoding(smudge, cone, nope, None, 1.0)
    with pytest.raises(QueryNotInProvenance):
        refine.build_phi(enc, cone.slice(enc.q, lambda j: True), a)
    q = _query(smudge)
    cone = _cone(smudge, q)
    enc = refine.Encoding(smudge, cone, q, None, 1.0)
    with pytest.raises(QueryNotInProvenance):
        refine.build_phi(enc, [], a)


def test_decode_model_round_trip(smudge, smudge_hp):
    a = smudge.bottom()
    q = _query(smudge)
    cone = _cone(smudge, q)
    kept = _forward(cone, q, smudge, a)
    g_fwd = hg.Hypergraph(cone.arcs[j] for j in kept)
    assert g_fwd == refine.slice_to_query(
        refine.forward_restrict(
            hg.Hypergraph(ana.local_provenance(smudge, a).arcs), smudge, a), q)
    enc = refine.Encoding(smudge, cone, q, smudge_hp, 1.0)
    phi = refine.build_phi(enc, kept, a)
    model, objective = mx.solve_exact(phi.inst)
    a2, log_success = refine.decode_model(enc, model, phi, a)
    h = hg.Hypergraph(cone.arcs[phi.arcs[i - 1]] for i in model
                      if i <= len(phi.arcs))
    assert a < a2
    assert h.arcs <= g_fwd.arcs
    assert q in hg.reach(h, refine.t_of(smudge, a, a2))
    assert log_success == refine_reference.success_prob_lower(h, smudge_hp)


def test_success_prob_uses_rule_type_thetas(smudge, smudge_hp):
    """decode_model's log success sums log theta over the selected arcs."""
    a = smudge.bottom()
    q = _query(smudge)
    cone = _cone(smudge, q)
    enc = refine.Encoding(smudge, cone, q, smudge_hp, 1.0)
    phi = refine.build_phi(enc, _forward(cone, q, smudge, a), a)
    arcs = set(range(1, len(phi.arcs) + 1))
    flip = phi.fact_ids[enc.enc0[smudge.params[0]]]
    _, log_success = refine.decode_model(enc, arcs | {flip}, phi, a)
    every = [cone.arcs[j] for j in phi.arcs]
    expect = sum(refine._log_theta(smudge_hp, e.rule_type) for e in every)
    assert log_success == pytest.approx(expect)
    assert len({e.rule_type for e in every}) > 1 and expect < 0.0


class TestSchedule:
    def test_matches_factorial_brute_force(self):
        rng = random.Random(17)
        for _ in range(80):
            m = rng.randint(1, 6)
            actions = [(rng.uniform(0.05, 1.0), rng.uniform(0.1, 5.0))
                       for _ in range(m)]
            got = refine_reference.schedule_cost(
                actions, refine_reference.schedule(actions))
            best = min(refine_reference.schedule_cost(actions, perm)
                       for perm in itertools.permutations(range(m)))
            assert got == pytest.approx(best, abs=1e-9)

    def test_is_stable_on_ties(self):
        actions = [(0.5, 1.0), (0.5, 1.0), (0.25, 0.5)]
        assert refine_reference.schedule(actions) == [0, 1, 2]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            refine_reference.schedule([(0.0, 1.0)])
        with pytest.raises(ValueError):
            refine_reference.schedule([(0.5, 0.0)])
