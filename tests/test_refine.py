import itertools
import math
import random

import pytest

import provrefine.hypergraph as hg
import refine_reference
from conftest import random_gadget, random_smudge_analysis
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


def _weighted_part(inst, model):
    """The names of a model's true weighted variables, in either form."""
    if isinstance(inst, mx.ClauseInstance):
        return frozenset(inst.names[v] for v in model if v in inst.weights)
    return frozenset(n for n in model if inst.weights.get(n, 0.0) != 0.0)


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


def _reference_cases():
    """The demo, then 220 random gadgets and smudge programs whose query
    the all-cheap setting derives, so that the solver runs, each with
    random thetas (1 and 0 included) and a random alpha (0 included)."""
    an = datalog.smudge_fixture()
    yield an, _query(an), HyperParams(datalog.smudge_theta()), 1.0
    rng = random.Random(7)
    found = 0
    while found < 220:
        if found % 2:
            an, q = random_gadget(rng)
        else:
            an, _ = random_smudge_analysis(rng, max_sites=8)
            q = _query(an)
        if q not in ana.derive(an, an.bottom()):
            continue
        found += 1
        types = sorted(an.global_graph.rule_types())
        theta = {t: rng.choice([1.0, 1.0, 0.5, 1 / 3, 0.2, 0.9, 0.0])
                 for t in types}
        yield an, q, HyperParams(theta), rng.choice([1.0, 1.0, 0.5, 2.0, 0.0])


def test_clause_encoding_matches_the_formula_reference(monkeypatch):
    """Identical outcomes and identical weighted parts of every model."""
    for an, q, hp, alpha in _reference_cases():
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
        mx.solve_exact(mx.MaxSatInstance(mx.or_(x, mx.var("y")), {"x": -1.0}))


def test_forward_restrict_drops_backward_arcs(smudge):
    a = smudge.bottom()
    g_a = ana.local_provenance(smudge, a)
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
    g_a = ana.local_provenance(smudge, a)
    seeds = ana.encode_params(smudge, a, 0) | ana.encode_params(smudge, a, 1)
    sliced = refine.slice_to_query(g_a, q)
    assert sliced <= g_a
    assert (q in hg.reach(g_a, seeds)) == (q in hg.reach(sliced, seeds))


def test_t_of_mixes_old_seeds_with_projected_new_ones(smudge):
    a = smudge.bottom().with_flips(["0"])
    a2 = a.with_flips(["4"])
    t = refine.t_of(smudge, a, a2)
    assert hg.parse_fact("precise(0)") in t
    assert hg.parse_fact("cheap(4)") in t  # projected from precise(4)


def test_build_phi_rejects_unreachable_query(smudge):
    a = smudge.bottom()
    g_fwd = refine.forward_restrict(ana.local_provenance(smudge, a), smudge, a)
    with pytest.raises(QueryNotInProvenance):
        refine.build_phi(smudge, g_fwd, hg.parse_fact("nope(1)"), a)


def test_decode_model_round_trip(smudge):
    a = smudge.bottom()
    q = _query(smudge)
    g_fwd = refine.slice_to_query(
        refine.forward_restrict(ana.local_provenance(smudge, a), smudge, a), q)
    phi = refine.build_phi(smudge, g_fwd, q, a)
    model, objective = mx.solve_exact(phi.inst)
    a2, h = refine.decode_model(smudge, model, phi, a)
    assert a < a2
    assert h <= g_fwd
    assert q in hg.reach(h, refine.t_of(smudge, a, a2))


def test_success_prob_uses_rule_type_thetas(smudge, smudge_hp):
    g = ana.local_provenance(smudge, smudge.bottom())
    some = g.restrict(list(g.sorted_arcs())[:3])
    expect = sum(refine._log_theta(smudge_hp, e.rule_type) for e in some.arcs)
    assert refine.success_prob_lower(some, smudge_hp) == pytest.approx(expect)


class TestSchedule:
    def test_matches_factorial_brute_force(self):
        rng = random.Random(17)
        for _ in range(80):
            m = rng.randint(1, 6)
            actions = [(rng.uniform(0.05, 1.0), rng.uniform(0.1, 5.0))
                       for _ in range(m)]
            got = refine.schedule_cost(actions, refine.schedule(actions))
            best = min(refine.schedule_cost(actions, perm)
                       for perm in itertools.permutations(range(m)))
            assert got == pytest.approx(best, abs=1e-9)

    def test_is_stable_on_ties(self):
        actions = [(0.5, 1.0), (0.5, 1.0), (0.25, 0.5)]
        assert refine.schedule(actions) == [0, 1, 2]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            refine.schedule([(0.0, 1.0)])
        with pytest.raises(ValueError):
            refine.schedule([(0.5, 0.0)])
