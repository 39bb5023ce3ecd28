"""End-to-end acceptance checks, one per headline guarantee.

Each test prints a single PASS line (visible with -s; pytest -v shows the
verdict per test either way).  Oracles are deliberately naive: full
closures, full enumerations, and factorial scans.
"""

import itertools
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import provrefine.hypergraph as hg
from provrefine import analysis as ana
from provrefine import datalog
from provrefine import learning
from provrefine import likelihood as lk
from provrefine import maxsat as mx
from provrefine import probmodel as pm
from provrefine import refine
from provrefine.hypergraph import Arc, Hypergraph
from provrefine.probmodel import HyperParams

import likelihood_reference
import loop_formula_reference as lfr
import refine_reference
from conftest import (fact, formula_objective, naive_closure, random_gadget,
                      random_hypergraph, random_seed_set, solve_formula)
from datalog_reference import smudge_analysis
from hypergraph_reference import run
from likelihood_reference import Observation, observations


def _report(n, text):
    print(f"criterion {n}: PASS — {text}")


# -- 1 ----------------------------------------------------------------------


def test_criterion_1_reachability_oracle():
    rng = random.Random(101)
    start = time.monotonic()
    for _ in range(1000):
        g = random_hypergraph(rng, max_verts=12, max_arcs=20)
        t = random_seed_set(rng, g)
        assert hg.reach(g, t) == naive_closure(g, t)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(1, f"1000 random graphs, worklist == naive closure, {elapsed:.2f}s")


# -- 2 & 3 ------------------------------------------------------------------


def _likelihood_instance(rng):
    while True:
        g = random_hypergraph(rng, max_verts=7,
                              max_arcs=rng.choice([4, 6, 8, 10]),
                              acyclic=rng.random() < 0.5,
                              empty_body_ok=False)
        if g.arcs and not any(a.head in a.body for a in g.arcs):
            break
    hp = HyperParams({k: rng.uniform(0.05, 0.95)
                     for k in sorted({a.rule_type for a in g.arcs})})
    arcs = sorted(g.arcs, key=Arc._key)  # draws that follow no hash order
    obs = []
    for _ in range(rng.randint(1, 3)):
        t = random_seed_set(rng, g)
        r = hg.reach(Hypergraph(a for a in arcs if rng.random() < 0.7), t)
        obs.append(Observation(t=t, r=r))
    return g, hp, lk.ObservationBatch.of(obs)


# prints a digest of the first instances that the seeded generators above
# and `test_likelihood._random_instance` draw from Random(202)
_INSTANCE_STREAM_DIGEST = """
import hashlib, random
from provrefine.hypergraph import Arc, Fact
from test_acceptance import _likelihood_instance
from test_likelihood import _random_instance

def drawn(g, hp, ts, rs):
    return (sorted(g.arcs, key=Arc._key), sorted(hp.theta.items()),
            [sorted(t, key=Fact._key) for t in ts],
            [sorted(r, key=Fact._key) for r in rs])

out, rng = [], random.Random(202)
for _ in range(200):
    g, hp, batch = _likelihood_instance(rng)
    rs = [[f for f, m in batch.rmask.items() if m >> k & 1]
          for k in range(len(batch.t))]
    out.append(drawn(g, hp, batch.t, rs))
rng = random.Random(202)
for _ in range(200):
    g, hp, obs = _random_instance(rng)
    out.append(drawn(g, hp, [o.t for o in obs], [o.r for o in obs]))
print(hashlib.sha256(repr(out).encode()).hexdigest())
"""


@pytest.mark.hashseed
def test_the_seeded_instance_streams_do_not_follow_the_hash_seed():
    """A seed fixes its instances in any process: the generators draw theta
    over sorted rule types and sub-graphs over arcs in key order, not in
    the iteration order of a set, which follows the hash seed (drawn in
    that order, 55 of the first 500 criterion-2 values differed between
    two processes)."""
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    digests = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        digests.add(subprocess.run(
            [sys.executable, "-c", _INSTANCE_STREAM_DIGEST], env=env,
            capture_output=True, text=True, check=True).stdout)
    assert len(digests) == 1


@pytest.mark.hashseed
def test_criterion_2_likelihood_sandwich():
    rng = random.Random(202)
    start = time.monotonic()
    tight = 0
    acyclic_exact = 0
    for _ in range(500):
        g, hp, obs = _likelihood_instance(rng)
        bf = lk.bound_terms(hg.Index(g.arcs), obs)
        lo = lk.lower_bound(bf, hp)
        up = lk.upper_bound(bf, hp)
        exact = lk.exact_likelihood(hg.Index(g.arcs), obs, hp)
        assert lo <= exact + 1e-9
        assert exact <= up + 1e-9
        ref = likelihood_reference.bound_terms(g, observations(obs))
        if all(ph.lower_clauses == ph.upper_clauses
               for ph in ref.per_head.values()):
            tight += 1
            if lo > pm.NEG_INF or up > pm.NEG_INF:
                assert lo == pytest.approx(up, abs=1e-9)
            else:
                assert lo == up
        # singleton loop sets are trivial; acyclic means no real cycle
        if not any(len(l) > 1 for l in lfr.loops(g)):
            acyclic_exact += 1
            if exact > pm.NEG_INF:
                assert up == pytest.approx(exact, abs=1e-9)
            else:
                assert up == pm.NEG_INF
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    assert tight > 0 and acyclic_exact > 0
    _report(2, f"500 instances sandwiched; {tight} tight, "
               f"{acyclic_exact} acyclic-exact, {elapsed:.1f}s")


@pytest.mark.hashseed
def test_criterion_3_loop_formula_oracle():
    rng = random.Random(202)  # the same instance stream as criterion 2
    start = time.monotonic()
    for _ in range(500):
        g, hp, obs = _likelihood_instance(rng)
        formulas = [lfr.loop_formula(g, o.t, o.r) for o in observations(obs)]
        wmc = lfr.loop_formula_wmc(g, formulas, hp)
        exact = lk.exact_likelihood(hg.Index(g.arcs), obs, hp)
        if exact == pm.NEG_INF:
            assert wmc == pm.NEG_INF
        else:
            assert wmc == pytest.approx(exact, abs=1e-9)
    elapsed = time.monotonic() - start
    _report(3, f"loop-formula WMC == exact likelihood on 500 instances, "
               f"{elapsed:.1f}s")


# -- 4 ----------------------------------------------------------------------


def test_criterion_4_schedule_optimality():
    rng = random.Random(404)
    start = time.monotonic()
    for _ in range(200):
        m = rng.randint(1, 6)
        actions = [(rng.uniform(0.01, 1.0), rng.uniform(0.1, 10.0))
                   for _ in range(m)]
        got = refine_reference.schedule_cost(
            actions, refine_reference.schedule(actions))
        best = min(refine_reference.schedule_cost(actions, perm)
                   for perm in itertools.permutations(range(m)))
        assert got == pytest.approx(best, abs=1e-9)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(4, f"ratio schedule == factorial minimum on 200 instances, "
               f"{elapsed:.2f}s")


# -- 5 ----------------------------------------------------------------------


def _formula_eval(f, assign):
    kind = f[0]
    if kind == "const":
        return f[1]
    if kind == "var":
        return assign.get(f[1], False)
    if kind == "not":
        return not _formula_eval(f[1], assign)
    if kind == "and":
        return all(_formula_eval(g, assign) for g in f[1])
    if kind == "or":
        return any(_formula_eval(g, assign) for g in f[1])
    if kind == "implies":
        return (not _formula_eval(f[1], assign)) or _formula_eval(f[2], assign)
    if kind == "iff":
        return _formula_eval(f[1], assign) == _formula_eval(f[2], assign)
    if kind == "exists":
        names = sorted(f[1])
        for bits in itertools.product([False, True], repeat=len(names)):
            trial = dict(assign)
            trial.update(zip(names, bits))
            if _formula_eval(f[2], trial):
                return True
        return False
    raise ValueError(kind)


def _maxsat_brute(inst):
    names = sorted(set(inst.weights) | mx.formula_vars(inst.hard))
    best = None
    for bits in itertools.product([False, True], repeat=len(names)):
        assign = dict(zip(names, bits))
        if not _formula_eval(inst.hard, assign):
            continue
        value = sum(w for v, w in inst.weights.items() if assign.get(v))
        if best is None or value > best:
            best = value
    return best


def _random_maxsat(rng, max_vars):
    n = rng.randint(1, max_vars)
    names = [f"x{i}" for i in range(n)]

    def go(depth):
        if depth == 0 or rng.random() < 0.4:
            v = mx.var(rng.choice(names))
            return mx.not_(v) if rng.random() < 0.5 else v
        op = rng.choice(["and", "or", "implies", "iff"])
        kids = go(depth - 1), go(depth - 1)
        if op == "and":
            return mx.and_(*kids)
        if op == "or":
            return mx.or_(*kids)
        if op == "implies":
            return mx.implies(*kids)
        return mx.iff(*kids)

    weights = {v: rng.uniform(-3, 3)
               for v in rng.sample(names, rng.randint(0, n))}
    return mx.MaxSatInstance(go(3), weights)


def test_criterion_5_maxsat_correctness():
    rng = random.Random(505)
    start = time.monotonic()
    # exact vs brute force
    for i in range(300):
        inst = _random_maxsat(rng, max_vars=16 if i % 10 == 0 else 8)
        expect = _maxsat_brute(inst)
        got = solve_formula(mx.solve_exact, inst)
        if expect is None:
            assert got is None
        else:
            model, objective = got
            assert objective == pytest.approx(expect, abs=1e-9)
            assert objective == pytest.approx(formula_objective(inst, model), abs=1e-9)
    # approximate solver: a valid model on every satisfiable instance
    sat_count = 0
    for i in range(100):
        inst = _random_maxsat(rng, max_vars=8)
        expect = _maxsat_brute(inst)
        got = solve_formula(mx.solve_approx, inst, budget=10.0)
        if expect is None:
            assert got is None
            continue
        sat_count += 1
        model, objective = got
        assert objective == pytest.approx(formula_objective(inst, model), abs=1e-9)
        assert objective <= expect + 1e-9
    # WCNF export: the optimum survives the integral encoding
    for _ in range(30):
        inst = _random_maxsat(rng, max_vars=5)
        expect = _maxsat_brute(inst)
        if expect is None:
            continue
        wcnf = mx.to_wcnf(mx.compile_instance(inst))
        top = int(wcnf.split()[4])
        hard = [tuple(int(t) for t in line.split()[1:-1])
                for line in wcnf.splitlines()[1:]
                if int(line.split()[0]) == top]
        softs = [(int(line.split()[0]), int(line.split()[1]))
                 for line in wcnf.splitlines()[1:]
                 if int(line.split()[0]) != top]
        nvars = int(wcnf.split()[2])
        best = None
        for bits in itertools.product([False, True], repeat=nvars):
            assign = dict(enumerate(bits, start=1))
            if not all(any(assign[abs(l)] == (l > 0) for l in c)
                       for c in hard):
                continue
            value = sum(w for w, lit in softs
                        if assign[abs(lit)] == (lit > 0))
            if best is None or value > best:
                best = value
        assert best is not None
        base = sum(-w for v, w in inst.weights.items() if w < 0)
        got = best / mx.WEIGHT_SCALE - base
        assert got == pytest.approx(expect, abs=1e-5)
    elapsed = time.monotonic() - start
    _report(5, f"300 exact == brute, {sat_count} valid approximate models, "
               f"30 WCNF round trips, {elapsed:.1f}s")


# -- 6 ----------------------------------------------------------------------


def test_criterion_6_phi_bijection():
    rng = random.Random(606)
    start = time.monotonic()
    checked = 0
    while checked < 100:
        an, q = random_gadget(rng)
        a = frozenset()
        cone = hg.Index.cone(an.global_graph, q,
                             [*an.encode0.values(), *an.encode1.values()])
        heads, bodies, root = cone.heads, cone.bodies, cone.ids[q]
        dist = run(cone, ana.encode_params(an, a, 0) | ana.encode_params(an, a, 1))
        # every forward arc of q's cone, whether or not it leads on to q
        kept = [j for j in range(len(cone.arcs)) if heads[j] in dist and all(
            b in dist and dist[b] < dist[heads[j]] for b in bodies[j])]
        if not any(heads[j] == root or root in bodies[j] for j in kept):
            continue
        checked += 1
        enc = refine.Encoding(an, cone, q, None, 1.0)
        phi = refine.build_phi(enc, kept, a)
        assert sorted(phi.arcs) == sorted(kept)
        arcs = [cone.arcs[j] for j in phi.arcs]  # arc variable k is arcs[k - 1]
        # the target set: (flips, sub-hypergraph) pairs deriving the query
        feasible = set()
        for r in range(1, len(an.params) + 1):
            for s in itertools.combinations(an.params, r):
                seeds = frozenset(an.encode0[p] for p in s)
                for k in range(len(arcs) + 1):
                    for sub in itertools.combinations(arcs, k):
                        if q in hg.reach(Hypergraph(sub), seeds):
                            feasible.add((frozenset(s), frozenset(sub)))
        # enumerate the models of the emitted clauses over the visible ids
        # (arc and vertex variables), each y_e true iff e and its body are
        n, fact_ids = len(arcs), phi.fact_ids
        ids = list(range(1, n + 1)) + sorted(fact_ids.values())
        models = []
        for bits in itertools.product([False, True], repeat=len(ids)):
            true = {i for i, bit in zip(ids, bits) if bit}
            fired = {x + n + len(fact_ids) for x, j in enumerate(phi.arcs, 1)
                     if x in true
                     and all(fact_ids[b] in true for b in bodies[j])}
            if all(any((l > 0) == (abs(l) in true or abs(l) in fired)
                       for l in clause) for clause in phi.inst.clauses):
                models.append(frozenset(true))
        decoded = set()
        for model in models:
            a2, _ = refine.decode_model(enc, model, phi, a)
            chosen = frozenset(arcs[x - 1] for x in model if x <= n)
            decoded.add((a2, chosen))
        assert len(models) == len(feasible)
        assert len(decoded) == len(models)  # decoding is injective
        assert decoded == feasible  # ... and onto the target set
    elapsed = time.monotonic() - start
    _report(6, f"model count == |feasible refinements| on {checked} gadgets, "
               f"decode injective, {elapsed:.1f}s")


# -- 7 ----------------------------------------------------------------------


def _interpret_demo_program():
    """Concrete execution of the five-site example, fully precise."""
    values = {"x": 0, "y": 0, "z": 0, "v": 0}
    dirty = {"x"}

    def smudge(k, src, dst):
        if src in dirty and (values[src] + values[dst]) % k == 0:
            dirty.add(dst)

    values["x"] = 10                      # s0
    smudge(2, "x", "y")                   # site 0
    values["y"] = values["y"] + 2 * values["x"]  # l0p
    smudge(3, "y", "z")                   # site 1
    if "z" in dirty and values["y"] > 5:  # g1
        values["v"] = values["x"] + values["y"]
    smudge(3, "z", "v")                   # site 2
    smudge(5, "x", "y")                   # site 3
    smudge(7, "y", "v")                   # site 4
    return values, dirty


@pytest.mark.hashseed
def test_criterion_7_smudge_end_to_end():
    an = datalog.smudge_fixture()
    q = next(iter(an.queries))
    hp = HyperParams(datalog.smudge_theta())
    start = time.monotonic()
    configs = {
        "pessimistic": refine.RefineConfig(),
        "probabilistic": refine.RefineConfig(strategy="probabilistic",
                                             hyperparams=hp),
    }
    outcomes = {}
    for name, cfg in configs.items():
        out = refine.solve(an, q, cfg)
        outcomes[name] = out
        assert out.trace[0]["chosen"] == ["0", "4"], name
        assert out.answer == "yes" and out.iterations <= 4, name
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    # a concrete interpreter agrees: v never gets dirty
    values, dirty = _interpret_demo_program()
    assert "v" not in dirty
    assert values["y"] == 20  # which is why the guards at 1 and 4 fail
    _report(7, f"both strategies flip {{0,4}} first and answer yes in "
               f"{outcomes['pessimistic'].iterations} iterations, "
               f"{elapsed:.2f}s; interpreter confirms v stays clean")


# -- 8 ----------------------------------------------------------------------


def test_criterion_8_hyperparameter_recovery():
    rng = random.Random(0)
    start = time.monotonic()
    groups = []
    for _ in range(120):
        k = rng.choice([2, 3, 5])
        init = {"x": rng.randrange(0, 200), "y": rng.randrange(0, 200)}
        an = smudge_analysis([("l0", k, "x", "y")], init_values=init)
        bp = ana.local_provenance(an, frozenset())
        obs = lk.observe(an, [frozenset(["l0"])])
        groups.append(learning.ObservationGroup(bp, obs))
    # two programs whose k=7 site exists cheaply but is never exercised
    for init in ({"x": 1, "y": 2, "z": 0}, {"x": 3, "y": 4, "z": 0}):
        an = smudge_analysis(
            [("l0", 2, "x", "y"), ("l1", 7, "y", "z")], init_values=init)
        bp = ana.local_provenance(an, frozenset())
        obs = lk.observe(an, [frozenset(["l0"])])
        groups.append(learning.ObservationGroup(bp, obs))
    hp = learning.learn(learning.TrainingSet(groups))
    for k in (2, 3, 5):
        assert hp.theta[f"cheap_smudge{k}"] == pytest.approx(1 / k, abs=0.1)
    assert "cheap_smudge7" in hp.unconstrained
    assert hp.theta["cheap_smudge7"] == 1.0
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    learned = {k: round(hp.theta[f"cheap_smudge{k}"], 3) for k in (2, 3, 5)}
    _report(8, f"122 programs: learned {learned} vs 1/k, "
               f"smudge7 flagged unconstrained, {elapsed:.1f}s")


# -- 9 ----------------------------------------------------------------------


def test_criterion_9_strategy_trend():
    rng = random.Random(2)
    start = time.monotonic()
    solved = {"pessimistic": 0, "optimistic": 0}
    for _ in range(100):
        objs = ["x", "y", "z"]
        smudges = []
        for j in range(rng.randint(2, 4)):
            src, dst = rng.sample(objs, 2)
            smudges.append((f"l{j}", rng.choice([2, 3, 5, 7]), src, dst))
        init = {o: rng.randrange(0, 50) for o in objs}
        an = smudge_analysis(smudges, init_values=init)
        q = next(iter(an.queries))
        budget = 3
        outcomes = {}
        for strategy in ("pessimistic", "optimistic"):
            cfg = refine.RefineConfig(strategy=strategy, max_iterations=budget)
            outcomes[strategy] = refine.solve(an, q, cfg)
            if outcomes[strategy].answer != "limit":
                solved[strategy] += 1
        # with every theta at 1, the probabilistic weights collapse onto
        # the pessimistic ones, so the runs must be indistinguishable
        ones = HyperParams({a.rule_type: 1.0 for a in an.global_graph.arcs})
        cfg = refine.RefineConfig(strategy="probabilistic", hyperparams=ones,
                                  max_iterations=budget)
        prob = refine.solve(an, q, cfg)
        pess = outcomes["pessimistic"]
        assert prob.answer == pess.answer
        assert [e.get("chosen") for e in prob.trace] == \
            [e.get("chosen") for e in pess.trace]
    assert solved["pessimistic"] >= solved["optimistic"]
    elapsed = time.monotonic() - start
    _report(9, f"pessimistic solved {solved['pessimistic']}/100, optimistic "
               f"{solved['optimistic']}/100; theta=1 traces coincide, "
               f"{elapsed:.1f}s")
