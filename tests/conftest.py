"""Shared generators and oracles for the test suite."""

from __future__ import annotations

import copy
import itertools
import math
import pickle
import random
from typing import Iterable

from provrefine import maxsat as mx
from provrefine.hypergraph import Arc, Fact, Hypergraph
from provrefine.probmodel import HyperParams, serialize_hyperparams


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "hashseed: what it checks must not depend on the hash "
        "seed; CI runs the marked tests under sixteen hash seeds")


def fact(i: int) -> Fact:
    return Fact("v", (i,))


def save_hyperparams(hp: HyperParams, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(serialize_hyperparams(hp))


def uniform(rule_types: Iterable[str], value: float = 0.5) -> HyperParams:
    return HyperParams({k: value for k in rule_types})


def random_hypergraph(rng: random.Random, max_verts: int = 12,
                      max_arcs: int = 20, acyclic: bool = False,
                      empty_body_ok: bool = True,
                      rule_types=("r0", "r1", "r2")) -> Hypergraph:
    """A random hypergraph over integer-labelled facts.

    With acyclic=True every arc points from lower-numbered facts to a
    strictly higher-numbered head, so the dependency graph has no cycles.
    """
    n = rng.randint(1, max_verts)
    m = rng.randint(0, max_arcs)
    arcs = set()
    for _ in range(m):
        head = rng.randrange(n)
        lo = 0 if not acyclic else None
        if acyclic:
            if head == 0:
                if not empty_body_ok:
                    continue
                body = ()
            else:
                k = rng.randint(0 if empty_body_ok else 1, min(3, head))
                body = rng.sample(range(head), k)
        else:
            k = rng.randint(0 if empty_body_ok else 1, 3)
            body = [b for b in rng.sample(range(n), min(k, n)) if b != head]
            if not body and not empty_body_ok:
                continue
        arcs.add(Arc(fact(head), frozenset(fact(b) for b in body),
                     rng.choice(rule_types)))
    return Hypergraph(arcs)


def assert_same_index(got, want, seed_sets=()) -> None:
    """Two `Index`es are equal field by field (`facts`, `ids`, `heads`,
    `bodies`, `arcs`, `first` and the kernel's own columns), and `run` and
    `sweep` give the same outputs from the seed sets."""
    assert vars(got).keys() == vars(want).keys()
    for name in vars(want):
        assert getattr(got, name) == getattr(want, name), name
    seed_sets = list(seed_sets)
    for t in seed_sets:
        assert got.run(t) == want.run(t)
    assert got.sweep(seed_sets) == want.sweep(seed_sets)


def copies(obj) -> list:
    """obj's shallow and deep copies and its round trips through every
    pickle protocol."""
    return [copy.copy(obj), copy.deepcopy(obj)] + [
        pickle.loads(pickle.dumps(obj, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]


def random_seed_set(rng: random.Random, g: Hypergraph) -> frozenset:
    verts = sorted(g.vertices)
    if not verts:
        return frozenset()
    k = rng.randint(0, len(verts))
    return frozenset(rng.sample(verts, k))


def naive_closure(g: Hypergraph, seeds) -> frozenset:
    """Reachability by repeated full passes over the arc set."""
    reached = set(seeds)
    changed = True
    while changed:
        changed = False
        for arc in g.arcs:
            if arc.head not in reached and arc.body <= reached:
                reached.add(arc.head)
                changed = True
    return frozenset(reached)


def brute_force_distances(g: Hypergraph, seeds) -> dict:
    """Max-plus hyperpath distances by value iteration to a fixpoint."""
    from provrefine.hypergraph import INFINITY

    dist = {v: INFINITY for v in g.vertices}
    for s in seeds:
        dist[s] = 0
    changed = True
    while changed:
        changed = False
        for arc in g.arcs:
            worst = max((dist.get(b, INFINITY) for b in arc.body), default=0)
            if worst is not INFINITY and worst + 1 < dist.get(arc.head, INFINITY):
                dist[arc.head] = worst + 1
                changed = True
    return dist


def all_subgraph_probability(g: Hypergraph, theta: dict, predicate) -> float:
    """Total probability mass of sub-arc-sets satisfying the predicate."""
    arcs = sorted(g.arcs)
    total = 0.0
    for mask in range(1 << len(arcs)):
        p = 1.0
        chosen = []
        for i, a in enumerate(arcs):
            t = theta[a.rule_type]
            if mask >> i & 1:
                p *= t
                chosen.append(a)
            else:
                p *= 1.0 - t
        if p > 0.0 and predicate(frozenset(chosen)):
            total += p
    return total


def random_smudge_program(rng: random.Random, max_sites: int = 6) -> tuple:
    """(sites, initial values) of a random straight-line smudge program over
    x, y, z and w, for `datalog_reference.smudge_analysis`."""
    objects = ("x", "y", "z", "w")
    smudges = [(i, rng.choice((2, 3, 5, 7)), rng.choice(objects),
                rng.choice(objects)) for i in range(rng.randint(1, max_sites))]
    return smudges, {o: rng.randrange(10) for o in objects}


def random_smudge_analysis(rng: random.Random, max_sites: int = 6):
    """A smudge analysis over a random straight-line program, and a random
    abstraction of it."""
    from datalog_reference import smudge_analysis

    an = smudge_analysis(*random_smudge_program(rng, max_sites))
    flips = [p for p in an.params if rng.random() < 0.5]
    return an, frozenset(flips)


def random_gadget(rng: random.Random):
    """A tiny analysis: up to 4 params whose cheap facts derive q through up
    to 4 internal facts, and its query q."""
    from provrefine.analysis import Analysis, Projection

    m = rng.randint(1, 4)
    n = rng.randint(1, 4)
    params = tuple(str(i) for i in range(m))
    cheap = {p: Fact("cheap", (int(p),)) for p in params}
    precise = {p: Fact("precise", (int(p),)) for p in params}
    internal = [Fact("w", (i,)) for i in range(n)]
    q = Fact("q", ())
    pool = list(cheap.values()) + internal
    arcs = set()
    for _ in range(rng.randint(1, 6)):
        head = rng.choice(internal + [q])
        body = frozenset(rng.sample(pool, rng.randint(1, min(2, len(pool)))))
        if head not in body:
            arcs.add(Arc(head, body, rng.choice(["r0", "r1"])))
    an = Analysis(global_graph=Hypergraph(arcs), queries=frozenset([q]),
                  params=params, encode0=cheap, encode1=precise,
                  projection=Projection({"precise": ("cheap", (0,))}))
    return an, q


def solve_formula(solve, inst: mx.MaxSatInstance, **kwargs):
    """A solver's (shown names, objective) on the compiled formula."""
    cnf = mx.compile_instance(inst)
    result = solve(cnf, **kwargs)
    return None if result is None else (cnf.shown(result[0]), result[1])


def formula_objective(inst: mx.MaxSatInstance, model) -> float:
    """The summed weight of a set of names."""
    return math.fsum(inst.weights.get(v, 0.0) for v in model)
