"""The four workloads: seeded inputs, one timed operation each, and their oracles.

Round r of a workload draws its inputs from (workload, seed, r) alone, so
any round can be built at any time and a run's first rounds are the same
whatever its length.  `setup` builds what the run's set-up covers;
`prepare(r)` builds round r's inputs, untimed, just before the round runs.
Each round returns `Op` records: the start and wall time of one user-facing
operation, a fingerprint of its output, and a `verify` callable that checks
the output against the benchmark's own oracle.  `verify` and `checks` run
after the timed loop and outside tracing, so oracle work is never measured.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

import gen


@dataclass
class Op:
    key: str  # names the operation; the traced replay reuses it
    start: float
    seconds: float
    fingerprint: str
    verify: Callable[[], Optional[str]]  # None, or why the output is wrong


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _timed(key: str, fn):
    """(result, Op stub) of one operation; a failing operation is counted, not fatal."""
    t0 = perf_counter()
    try:
        result, error = fn(), None
    except Exception as exc:
        result, error = None, f"{type(exc).__name__}: {exc}"
    op = Op(key, t0, perf_counter() - t0, "error", lambda: error)
    return (None if error else result), op


def _naive_dirty_at_end(graph, seeds) -> frozenset:
    """Objects with dirty(end, .) in the fixpoint of the graph's arcs."""
    known = set(seeds)
    changed = True
    while changed:
        changed = False
        for arc in graph.arcs:
            if arc.head not in known and arc.body <= known:
                known.add(arc.head)
                changed = True
    return frozenset(f.args[1] for f in known
                     if f.relation == "dirty" and f.args[0] == "end")


class _Smudge:
    """Shared helpers for workloads built from generated smudge programs."""

    pinned = 0  # leading rounds that always run and do not count toward --seconds

    def __init__(self, lib, seed: int, name: str):
        self.lib = lib
        self.seed = seed
        self.name = name
        self.inputs = {}  # round -> its inputs, once prepared
        self.graphs = []  # (program, grounded graph) to check against the interpreter

    def rng(self, *parts) -> random.Random:
        return random.Random(":".join(map(str, (self.name, self.seed) + parts)))

    def prepare(self, r: int) -> None:
        if r not in self.inputs:
            self.inputs[r] = self.build(r)

    def seeds_of(self, prog):
        fact = self.lib.hypergraph.Fact
        return ({l: fact("cheap", (l,)) for l in prog.labels},
                {l: fact("precise", (l,)) for l in prog.labels})

    def ground(self, prog):
        cheap, precise = self.seeds_of(prog)
        rules, base = self.lib.datalog.parse_program(prog.text())
        return self.lib.datalog.ground(
            rules, base, seeds=set(cheap.values()) | set(precise.values()))

    def analysis(self, prog):
        """Build the Analysis from library calls (see README: no manifests)."""
        ana, fact = self.lib.analysis, self.lib.hypergraph.Fact
        cheap, precise = self.seeds_of(prog)
        graph = self.ground(prog)
        self.graphs.append((prog, graph))
        return ana.Analysis(
            global_graph=graph,
            queries=frozenset(fact("dirty", ("end", o)) for o in prog.queries()),
            params=tuple(str(l) for l in prog.labels),
            encode0={str(l): f for l, f in cheap.items()},
            encode1={str(l): f for l, f in precise.items()},
            projection=ana.Projection({"precise": ("cheap", (0,))}))

    def checks(self):
        """Check every graph built outside the timed operations against the interpreter."""
        for i, (prog, graph) in enumerate(self.graphs):
            yield f"graph{i}", self.graph_check(prog, graph)

    def graph_check(self, prog, graph) -> Optional[str]:
        """Fixpoint dirty(end, .) from all-cheap and all-precise seeds vs. the interpreter."""
        cheap, precise = self.seeds_of(prog)
        for mode, seeds, sites in (("cheap", cheap, ()),
                                   ("precise", precise, prog.labels)):
            got = _naive_dirty_at_end(graph, seeds.values())
            want = prog.dirty_at_end(frozenset(sites))
            if got != want:
                return (f"{mode} fixpoint dirty(end,.) = {sorted(got)}, "
                        f"interpreter says {sorted(want)}")
        return None


class Refine(_Smudge):
    """`refine.solve` on one query of a generated program per round, per strategy.

    Round r's program and query fall in cells[r % len(cells)]; with the
    demo, round 0 is the library's five-site demo under every strategy and
    both solvers.
    """

    SETUP_ROUNDS = 8

    def __init__(self, lib, seed, name, cells, strategies, demo=False):
        super().__init__(lib, seed, name)
        self.cells = cells
        self.strategies = strategies
        self.pinned = 1 if demo else 0
        self.theta = lib.probmodel.HyperParams(gen.hand_theta())

    def setup(self) -> None:
        for r in range(self.pinned + self.SETUP_ROUNDS):
            self.prepare(r)

    def build(self, r: int):
        if r < self.pinned:
            return self.lib.datalog.smudge_fixture()
        i = r - self.pinned
        prog, obj = gen.stratified_query(self.rng(i), self.cells[i % len(self.cells)])
        return prog, obj, self.analysis(prog)

    def config(self, strategy, solver="exact", theta=None):
        return self.lib.refine.RefineConfig(
            strategy=strategy, solver=solver,
            hyperparams=theta if strategy == "probabilistic" else None)

    def solve_op(self, key, an, query, cfg, want, check_trace=None) -> Op:
        out, op = _timed(key, lambda: self.lib.refine.solve(an, query, cfg))
        if out is None:
            return op
        op.fingerprint = digest([out.answer, out.iterations, out.trace])

        def verify():
            if out.answer != want:
                return f"answer {out.answer}, interpreter says {want}"
            if check_trace:
                return check_trace(out)
            return None

        op.verify = verify
        return op

    def run_round(self, r: int) -> list:
        if r < self.pinned:
            return self.demo_round(self.inputs[r])
        prog, obj, an = self.inputs[r]
        query = self.lib.hypergraph.Fact("dirty", ("end", obj))
        return [self.solve_op(f"program{r - self.pinned}/{obj}/{strategy}", an, query,
                              self.config(strategy, theta=self.theta), prog.answer(obj))
                for strategy in self.strategies]

    def demo_round(self, an) -> list:
        """The library's five-site demo under every strategy and both solvers."""
        query = next(iter(an.queries))
        want = "no" if query.args[1] in gen.demo_dirty_at_end() else "yes"
        theta = self.lib.probmodel.HyperParams(self.lib.datalog.smudge_theta())
        ops = []
        for solver in ("exact", "approx"):
            for strategy in ("pessimistic", "optimistic", "probabilistic"):
                exact_trace = (solver == "exact" and strategy != "optimistic")
                ops.append(self.solve_op(
                    f"demo/{strategy}/{solver}", an, query,
                    self.config(strategy, solver, theta), want,
                    _check_demo_trace if exact_trace else None))
        return ops


def _check_demo_trace(out) -> Optional[str]:
    """The hand-checked exact trace: flip {0,4}, then {0,1,2,4}, then yes."""
    chosen = [e.get("chosen") for e in out.trace]
    if chosen != [["0", "4"], ["0", "1", "2", "4"], None] or out.iterations != 3:
        return f"demo trace {chosen} in {out.iterations} iterations"
    return None


class LearnCorpus(_Smudge):
    """`sample_training` over a group of the corpus's programs, then `learn`.

    Set-up builds the corpus.  Round r fits group r mod GROUPS, with
    observations drawn afresh for the round, so GROUPS rounds together
    cover the whole corpus.
    """

    PROGRAMS, GROUPS, SITES, OBSERVATIONS, MAX_FLIPS = 20, 4, 16, 20, 3

    def setup(self) -> None:
        rng = self.rng()
        programs = [gen.random_program(rng, self.SITES) for _ in range(self.PROGRAMS)]
        self.analyses = [self.analysis(p) for p in programs]

    def build(self, r: int):
        return self.analyses[r % self.GROUPS::self.GROUPS]

    def run_round(self, r: int) -> list:
        learning = self.lib.learning
        analyses, rng = self.inputs[r], self.rng(r)  # a replay draws the same observations

        def fit():
            parts = [learning.sample_training(an, self.OBSERVATIONS, self.MAX_FLIPS, rng)
                     for an in analyses]
            ts = learning.TrainingSet.merge(parts)
            return ts, learning.learn(ts)

        result, op = _timed(f"corpus{r}", fit)
        if result is None:
            return [op]
        ts, hp = result
        op.fingerprint = digest([sorted(hp.theta.items()), sorted(hp.unconstrained)])
        op.verify = lambda: self.bound_check(ts, hp)
        return [op]

    def bound_check(self, ts, hp) -> Optional[str]:
        """The fitted lower bound must not be below the bound at learn's start."""
        lk, pm = self.lib.likelihood, self.lib.probmodel
        constrained = set(hp.theta) - hp.unconstrained
        start = pm.HyperParams({k: 0.5 if k in constrained else 1.0 for k in hp.theta})
        terms = [lk.bound_terms(g.blueprint, g.observations) for g in ts.groups]
        before = sum(lk.lower_bound(bf, start) for bf in terms)
        after = sum(lk.lower_bound(bf, hp) for bf in terms)
        # coordinate ascent accepts only strict gains; allow summation rounding
        if not after >= before - 1e-9 * max(1.0, abs(before)):
            return f"lower bound fell from {before!r} to {after!r}"
        return None


class GroundLarge(_Smudge):
    """`parse_program` -> `ground` -> `serialize_provenance` of one large
    program per round; round r's program has SIZES[r % 4] sites.  Half the
    programs have 100 sites, so the median operation is the mean of two of
    them rather than a single one."""

    SIZES = (100, 50, 100, 200)

    def setup(self) -> None:
        self.prepare(0)

    def build(self, r: int):
        prog = gen.random_program(self.rng(r), self.SIZES[r % len(self.SIZES)])
        return prog, prog.text()

    def run_round(self, r: int) -> list:
        dl, hg = self.lib.datalog, self.lib.hypergraph
        prog, text = self.inputs[r]
        cheap, precise = self.seeds_of(prog)
        seeds = set(cheap.values()) | set(precise.values())

        def run():
            rules, base = dl.parse_program(text)
            graph = dl.ground(rules, base, seeds=seeds)
            return graph, hg.serialize_provenance(graph)

        result, op = _timed(f"round{r}/{len(prog.sites)}sites", run)
        if result is not None:
            graph, out = result
            op.fingerprint = hashlib.sha256(out.encode()).hexdigest()[:16]
            op.verify = lambda: self.graph_check(prog, graph)
        return [op]


# name -> (factory, rounds per --seconds).  Each rate was set on the
# reference host (2-core AMD EPYC, Python 3.11) so that the timed rounds
# take about --seconds there at its usual speed; the work is then fixed by
# the arguments, never by the clock, except for the run's time limit.
WORKLOADS = {
    # exact branch and bound dominates: queries with wide dirt cones
    "refine-deep": (lambda lib, seed: Refine(
        lib, seed, "refine-deep", [(12, 7, "yes"), (12, 9, "no")],
        ("pessimistic", "probabilistic")), 5.5),
    # many tiny instances, where per-iteration overhead shows, plus the
    # demo under both solvers, a pinned round of about 17 s
    "refine-wide": (lambda lib, seed: Refine(
        lib, seed, "refine-wide",
        [(n, 3, answer) for n in (8, 10) for answer in ("yes", "no")],
        ("pessimistic", "optimistic", "probabilistic"), demo=True), 16.0),
    # no MaxSAT at all: observation, bound terms, WMC and line search
    "learn-corpus": (lambda lib, seed: LearnCorpus(lib, seed, "learn-corpus"), 0.8),
    # grounding at sizes the other workloads never reach
    "ground-large": (lambda lib, seed: GroundLarge(lib, seed, "ground-large"), 0.45),
}
