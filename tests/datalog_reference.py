"""Reference grounder: nested-loop joins that scan a whole relation per atom.

The straightforward version of `provrefine.datalog.ground`, kept as the
oracle its indexed joins are checked against.  It evaluates the same rule
instances, so both must emit the same set of arcs and raise
`DomainOverflow` on the same inputs.

Also the generator of straight-line smudge programs the tests draw from:
`smudge_program_text` and `smudge_analysis` build any list of sites over
the library's `SMUDGE_RULES_TEXT`, as the library's five-site demo
(`datalog.smudge_fixture`) does for its own, and `guards_tested` says
which sites' guards one run of the program tests and whether they hold:
the truth a learned theta estimates.
"""

from typing import Iterable, Optional

from provrefine import datalog
from provrefine.analysis import Analysis, Projection
from provrefine.datalog import (BASE_RULE_TYPE, DEFAULT_DOMAIN, Atom, Rule,
                                _is_var)
from provrefine.errors import DomainOverflow
from provrefine.hypergraph import Arc, Fact, Hypergraph


def _match_atom(atom: Atom, fact: Fact, env: dict) -> Optional[dict]:
    if atom.relation != fact.relation or len(atom.args) != len(fact.args):
        return None
    env = dict(env)
    for pat, val in zip(atom.args, fact.args):
        if isinstance(pat, str) and _is_var(pat):
            if pat in env:
                if env[pat] != val:
                    return None
            else:
                env[pat] = val
        elif pat != val:
            return None
    return env


def _ground_atom(atom: Atom, env: dict) -> Fact:
    return Fact(atom.relation, tuple(
        env[a] if isinstance(a, str) and _is_var(a) else a for a in atom.args))


def _check_domain(fact: Fact, bounds) -> None:
    """Raise DomainOverflow if the fact has an integer outside bounds."""
    lo, hi = bounds
    for a in fact.args:
        if isinstance(a, int) and not lo <= a <= hi:
            raise DomainOverflow(0, f"{fact}: integer {a} outside [{lo}, {hi}]")


def ground(rules: Iterable[Rule], base: Iterable[Fact],
           domain_bounds=DEFAULT_DOMAIN, seeds: Iterable[Fact] = ()) -> Hypergraph:
    """Semi-naive bottom-up evaluation into a provenance hypergraph.

    Base facts are emitted as empty-body arcs; `seeds` are available to
    rule bodies but get no arc of their own (they are supplied at query
    time, e.g. as parameter encodings).
    """
    rules = list(rules)
    base = frozenset(base)
    seeds = frozenset(seeds)
    for f in base | seeds:
        _check_domain(f, domain_bounds)

    known = set(base) | set(seeds)
    by_rel = {}
    for f in known:
        by_rel.setdefault(f.relation, set()).add(f)

    no_body = frozenset()  # one shared empty body: the graph outlives grounding
    arcs = {Arc(f, no_body, BASE_RULE_TYPE) for f in sorted(base, key=Fact._key)}

    def join(rule: Rule, delta: set):
        """All instances of `rule` with at least one body atom in delta."""
        n = len(rule.body_atoms)
        for pivot in range(n):
            atom = rule.body_atoms[pivot]
            for df in delta & by_rel.get(atom.relation, set()):
                env0 = _match_atom(atom, df, {})
                if env0 is None:
                    continue
                # join the remaining atoms left to right
                stack = [(0, env0, [None] * n)]
                while stack:
                    i, env, picked = stack.pop()
                    if i == n:
                        yield rule, env, picked
                        continue
                    if i == pivot:
                        nxt = picked[:]
                        nxt[pivot] = df
                        stack.append((i + 1, env, nxt))
                        continue
                    a = rule.body_atoms[i]
                    for f in by_rel.get(a.relation, ()):
                        env2 = _match_atom(a, f, env)
                        if env2 is not None:
                            nxt = picked[:]
                            nxt[i] = f
                            stack.append((i + 1, env2, nxt))

    delta = set(known)
    while delta:
        new_facts = set()
        for rule in rules:
            for _, env, picked in join(rule, delta):
                ok = True
                env = dict(env)
                for g in rule.guards:
                    holds, binding = g.check(env)
                    if binding is not None:
                        env[binding[0]] = binding[1]
                    if not holds:
                        ok = False
                        break
                if not ok:
                    continue
                head = _ground_atom(rule.head, env)
                _check_domain(head, domain_bounds)
                arc = Arc(head, frozenset(picked), rule.name)
                if arc not in arcs:
                    arcs.add(arc)
                    if head not in known:
                        new_facts.add(head)
        known |= new_facts
        for f in new_facts:
            by_rel.setdefault(f.relation, set()).add(f)
        delta = new_facts
    return Hypergraph(arcs)


# ---------------------------------------------------------------------------
# straight-line smudge programs


def smudge_program_text(smudges, init_values=None) -> str:
    """Full rule+fact text of a straight-line smudge program with no
    assignment commands; dirt starts at x.

    smudges: list of (label, K, source, target), one smudgeK site each, in
    control-flow order; init_values: object -> value, 0 when absent.
    Values never change, so each site's guard is fixed by the initial
    values (`guards_tested`).
    """
    init_values = init_values or {}
    objects = sorted({o for _, _, a, b in smudges for o in (a, b)} | {"x"})
    points = ["s0"] + [lbl for lbl, _, _, _ in smudges] + ["end"]
    lines = [datalog.SMUDGE_RULES_TEXT, "\n"]  # no assignment rules
    lines += [f"flow({a},{b})." for a, b in zip(points, points[1:])]
    lines += [f"smudge{k}({lbl},{a},{b})." for lbl, k, a, b in smudges]
    lines.append("dirty(s0,x).")
    lines += [f"value(s0,{obj},{init_values.get(obj, 0)})." for obj in objects]
    lines += [f"keep({point},{obj})." for point in points[:-1] for obj in objects]
    return "\n".join(lines) + "\n"


def smudge_analysis(smudges, init_values=None) -> Analysis:
    """The parametric analysis of a straight-line smudge program, one
    parameter per site; the query is whether the last site's target is
    dirty at the end."""
    rules, base = datalog.parse_program(smudge_program_text(smudges, init_values))
    labels = [lbl for lbl, _, _, _ in smudges]
    seeds = {Fact("cheap", (l,)) for l in labels}
    seeds |= {Fact("precise", (l,)) for l in labels}
    return Analysis(
        global_graph=datalog.ground(rules, base, seeds=seeds),
        queries=frozenset([Fact("dirty", ("end", smudges[-1][3]))]),
        params=tuple(str(l) for l in labels),
        encode0={str(l): Fact("cheap", (l,)) for l in labels},
        encode1={str(l): Fact("precise", (l,)) for l in labels},
        projection=Projection({"precise": ("cheap", (0,))}),
    )


def guards_tested(smudges, init_values, precise) -> dict:
    """Site index -> whether its guard holds, for each site whose guard the
    run with the sites `precise` (indices) analysed precisely tests.

    The run seeds only the precise sites' parameter facts, so dirt leaves
    x through precise sites alone.  A site's guard is tested when the site
    is precise, its source is dirty there and its target is not: only then
    does whether the target gets dirty hang on the guard.
    """
    value = (init_values or {}).get
    tested, dirty = {}, {"x"}
    for i, (_, k, a, b) in enumerate(smudges):
        if i in precise and a in dirty and b not in dirty:
            tested[i] = (value(a, 0) + value(b, 0)) % k == 0
            if tested[i]:
                dirty.add(b)
    return tested
