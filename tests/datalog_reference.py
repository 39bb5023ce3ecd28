"""Reference grounder: nested-loop joins that scan a whole relation per atom.

The straightforward version of `provrefine.datalog.ground`, kept as the
oracle its indexed joins are checked against.  It evaluates the same rule
instances, so both must emit the same set of arcs and raise
`DomainOverflow` on the same inputs.
"""

from typing import Iterable, Optional

from provrefine.datalog import (BASE_RULE_TYPE, DEFAULT_DOMAIN, Atom, Rule,
                                _check_domain, _is_var)
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
