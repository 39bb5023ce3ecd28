"""Minimal Datalog frontend with arithmetic guards and provenance output.

Rules are Horn clauses over relational atoms plus integer guards.  An
atom is a `Fact` read by `parse_fact`, whose uppercase-initial arguments
are variables.  Guards are evaluated after each rule instance is joined,
a binding guard binds into the instance's variable dict, and guards never
appear in the emitted arcs.  Grounding is semi-naive and deterministic,
finds each rule instance once, and records one arc per fired instance,
tagged with the rule name.  Each (rule, body atom) pair is compiled once
into a join plan: the atom matched against the previous round's new facts
goes first, the others follow selective-first (base relations with the
most bound positions, then derived relations, then atoms with no bound
position), those before it in the body match only older facts, and each
looks its candidates up in a hash index on the argument positions
already bound, so the work grows with the facts that match rather than
with the relation.  A partial match is a tuple with one slot per
constant and variable, and each step reads its lookup key and writes its
new values through precomputed `itemgetter`s; the variable dict that
guards and the head read is built only for a complete match.  Base facts
become empty-body arcs (type "base") so that hypergraph reachability from
the parameter facts alone recovers the whole derivation.

Also home of the dirt-propagation demo analysis (`smudge_fixture`): a
tiny imperative program where `smudgeK(x, y)` passes x's dirt to y when
(x.value + y.value) mod K == 0, analysed either cheaply (guard dropped)
or precisely (values tracked), one boolean parameter per smudge site.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Collection, Iterable, Optional

from .analysis import Analysis, Projection
from .errors import DomainOverflow, ParseError
from .hypergraph import (_INT, _NAME, INFINITY, MAX_NESTING, Arc, Fact,
                         Hypergraph, parse_fact, read_lines, split_top)

BASE_RULE_TYPE = "base"
DEFAULT_DOMAIN = (0, 255)


# a guard token: an integer or a name as atoms spell them, an operator, or
# (last) a run of characters that spells no token
_GUARD_TOKEN_RE = re.compile(
    rf"\s*(?:({_INT})(?![\w'])|({_NAME})|(==|!=|[<>+*%()])|([\w']+|\S))")
# by level, the operators of a comparison, a sum and a product
_OPERATORS = (("==", "!=", "<", ">"), ("+",), ("*", "%"))
_PUNCTUATION = {"(", ")"}.union(*_OPERATORS)


def _is_var(token: str) -> bool:
    return token[:1].isupper()


def _atom_variables(atom: Fact) -> set:
    """The variables among an atom's arguments."""
    return {a for a in atom.args if isinstance(a, str) and _is_var(a)}


class Guard:
    """One comparison of integer terms; an equality whose left side is a
    single variable binds it (an assignment-style guard) when it is unbound.

    comparison := sum (== | != | < | >) sum, or one wrapped whole in
    parentheses; sum := product (+ product)*; product := term ((* | mod |
    %) term)*; term := integer | name | ( sum ), spelled as in atoms.  The
    guard reads into a tree of integer and name leaves and (op, left,
    right) nodes.  Only `==` and `!=` take names; +, *, mod, < or > on a
    name raises ValueError, at once for a name constant.
    """

    def __init__(self, text: str):
        self.text = text.strip()
        tokens = []
        for integer, name, op, bad in _GUARD_TOKEN_RE.findall(self.text):
            if bad:
                raise self._unexpected(bad)
            tokens.append(int(integer) if integer else
                          "%" if name == "mod" else name or op)
        # a guard nests no deeper than its token count
        if len(tokens) > MAX_NESTING:
            raise ValueError(
                f"guard {self.text!r} has more than {MAX_NESTING} tokens")
        tokens.append(None)  # the end, which no reader consumes
        node, i = self._read(tokens, 0)
        if tokens[i] is not None:
            raise self._unexpected(tokens[i])
        if not _comparison(node):
            raise ValueError(f"guard must be a single comparison: {self.text!r}")
        self.op, self.lhs, self.rhs = node
        binding = self.op == "==" and isinstance(self.lhs, str) and _is_var(self.lhs)
        self.binds: Optional[str] = self.lhs if binding else None

    def _read(self, tokens: list, i: int, level: int = 0) -> tuple:
        """The comparison (level 0), sum (1), product (2) or term (3) at
        tokens[i:], and the index after it."""
        if level < 3:
            node, i = self._read(tokens, i, level + 1)
            while tokens[i] in _OPERATORS[level]:
                op = tokens[i]
                right, i = self._read(tokens, i + 1, level + 1)
                names = op in ("==", "!=")
                node = (op, self._operand(node, names), self._operand(right, names))
            return node, i
        tok = tokens[i]
        if tok == "(":
            node, i = self._read(tokens, i + 1)
            if tokens[i] == ")":
                return node, i + 1
            tok = tokens[i]
        elif tok is not None and tok not in _PUNCTUATION:
            return tok, i + 1
        raise self._unexpected(tok)

    def _unexpected(self, tok) -> ValueError:
        where = "end" if tok is None else repr(tok)
        return ValueError(f"malformed guard {self.text!r}: unexpected {where}")

    def _operand(self, node, names: bool):
        """node, as a side of an operator: never a comparison and, unless
        names, never a name constant."""
        if _comparison(node):
            raise ValueError(f"guard must be a single comparison: {self.text!r}")
        if not names and isinstance(node, str) and not _is_var(node):
            raise ValueError(f"guard {self.text!r}: {node!r} is not an integer")
        return node

    def variables(self) -> set:
        return _variables(self.lhs) | _variables(self.rhs)

    def _int(self, value) -> int:
        if not isinstance(value, int):
            raise ValueError(f"guard {self.text!r}: {value!r} is not an integer")
        return value

    def _eval(self, node, env: dict):
        if type(node) is not tuple:
            return env[node] if isinstance(node, str) and _is_var(node) else node
        op, left, right = node
        left = self._int(self._eval(left, env))
        right = self._int(self._eval(right, env))
        if op == "+":
            return left + right
        if op == "*":
            return left * right
        if right == 0:
            raise DomainOverflow(0, f"guard {self.text!r}: modulus is 0")
        return left % right

    def check(self, env: dict) -> bool:
        """Whether the guard holds under env.  A binding guard whose
        variable env lacks binds it in env, and holds."""
        if self.binds is not None and self.binds not in env:
            env[self.binds] = self._eval(self.rhs, env)
            return True
        left = self._eval(self.lhs, env)
        right = self._eval(self.rhs, env)
        if self.op == "==":
            return left == right
        if self.op == "!=":
            return left != right
        left, right = self._int(left), self._int(right)
        return left < right if self.op == "<" else left > right

    def __str__(self) -> str:
        return self.text


def _comparison(node) -> bool:
    return type(node) is tuple and node[0] in _OPERATORS[0]


def _variables(node) -> set:
    if type(node) is tuple:
        return _variables(node[1]) | _variables(node[2])
    return {node} if isinstance(node, str) and _is_var(node) else set()


@dataclass
class Rule:
    name: str
    head: Fact
    body_atoms: list
    guards: list = field(default_factory=list)
    # where the program text states the rule, 0 if nowhere; not part of
    # what the rule means, so rules compare without it
    line: int = field(default=0, compare=False)

    def validate(self) -> None:
        if not self.body_atoms:
            raise ValueError(f"rule {self.name} has no body atom, so it never fires")
        bound = set()
        for atom in self.body_atoms:
            bound |= _atom_variables(atom)
        for g in self.guards:
            # a binding guard's right side binds its fresh variable
            fresh = g.binds is not None and g.binds not in bound
            unbound = (_variables(g.rhs) if fresh else g.variables()) - bound
            if unbound:
                raise ValueError(f"guard {g} uses unbound variables {sorted(unbound)}")
            if fresh:
                bound.add(g.binds)
        free = _atom_variables(self.head) - bound
        if free:
            raise ValueError(
                f"head variables {sorted(free)} not bound in rule {self.name}")


# ---------------------------------------------------------------------------
# parsing


def _parse_statement(line: str, lineno: int = 0):
    """One statement: either a rule `head :- body. @name` or a fact `f.`"""
    name = None
    if "@" in line:
        line, name = line.rsplit("@", 1)
        name = name.strip()
        if not name:
            raise ValueError("empty rule name after '@'")
    line = line.strip()
    if not line.endswith("."):
        raise ValueError("statement must end with '.'")
    line = line[:-1].strip()
    if ":-" not in line:
        if name is not None:
            raise ValueError("facts may not carry a rule name")
        fact = parse_fact(line)
        if _atom_variables(fact):
            raise ValueError(f"fact {fact} contains variables")
        return fact
    if name is None:
        raise ValueError("rule missing '@name' annotation")
    head_text, body_text = line.split(":-", 1)
    head = parse_fact(head_text)
    atoms = []
    guards = []
    # guards contain spaces, so the body splits on commas only; a part
    # holding a comparison operator is a guard, any other part an atom
    for part in split_top(body_text, ","):
        if any(op in part for op in "=<>"):
            guards.append(Guard(part))
        else:
            atoms.append(parse_fact(part))
    rule = Rule(name, head, atoms, guards, lineno)
    rule.validate()
    return rule


class BaseFacts(set):
    """A program's extensional facts; `lines` maps each to the line that
    first states it, which, like a rule's line, the set does not compare."""

    def __init__(self):
        super().__init__()
        self.lines = {}


def parse_program(text: str):
    """Parse rules and extensional facts; returns (rules, base_facts)."""
    rules = []
    base = BaseFacts()

    def statement(lineno, line):
        stmt = _parse_statement(line, lineno)
        if isinstance(stmt, Rule):
            rules.append(stmt)
        else:
            base.add(stmt)
            base.lines.setdefault(stmt, lineno)

    read_lines(text, statement)
    return rules, base


# ---------------------------------------------------------------------------
# grounding


def _check_domain(fact: Fact, line: int = 0) -> None:
    lo, hi = DEFAULT_DOMAIN
    for a in fact.args:
        if isinstance(a, int) and not lo <= a <= hi:
            raise DomainOverflow(line, f"{fact}: integer {a} outside [{lo}, {hi}]")


def check_domain(facts: Collection[Fact]) -> None:
    """Raise DomainOverflow if a fact has an integer outside the domain.  Of
    several such facts it names the one on the least line if `facts` is
    `parse_program`'s `BaseFacts`, at that line, else the least in key
    order; the facts are sorted only once one is found."""
    try:
        for f in facts:
            _check_domain(f)
    except DomainOverflow:
        lines = facts.lines if isinstance(facts, BaseFacts) else {}
        for f in sorted(facts, key=lambda f: (lines.get(f, INFINITY), f._key())):
            _check_domain(f, lines.get(f, 0))


class _FactIndex:
    """Facts grouped by (relation, arity), with one hash index per tuple of
    bound argument positions, built on first use and kept up to date.  An
    index maps the values at its positions to the list of the facts holding
    them, in the order they were added."""

    def __init__(self, facts: Iterable[Fact]):
        self.facts = {}    # (relation, arity) -> [fact]
        self.indices = {}  # (relation, arity) -> {positions: {values: [fact]}}
        for f in facts:
            self.add(f)

    def add(self, fact: Fact) -> None:
        sig = (fact.relation, len(fact.args))
        self.facts.setdefault(sig, []).append(fact)
        for positions, index in self.indices.get(sig, {}).items():
            _insert(index, positions, fact)

    def lookup(self, sig: tuple, positions: tuple, values: tuple):
        """The facts of `sig` whose arguments at `positions` are `values`."""
        if not positions:
            return self.facts.get(sig, ())
        by_positions = self.indices.setdefault(sig, {})
        index = by_positions.get(positions)
        if index is None:
            index = by_positions[positions] = {}
            for f in self.facts.get(sig, ()):
                _insert(index, positions, f)
        return index.get(values, ())


def _insert(index: dict, positions: tuple, fact: Fact) -> None:
    # a key covering every argument is the fact's own argument tuple
    key = fact.args if len(positions) == len(fact.args) else tuple(
        fact.args[p] for p in positions)
    index.setdefault(key, []).append(fact)


def _getter(slots: list):
    """A function from a tuple to the tuple of its items at `slots`: a
    one-item `itemgetter` returns the bare item, a slice keeps the tuple."""
    if len(slots) == 1:
        return itemgetter(slice(slots[0], slots[0] + 1))
    return itemgetter(*slots)


def _atom_order(atoms: list, pivot: int, derived: set) -> list:
    """The atom at `pivot` first, then selective-first: atoms of base
    relations (those not in `derived`, which no rule derives), the most
    bound argument positions first, then atoms of derived relations, and
    atoms with no bound position last; ties go to an atom whose arguments
    are all bound (a membership test), then to the earlier atom.  An atom that
    binds more positions of a relation that does not grow matches fewer
    facts, so it tends to fail before an atom that always holds is looked
    up.  The order depends on the program text only."""
    order, rest = [pivot], [i for i in range(len(atoms)) if i != pivot]
    bound = _atom_variables(atoms[pivot])
    while rest:
        def rank(i):
            atom = atoms[i]
            free = _atom_variables(atom) - bound
            fixed = sum(a not in free for a in atom.args)
            return (not fixed, atom.relation in derived, -fixed, bool(free), i)
        best = min(rest, key=rank)
        order.append(best)
        rest.remove(best)
        bound |= _atom_variables(atoms[best])
    return order


def _join_plan(rule: Rule, pivot: int, derived: set) -> tuple:
    """How `rule`'s body joins, atom `pivot` first and the others in
    `_atom_order` (`derived` names the relations some rule derives),
    compiled into (names, env0, steps).

    A partial match is an environment tuple that grows at each step: the
    rule's constants (env0), then each variable's value in the order the
    steps bind them; names[i] names slot i, a constant naming itself.
    Each step is (sig, positions, key, bind, repeats, old): sig is
    (relation, arity); positions are the argument positions holding a
    constant or an already bound variable, and key(env) their values, None
    if there are none; bind(args) gives the values of the atom's new
    variables at their first occurrences, None if there are none; repeats
    is (position, earlier position) for each of their repeats; and old says
    that the atom comes before the pivot in body order, so it matches only
    facts known before the round (`_instances`).
    """
    atoms = rule.body_atoms
    names = list(dict.fromkeys(a for atom in atoms for a in atom.args
                               if not (isinstance(a, str) and _is_var(a))))
    env0 = tuple(names)
    slot = {c: i for i, c in enumerate(names)}
    steps = []
    for i in _atom_order(atoms, pivot, derived):
        atom = atoms[i]
        positions, keys, binds, repeats, first = [], [], [], [], {}
        for p, a in enumerate(atom.args):
            if a in slot:
                positions.append(p)
                keys.append(slot[a])
            elif a in first:
                repeats.append((p, first[a]))
            else:
                first[a] = p
                binds.append(p)
        for a in first:
            slot[a] = len(names)
            names.append(a)
        steps.append(((atom.relation, len(atom.args)), tuple(positions),
                      _getter(keys) if keys else None,
                      _getter(binds) if binds else None, tuple(repeats),
                      i < pivot))
    return tuple(names), env0, steps


def _instances(plan: tuple, delta: _FactIndex, known: _FactIndex,
               fresh: Collection[Fact]):
    """Yield (env, body) for each instance of a join plan whose first atom
    matches a fact of `delta`, whose old atoms match facts of `known` not in
    `fresh` (the facts of `delta`), and whose other atoms match facts of
    `known`.  env is a fresh dict from each variable, and each constant, to
    its value."""
    names, env0, steps = plan
    last = len(steps) - 1
    stack = [(0, env0, ())]
    while stack:
        k, env, body = stack.pop()
        sig, positions, key, bind, repeats, old = steps[k]
        for f in (known if k else delta).lookup(sig, positions, key(env) if key else ()):
            if old and f in fresh:
                continue
            args = f.args
            if repeats and any(args[p] != args[q] for p, q in repeats):
                continue
            env2 = env + bind(args) if bind else env
            if k == last:
                yield dict(zip(names, env2)), body + (f,)
            else:
                stack.append((k + 1, env2, body + (f,)))


def ground(rules: Iterable[Rule], base: Collection[Fact],
           seeds: Collection[Fact] = ()) -> Hypergraph:
    """Semi-naive bottom-up evaluation into a provenance hypergraph.

    Base facts are emitted as empty-body arcs; `seeds` are available to
    rule bodies but get no arc of their own (they are supplied at query
    time, e.g. as parameter encodings).  Each round runs every rule's
    join plans (`_join_plan`, one per body atom) whose pivot relation
    gained facts in the previous round: the pivot is matched against those
    new facts, the atoms before it in the body against the facts known
    before that round, and the atoms after it against all known facts, each
    looked up in a hash index on its bound positions.  So an instance is
    found once, in the plan of its first new atom.  In the first round
    every fact is new, and only the plans whose pivot is the first atom
    run.  A guard that does arithmetic or `<`/`>` on a name raises
    ParseError, and a head integer outside `DEFAULT_DOMAIN` or a guard's
    modulus by 0 DomainOverflow, naming the rule and its line (a base or
    seed fact outside it as `check_domain` names it, the base facts
    first).  Guards are checked in rule order after the full join, and a
    binding guard binds into its instance's own variable dict.

    Which failing instance a run meets first follows the hash order of
    its fact sets; which instances fail does not.  So on a failure the
    program is grounded again with the base and seed facts, and each
    round's new facts, in `Fact._key` order, and the failure that run
    meets is raised: the same instance under every hash seed.
    """
    rules = list(rules)
    check_domain(base)
    check_domain(seeds)
    try:
        return _saturate(rules, base, seeds, lambda facts: facts)
    except (DomainOverflow, ParseError):
        return _saturate(rules, base, seeds,
                         lambda facts: sorted(facts, key=Fact._key))


def _saturate(rules: list, base: Collection[Fact], seeds: Collection[Fact],
              order) -> Hypergraph:
    """`ground`'s rounds, which add the facts of `order(known facts)` and
    of `order(each round's new facts)` to the indices in that order."""
    known = order({*base, *seeds})
    index = _FactIndex(known)
    derived = {rule.head.relation for rule in rules}
    plans = [(rule, [((atom.relation, len(atom.args)),
                      _join_plan(rule, p, derived))
                     for p, atom in enumerate(rule.body_atoms)])
             for rule in rules]

    no_body = frozenset()  # one shared empty body: the graph outlives grounding
    arcs = {Arc(f, no_body, BASE_RULE_TYPE) for f in base}

    facts = {f: f for f in known}  # one object per distinct fact
    delta, fresh = index, None  # in round 1 every known fact is new
    while delta.facts:
        new_facts = set()
        for rule, rule_plans in plans:
            # an atom before the pivot matches only old facts, so in round 1
            # only the plan whose pivot is the first atom can match
            for pivot_sig, plan in rule_plans if fresh is not None else rule_plans[:1]:
                if pivot_sig not in delta.facts:
                    continue
                for env, body in _instances(plan, delta, index, fresh):
                    try:
                        if not all(g.check(env) for g in rule.guards):
                            continue
                        head = Fact(rule.head.relation,
                                    tuple(env.get(a, a) for a in rule.head.args))
                        known_head = facts.get(head)
                        if known_head is None:
                            _check_domain(head)
                            facts[head] = known_head = head
                            new_facts.add(head)
                    except DomainOverflow as exc:
                        raise DomainOverflow(rule.line, f"rule {rule.name}: {exc}") from exc
                    except ValueError as exc:
                        raise ParseError(rule.line, f"rule {rule.name}: {exc}") from exc
                    arcs.add(Arc(known_head, frozenset(body), rule.name))
        fresh, new_facts = new_facts, order(new_facts)
        for f in new_facts:
            index.add(f)
        delta = _FactIndex(new_facts)
    return Hypergraph(arcs)


# ---------------------------------------------------------------------------
# the dirt-propagation fixture

SMUDGE_RULES_TEXT = """
# dirt propagation through smudge sites, approximate semantics
dirty(L2,B) :- cheap(L), dirty(L,A), flow(L,L2), smudge2(L,A,B). @cheap_smudge2
dirty(L2,B) :- cheap(L), dirty(L,A), flow(L,L2), smudge3(L,A,B). @cheap_smudge3
dirty(L2,B) :- cheap(L), dirty(L,A), flow(L,L2), smudge5(L,A,B). @cheap_smudge5
dirty(L2,B) :- cheap(L), dirty(L,A), flow(L,L2), smudge7(L,A,B). @cheap_smudge7

# precise semantics: dirt moves only when the value sum hits the modulus
dirty(L2,B) :- precise(L), dirty(L,A), flow(L,L2), smudge2(L,A,B), value(L,A,VA), value(L,B,VB), (VA + VB) mod 2 == 0. @precise_smudge2
dirty(L2,B) :- precise(L), dirty(L,A), flow(L,L2), smudge3(L,A,B), value(L,A,VA), value(L,B,VB), (VA + VB) mod 3 == 0. @precise_smudge3
dirty(L2,B) :- precise(L), dirty(L,A), flow(L,L2), smudge5(L,A,B), value(L,A,VA), value(L,B,VB), (VA + VB) mod 5 == 0. @precise_smudge5
dirty(L2,B) :- precise(L), dirty(L,A), flow(L,L2), smudge7(L,A,B), value(L,A,VA), value(L,B,VB), (VA + VB) mod 7 == 0. @precise_smudge7

# once dirty, always dirty
dirty(L2,A) :- dirty(L,A), flow(L,L2). @dirty_persist

# value tracking: keep(L,A) marks objects the command at L leaves alone
value(L2,A,N) :- value(L,A,N), keep(L,A), flow(L,L2). @value_persist
"""


# the demo's smudge sites, (label, K, source, target) for smudgeK(label,
# source, target), and its control flow: an init point, one point per
# site, its assignments interleaved, an end point
_DEMO_SITES = [(0, 2, "x", "y"), (1, 3, "y", "z"), (2, 3, "z", "v"),
               (3, 5, "x", "y"), (4, 7, "y", "v")]
_DEMO_POINTS = ["s0", 0, "l0p", 1, "g1", 2, 3, 4, "end"]
_DEMO_ASSIGNED = {"s0": {"x"}, "l0p": {"y"}}  # point -> objects given new values

# the demo's assignment commands, one rule each keyed by an assign_* base
# relation: (rule name, marker relation, its point, head atom, extra body)
_DEMO_ASSIGNMENTS = [
    # x.value := 10
    ("assign_x_const", "assign_ten", "s0", "value(L2,x,10)", []),
    # y.value := y.value + 2 * x.value
    ("assign_y_lin", "assign_ylin", "l0p",
     "value(L2,y,N2)", ["value(L,y,B)", "value(L,x,A)", "N2 == B + 2 * A"]),
    # if z.dirty && y.value > 5 then v.value := x.value + y.value
    ("assign_v_guarded", "assign_vsum", "g1",
     "value(L2,v,N2)",
     ["dirty(L,z)", "value(L,y,B)", "B > 5", "value(L,x,A)", "N2 == A + B"]),
]


def smudge_program_text() -> str:
    """Full rule+fact text of the five-site demo program; dirt starts at x,
    and every object starts at value 0."""
    objects = sorted({o for _, _, a, b in _DEMO_SITES for o in (a, b)})
    points = _DEMO_POINTS
    rules = []
    for name, marker, _, head, extra in _DEMO_ASSIGNMENTS:
        body = ", ".join([f"{marker}(L)", "flow(L,L2)", *extra])
        rules.append(f"{head} :- {body}. @{name}\n")
    lines = [SMUDGE_RULES_TEXT, "".join(rules)]
    lines += [f"flow({a},{b})." for a, b in zip(points, points[1:])]
    lines += [f"smudge{k}({lbl},{a},{b})." for lbl, k, a, b in _DEMO_SITES]
    lines += [f"{marker}({point})." for _, marker, point, _, _ in _DEMO_ASSIGNMENTS]
    lines.append("dirty(s0,x).")
    lines += [f"value(s0,{obj},0)." for obj in objects]
    # objects not assigned at a point keep their value across it
    lines += [f"keep({point},{obj})." for point in points[:-1] for obj in objects
              if obj not in _DEMO_ASSIGNED.get(point, ())]
    return "\n".join(lines) + "\n"


def smudge_fixture() -> Analysis:
    """The five-site demo analysis: query `dirty(end, v)`, params "0".."4"."""
    rules, base = parse_program(smudge_program_text())
    labels = [lbl for lbl, _, _, _ in _DEMO_SITES]
    seeds = {Fact("cheap", (l,)) for l in labels}
    seeds |= {Fact("precise", (l,)) for l in labels}
    return Analysis(
        global_graph=ground(rules, base, seeds=seeds),
        queries=frozenset([Fact("dirty", ("end", "v"))]),
        params=tuple(str(l) for l in labels),
        encode0={str(l): Fact("cheap", (l,)) for l in labels},
        encode1={str(l): Fact("precise", (l,)) for l in labels},
        projection=Projection({"precise": ("cheap", (0,))}),
    )


def smudge_theta() -> dict:
    """The intuitive hyperparameters: 1/K per cheap smudge rule, else 1."""
    theta = {}
    for k in (2, 3, 5, 7):
        theta[f"cheap_smudge{k}"] = 1.0 / k
        theta[f"precise_smudge{k}"] = 1.0
    for name in (BASE_RULE_TYPE, "dirty_persist", "value_persist",
                 "assign_x_const", "assign_y_lin", "assign_v_guarded"):
        theta[name] = 1.0
    return theta
