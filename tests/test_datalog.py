import itertools
import random

import pytest

import datalog_reference as ref
import provrefine.hypergraph as hg
from provrefine import datalog
from provrefine.errors import DomainOverflow, ParseError
from provrefine.hypergraph import Arc, Fact


def _ground_text(text, seeds=()):
    rules, base = datalog.parse_program(text)
    return datalog.ground(rules, base, seeds=seeds)


def test_base_facts_become_empty_body_arcs():
    g = _ground_text("edge(1,2).\nedge(2,3).\n")
    assert len(g.arcs) == 2
    for arc in g.arcs:
        assert arc.body == frozenset()
        assert arc.rule_type == datalog.BASE_RULE_TYPE


def test_transitive_closure_grounding():
    text = """
    edge(1,2).
    edge(2,3).
    edge(3,4).
    path(X,Y) :- edge(X,Y). @step
    path(X,Z) :- path(X,Y), edge(Y,Z). @trans
    """
    g = _ground_text(text)
    derived = hg.reach(g, ())
    paths = {(f.args[0], f.args[1]) for f in derived if f.relation == "path"}
    assert paths == {(x, y) for x in range(1, 5) for y in range(x + 1, 5)}


def test_grounding_matches_naive_saturation():
    # same program, naive oracle: repeatedly instantiate all rules
    text = """
    n(0).
    n(1).
    n(2).
    n(3).
    both(X,Y) :- n(X), n(Y), X < Y. @pairs
    sum(Z) :- both(X,Y), Z == X + Y. @sums
    """
    g = _ground_text(text)
    rules, base = datalog.parse_program(text)
    derived = hg.reach(g, ())
    sums = {f.args[0] for f in derived if f.relation == "sum"}
    assert sums == {x + y for x in range(4) for y in range(4) if x < y}


def test_guard_modulo_and_comparisons():
    text = """
    n(0).
    n(1).
    n(2).
    n(3).
    n(4).
    n(5).
    even(X) :- n(X), X mod 2 == 0. @evens
    big(X) :- n(X), X > 3. @bigs
    """
    derived = hg.reach(_ground_text(text), ())
    assert {f.args[0] for f in derived if f.relation == "even"} == {0, 2, 4}
    assert {f.args[0] for f in derived if f.relation == "big"} == {4, 5}


def test_binding_guard_computes_new_values():
    text = """
    n(3).
    out(Y) :- n(X), Y == 2 * X + 1. @double
    """
    derived = hg.reach(_ground_text(text), ())
    assert Fact("out", (7,)) in derived


def test_domain_overflow_raises():
    text = """
    n(200).
    out(Y) :- n(X), Y == X + 100. @over
    """
    with pytest.raises(DomainOverflow):
        _ground_text(text)


def test_modulus_zero_is_a_domain_overflow_naming_the_guard():
    with pytest.raises(DomainOverflow, match="X mod 0 == 0"):
        _ground_text("n(3).\nz(X) :- n(X), X mod 0 == 0. @zero\n")


# each guard shape that needs integers, with a name where it reads one
NAME_ARITHMETIC = [
    "p(Y) :- q(X), Y == X * 2. @double",
    "p(Y) :- q(X), Y == X + X. @twice",
    "p(X) :- q(X), X < 5. @small",
    "p(X) :- q(X), X mod 2 == 0. @even",
]


@pytest.mark.parametrize("rule", NAME_ARITHMETIC)
def test_guard_arithmetic_on_a_name_is_a_parse_error_at_the_rule(rule):
    name = rule.rsplit("@", 1)[1]
    guard = rule.split(", ", 1)[1].split(".")[0]
    with pytest.raises(ParseError) as exc:
        _ground_text(f"q(3).\nq(ab).\n{rule}\n")
    assert exc.value.line == 3
    assert f"rule {name}: guard {guard!r}: 'ab' is not an integer" in str(exc.value)


def test_guards_compare_and_bind_names():
    text = """
    q(ab).
    q(cd).
    differ(X,Y) :- q(X), q(Y), X != Y. @differ
    copy(Y) :- q(X), Y == X. @copy
    same(X) :- q(X), copy(Y), X == Y. @same
    """
    derived = hg.reach(_ground_text(text), ())
    assert {f for f in derived if f.relation != "q"} == set(hg.parse_facts(
        "differ(ab,cd) differ(cd,ab) copy(ab) copy(cd) same(ab) same(cd)"))


def test_guards_compare_names_with_integers_and_name_constants():
    text = """
    q(ab).
    q(cd).
    q(3).
    three(X) :- q(X), X == 3. @three
    other(X) :- q(X), X != 3. @other
    is_cd(X) :- q(X), X == cd. @is_cd
    named(Y) :- q(X), X == 3, Y == cd. @named
    """
    derived = hg.reach(_ground_text(text), ())
    assert {f for f in derived if f.relation != "q"} == set(hg.parse_facts(
        "three(3) other(ab) other(cd) is_cd(cd) named(cd)"))
    rule = datalog.parse_program("q(1).\nh(X) :- q(X), X == cd. @r\n")[0][0]
    assert rule.guards[0].variables() == {"X"}
    # a rule's atoms are facts whose uppercase-initial arguments are variables
    assert (rule.head, rule.body_atoms) == \
        (hg.parse_fact("h(X)"), [hg.parse_fact("q(X)")])


@pytest.mark.parametrize("guard", ["X < cd", "cd > X", "X == cd + 1",
                                   "Y == 2 * cd"])
def test_guard_arithmetic_on_a_name_constant_is_a_parse_error(guard):
    with pytest.raises(ParseError) as exc:
        datalog.parse_program(f"q(3).\nh(X) :- q(X), {guard}. @r\n")
    assert exc.value.line == 2
    assert "'cd' is not an integer" in str(exc.value)


def test_a_guard_is_one_comparison():
    # parse_program reads a body part without a comparison as an atom, so
    # only a library caller reaches this check
    with pytest.raises(ValueError, match=r"guard must be a single comparison: 'X \+ 1'"):
        datalog.Guard("X + 1")


def test_rules_require_names_and_facts_refuse_them():
    with pytest.raises(ParseError):
        datalog.parse_program("p(X) :- q(X).\n")
    with pytest.raises(ParseError):
        datalog.parse_program("p(1). @named\n")


def test_range_restriction_enforced():
    with pytest.raises(ParseError):
        datalog.parse_program("p(X,Y) :- q(X). @unbound\n")


def test_rule_without_body_atoms_is_a_parse_error():
    # it would never fire: each join starts from one of its body atoms
    with pytest.raises(ParseError, match="no body atom") as exc:
        datalog.parse_program("n(1).\nq(X) :- X == 3. @r\n")
    assert exc.value.line == 2


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as exc:
        datalog.parse_program("p(1).\nthis is wrong\n")
    assert exc.value.line == 2


def test_seed_facts_join_but_emit_no_arcs():
    text = "hit(X) :- probe(X). @hits\n"
    rules, base = datalog.parse_program(text)
    seed = Fact("probe", (1,))
    g = datalog.ground(rules, base, seeds=[seed])
    assert Fact("hit", (1,)) in g.vertices
    assert all(a.head != seed for a in g.arcs)


def test_two_arities_repeated_variables_and_constants():
    text = """
    a(1).
    a(2).
    a(1,1).
    a(1,2).
    a(2,2).
    same(X) :- a(X,X). @diag
    one(Y) :- a(1,Y), a(Y). @one
    """
    rules, base = datalog.parse_program(text)
    derived = {a for a in datalog.ground(rules, base).arcs if a.body}
    f = hg.parse_fact
    assert derived == {
        Arc(f("same(1)"), frozenset([f("a(1,1)")]), "diag"),
        Arc(f("same(2)"), frozenset([f("a(2,2)")]), "diag"),
        Arc(f("one(1)"), frozenset([f("a(1,1)"), f("a(1)")]), "one"),
        Arc(f("one(2)"), frozenset([f("a(1,2)"), f("a(2)")]), "one"),
    }


# --- the indexed grounder against the nested-loop oracle ----------------------


def _random_program(rng: random.Random):
    """Rules, base facts and seeds over the integers 0..3.

    Body atoms mix variables, repeated variables and constants; relations
    `a` and `c` each appear at two arities; guards test, bind and take a
    modulus that may be 0; rules may recurse through binding guards, which
    the grounding domain (0, 7) stops with a DomainOverflow.
    """
    arities = {"a": (1, 2), "b": (2,), "c": (1, 3), "d": (0,)}
    rels = sorted(arities)

    def atom(terms):
        rel = rng.choice(rels)
        args = [str(rng.choice(terms)) for _ in range(rng.choice(arities[rel]))]
        return f"{rel}({','.join(args)})" if args else rel

    lines = [atom(range(4)) + "." for _ in range(rng.randint(4, 12))]
    for r in range(rng.randint(1, 4)):
        body = [atom(["X", "Y", "Z", "X", 0, 1])
                for _ in range(rng.randint(1, 3))]
        bound = sorted(set("".join(body)) & set("XYZ"))
        if bound and rng.random() < 0.5:
            v, w = rng.choice(bound), rng.choice(bound + ["1", "2"])
            body.append(rng.choice([f"{v} < {w}", f"{v} != {w}",
                                    f"{v} + {w} > 2", f"{v} mod {rng.randrange(4)} == 0"]))
        if bound and rng.random() < 0.4:
            body.append(f"W == {rng.choice(bound)} + {rng.randrange(3)}")
            bound.append("W")
        lines.append(f"{atom(bound or [0, 1])} :- {', '.join(body)}. @r{r}")
    rules, base = datalog.parse_program("\n".join(lines))
    seeds = hg.parse_facts(" ".join(atom(range(4)) for _ in range(rng.randint(0, 3))))
    return rules, base, seeds


def _smudge_program(rng: random.Random, sites: int):
    """A random straight-line smudge program over x, y, z, w, as grounder inputs."""
    smudges = [(lbl, rng.choice((2, 3, 5, 7)), *rng.sample("xyzw", 2))
               for lbl in range(sites)]
    values = {o: rng.randrange(10) for o in "xyzw"}
    text = ref.smudge_program_text(smudges, values)
    rules, base = datalog.parse_program(text)
    seeds = {Fact(kind, (lbl,)) for lbl in range(sites)
             for kind in ("cheap", "precise")}
    return rules, base, seeds


_DOMAIN = (0, 7)  # the random programs' domain, so that recursion overflows soon


def _reference(rules, base, seeds):
    return ref.ground(rules, base, domain_bounds=_DOMAIN, seeds=seeds)


def _outcome(grounder, rules, base, seeds):
    """The arcs grounded over `_DOMAIN`, which `datalog.ground` reads from
    `DEFAULT_DOMAIN`, or DomainOverflow."""
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(datalog, "DEFAULT_DOMAIN", _DOMAIN)
            return grounder(rules, base, seeds=seeds).arcs
    except DomainOverflow:
        return DomainOverflow


def test_indexed_grounding_matches_the_reference_on_random_programs():
    outcomes = []
    for seed in range(300):
        rules, base, seeds = _random_program(random.Random(seed))
        want = _outcome(_reference, rules, base, seeds)
        assert _outcome(datalog.ground, rules, base, seeds) == want, seed
        outcomes.append(want)
    # the generator reaches both outcomes, and rules that fire
    assert DomainOverflow in outcomes
    assert any(o is not DomainOverflow and any(a.body for a in o) for o in outcomes)


def _long_body_program(rng: random.Random):
    """Rules of 4 to 6 body atoms over the integers 0..2, as grounder inputs.

    Any argument may be a constant, and the variables X, Y and Z repeat
    within and across atoms, so most bodies bind in an order other than
    their own; binding guards may recurse past the domain (0, 7).
    """
    arities = {"a": (1, 2), "b": (2, 3), "c": (3,), "d": (0, 1)}
    rels = sorted(arities)

    def atom(terms):
        rel = rng.choice(rels)
        args = [str(rng.choice(terms)) for _ in range(rng.choice(arities[rel]))]
        return f"{rel}({','.join(args)})" if args else rel

    lines = [atom(range(3)) + "." for _ in range(rng.randint(20, 40))]
    for r in range(rng.randint(1, 3)):
        body = [atom(["X", "Y", "Z", "X", "Y", "Z", 0, 1, 2])
                for _ in range(rng.randint(4, 6))]
        bound = sorted(set("".join(body)) & set("XYZ"))
        if bound and rng.random() < 0.3:
            body.append(f"{rng.choice(bound)} != {rng.choice(bound + ['1'])}")
        if bound and rng.random() < 0.4:
            body.append(f"W == {rng.choice(bound)} + {rng.choice((1, 6))}")
            bound += ["W", "W"]
        lines.append(f"{atom(bound or [0, 1])} :- {', '.join(body)}. @r{r}")
    rules, base = datalog.parse_program("\n".join(lines))
    seeds = hg.parse_facts(" ".join(atom(range(3)) for _ in range(rng.randint(0, 3))))
    return rules, base, seeds


def test_indexed_grounding_matches_the_reference_on_long_bodies():
    outcomes, reordered = [], 0
    for seed in range(300):
        rules, base, seeds = _long_body_program(random.Random(seed))
        derived = {rule.head.relation for rule in rules}
        reordered += sum(
            datalog._atom_order(rule.body_atoms, p, derived) !=
            [p] + [i for i in range(len(rule.body_atoms)) if i != p]
            for rule in rules for p in range(len(rule.body_atoms)))
        want = _outcome(_reference, rules, base, seeds)
        assert _outcome(datalog.ground, rules, base, seeds) == want, seed
        outcomes.append(want)
    # most plans join in an order other than the body's
    assert reordered > 2000, reordered
    assert DomainOverflow in outcomes
    fired = [o for o in outcomes if o is not DomainOverflow and
             any(len(a.body) >= 3 for a in o)]
    assert len(fired) > 50, len(fired)


@pytest.mark.parametrize("sites", [8, 16, 24, 40])
def test_indexed_grounding_matches_the_reference_on_smudge_programs(sites):
    rules, base, seeds = _smudge_program(random.Random(sites), sites)
    assert datalog.ground(rules, base, seeds=seeds) == \
        ref.ground(rules, base, seeds=seeds)


def test_indexed_grounding_matches_the_reference_on_the_demo():
    rules, base = datalog.parse_program(datalog.smudge_program_text())
    seeds = {Fact(kind, (lbl,)) for lbl in range(5)
             for kind in ("cheap", "precise")}
    assert datalog.ground(rules, base, seeds=seeds) == \
        ref.ground(rules, base, seeds=seeds)


# --- semi-naive rounds against the schedule that ran every plan -------------


def _named_outcome(grounder, domain, rules, base, seeds):
    """The arcs grounded over `domain`, or the class and message raised."""
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(datalog, "DEFAULT_DOMAIN", domain)
            return grounder(rules, base, seeds=seeds).arcs
    except (DomainOverflow, ParseError) as exc:
        return type(exc), str(exc)


def _programs(sites):
    """(name, domain, rules, base, seeds) of the 300 random and 300
    long-body programs over `_DOMAIN`, a smudge program of each count in
    `sites`, the demo and the cyclic points-to client."""
    import pointsto_reference

    for make in (_random_program, _long_body_program):
        for seed in range(300):
            yield (make.__name__, seed), _DOMAIN, *make(random.Random(seed))
    domain = datalog.DEFAULT_DOMAIN
    for n in sites:
        yield f"smudge{n}", domain, *_smudge_program(random.Random(n), n)
    rules, base = datalog.parse_program(datalog.smudge_program_text())
    yield "demo", domain, rules, base, {Fact(kind, (lbl,)) for lbl in range(5)
                                        for kind in ("cheap", "precise")}
    rules, base = pointsto_reference.program()
    yield "pointsto", domain, rules, base, {
        Fact(kind, (m,)) for m in pointsto_reference.METHODS
        for kind in ("cheap", "precise")}


# h fails on a(2), b(2), both new in round 2, and on a(1), b(1), of which
# only a(1) is new; the schedule that ran every plan met the first of them
# first, so a round that held the atoms after the pivot to old facts would
# name the other
_TWO_FAILURES = """
pa(1).
pa(2).
pb(2).
b(1).
a(X) :- pa(X). @ma
b(X) :- pb(X). @mb
h(Z) :- a(X), b(X), Z == 255 + X. @h
"""


@pytest.mark.hashseed
def test_semi_naive_grounding_matches_the_every_plan_schedule():
    for name, *program in _programs((8, 16, 40)):
        assert _named_outcome(datalog.ground, *program) == \
            _named_outcome(ref.ground_every_plan, *program), name
    rules, base = datalog.parse_program(_TWO_FAILURES)
    program = datalog.DEFAULT_DOMAIN, rules, base, ()
    named = (DomainOverflow, "line 8: rule h: h(257): integer 257 outside [0, 255]")
    assert _named_outcome(ref.ground_every_plan, *program) == named
    assert _named_outcome(datalog.ground, *program) == named


@pytest.mark.hashseed
def test_each_rule_instance_is_found_once(monkeypatch):
    # an instance is its rule, body facts and variable values; key it as
    # the join yields it, before a binding guard adds to its dict
    rule_of, repeats, seen = {}, [], set()
    join_plan, instances, saturate = (
        datalog._join_plan, datalog._instances, datalog._saturate)

    def named_plan(rule, *args):
        plan = join_plan(rule, *args)
        rule_of[id(plan)] = rule.name
        return plan

    def keyed_instances(plan, *args):
        for env, body in instances(plan, *args):
            key = (rule_of[id(plan)], frozenset(body), frozenset(env.items()))
            if key in seen:
                repeats.append(key)
            seen.add(key)
            yield env, body

    def one_run(*args):
        seen.clear()  # a failing run is run again in key order
        return saturate(*args)

    monkeypatch.setattr(datalog, "_join_plan", named_plan)
    monkeypatch.setattr(datalog, "_instances", keyed_instances)
    monkeypatch.setattr(datalog, "_saturate", one_run)
    found = 0
    for name, *program in _programs((16, 100)):
        _named_outcome(datalog.ground, *program)
        assert not repeats, (name, repeats[:3])
        found += len(seen)
    assert found > 1500, found


def test_join_work_grows_linearly_with_program_size(monkeypatch):
    tried = []
    lookup = datalog._FactIndex.lookup

    def counting_lookup(self, *args):
        facts = lookup(self, *args)
        tried.append(len(facts))
        return facts

    monkeypatch.setattr(datalog._FactIndex, "lookup", counting_lookup)
    work = {}
    for sites in (50, 100):
        tried.clear()
        rules, base, seeds = _smudge_program(random.Random(sites), sites)
        datalog.ground(rules, base, seeds=seeds)
        work[sites] = sum(tried)
    assert work[100] <= 2.5 * work[50], work


def test_smudge_sites_are_checked_before_the_mode_facts(monkeypatch):
    # smudgeK(L,A,B) binds two positions where cheap(L) and precise(L)
    # bind one, so it fails three of a site's four smudge rules before the
    # mode fact, which always holds, is looked up
    calls = []
    lookup = datalog._FactIndex.lookup

    def counting_lookup(self, *args):
        calls.append(args)
        return lookup(self, *args)

    monkeypatch.setattr(datalog._FactIndex, "lookup", counting_lookup)
    rules, base, seeds = _smudge_program(random.Random(50), 50)
    datalog.ground(rules, base, seeds=seeds)
    assert 6000 - 50 <= len(calls) <= 6000 + 50, len(calls)


def test_a_selective_derived_atom_joins_as_the_reference():
    # hit(X) holds for two of forty X, but as a derived relation it is
    # checked after the base relations that bind one position
    text = "\n".join(
        [f"src({x})." for x in range(40)] +
        [f"wide({x},{y})." for x in range(40) for y in range(5)] +
        ["mark(3).", "mark(17).",
         "hit(X) :- mark(X). @mark",
         "out(X,Y) :- src(X), wide(X,Y), hit(X). @out",
         "back(X) :- out(X,Y), src(Y), wide(Y,X), hit(Y). @back"])
    rules, base = datalog.parse_program(text)
    derived = {rule.head.relation for rule in rules}
    assert [rules[1].body_atoms[i].relation
            for i in datalog._atom_order(rules[1].body_atoms, 0, derived)] == \
        ["src", "wide", "hit"]
    g = datalog.ground(rules, base)
    assert g == ref.ground(rules, base)
    assert sum(a.rule_type == "out" for a in g.arcs) == 10


class TestSmudgeFixture:
    def test_query_derivable_only_under_bottom(self):
        from provrefine import analysis as ana

        an = datalog.smudge_fixture()
        q = next(iter(an.queries))
        assert q == hg.parse_fact("dirty(end,v)")
        assert q in ana.derive(an, frozenset())
        assert q not in ana.derive(an, frozenset(an.params))

    def test_expected_rule_types_present(self):
        an = datalog.smudge_fixture()
        types = {a.rule_type for a in an.global_graph.arcs}
        for k in (2, 3, 5, 7):
            assert f"cheap_smudge{k}" in types
        # the precise rule at the k=7 site never fires: its guard fails on
        # the concrete values, which is what lets refinement answer "yes"
        for k in (2, 3, 5):
            assert f"precise_smudge{k}" in types
        assert "precise_smudge7" not in types
        assert {"dirty_persist", "value_persist", "base"} <= types

    def test_parameters_and_encodings(self):
        an = datalog.smudge_fixture()
        assert an.params == ("0", "1", "2", "3", "4")
        for k in an.params:
            assert an.encode0[k] == Fact("cheap", (int(k),))
            assert an.encode1[k] == Fact("precise", (int(k),))

    def test_theta_table(self):
        theta = datalog.smudge_theta()
        for k in (2, 3, 5, 7):
            assert theta[f"cheap_smudge{k}"] == pytest.approx(1 / k)
        assert theta["dirty_persist"] == 1.0

    def test_synthetic_program_grounds(self):
        rng = random.Random(1)
        an = ref.smudge_analysis(
            [("a", 2, "x", "y"), ("b", 3, "y", "x")],
            init_values={"x": 4, "y": 2})
        assert len(an.params) == 2
        from provrefine import analysis as ana

        assert ana.check_well_formed(an) == []
