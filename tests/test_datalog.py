import itertools
import random

import pytest

import provrefine.hypergraph as hg
from provrefine import datalog
from provrefine.errors import DomainOverflow, ParseError
from provrefine.hypergraph import Fact


def _ground_text(text, seeds=(), domain=(0, 255)):
    rules, base = datalog.parse_program(text)
    return datalog.ground(rules, base, domain_bounds=domain, seeds=seeds)


def test_base_facts_become_empty_body_arcs():
    g = _ground_text("edge(1,2).\nedge(2,3).\n")
    assert len(g) == 2
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


def test_custom_domain_bounds():
    text = """
    n(5).
    out(Y) :- n(X), Y == X * 100. @scale
    """
    g = _ground_text(text, domain=(0, 1000))
    assert Fact("out", (500,)) in hg.reach(g, ())


def test_rules_require_names_and_facts_refuse_them():
    with pytest.raises(ParseError):
        datalog.parse_program("p(X) :- q(X).\n")
    with pytest.raises(ParseError):
        datalog.parse_program("p(1). @named\n")


def test_range_restriction_enforced():
    with pytest.raises(ParseError):
        datalog.parse_program("p(X,Y) :- q(X). @unbound\n")


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


class TestSmudgeFixture:
    def test_query_derivable_only_under_bottom(self):
        from provrefine import analysis as ana

        an = datalog.smudge_fixture()
        q = next(iter(an.queries))
        assert q == hg.parse_fact("dirty(end,v)")
        assert q in ana.derive(an, an.bottom())
        assert q not in ana.derive(an, an.top())

    def test_expected_rule_types_present(self):
        an = datalog.smudge_fixture()
        types = an.global_graph.rule_types()
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
        an = datalog.smudge_analysis(
            [("a", 2, "x", "y"), ("b", 3, "y", "x")],
            init_values={"x": 4, "y": 2})
        assert len(an.params) == 2
        from provrefine import analysis as ana

        assert ana.check_well_formed(an) == []
