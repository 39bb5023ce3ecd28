import random

import pytest
from hypothesis import given, settings, strategies as st

import provrefine.hypergraph as hg
from provrefine.hypergraph import Arc, Fact, Hypergraph, INFINITY

from conftest import (brute_force_distances, fact, naive_closure,
                      random_hypergraph, random_seed_set)


def test_fact_parse_and_str_round_trip():
    for text in ["dirty(end,v)", "cheap(3)", "flow(s0,0)", "marker",
                 "c(1, 2)", "v(-3)"]:
        f = hg.parse_fact(text)
        assert str(f) == text.replace(" ", "")
        assert hg.parse_fact(str(f)) == f


def test_fact_ordering_ints_before_strings():
    assert Fact("v", (2,)) < Fact("v", (10,))
    assert Fact("v", (10,)) < Fact("v", ("s0",))


def test_arc_round_trip():
    a = Arc(fact(1), frozenset([fact(2), fact(3)]), "r")
    assert hg.parse_arc(str(a)) == a
    empty = Arc(fact(0), frozenset(), "base")
    assert hg.parse_arc(str(empty)) == empty


def test_arc_body_facts_may_be_separated_by_commas():
    want = hg.parse_arc("h(1) <- b(1) c(1,2) @ r")
    assert hg.parse_arc("h(1) <- b(1), c(1, 2) @ r") == want
    assert hg.parse_arc("h(1) <- b(1),c(1,2) @ r") == want


def test_fact_arguments_are_integers_or_names():
    for text in ["v(1.5)", "v(a b)", "v(1,)", "v('x')", "v(1)(2)", "v(1"]:
        with pytest.raises(ValueError):
            hg.parse_fact(text)


def test_provenance_round_trip():
    rng = random.Random(0)
    g = random_hypergraph(rng)
    assert hg.parse_provenance(hg.serialize_provenance(g)) == g


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_reach_matches_naive_closure(seed):
    rng = random.Random(seed)
    g = random_hypergraph(rng)
    t = random_seed_set(rng, g)
    assert hg.reach(g, t) == naive_closure(g, t)


def test_reach_fires_empty_body_arcs():
    g = Hypergraph([Arc(fact(0), frozenset(), "base"),
                    Arc(fact(1), frozenset([fact(0)]), "r")])
    assert hg.reach(g, ()) == {fact(0), fact(1)}


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_distances_match_value_iteration(seed):
    rng = random.Random(seed)
    g = random_hypergraph(rng)
    t = random_seed_set(rng, g)
    assert hg.distances(g, t) == brute_force_distances(g, t)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_reach_is_the_finite_part_of_distances(seed):
    rng = random.Random(seed)
    g = random_hypergraph(rng)
    t = random_seed_set(rng, g)
    dist = hg.distances(g, t)
    assert hg.reach(g, t) == {v for v, d in dist.items() if d is not INFINITY} | t
    assert set(dist) == g.vertices | t


def test_forward_arcs_definition():
    rng = random.Random(7)
    for _ in range(50):
        g = random_hypergraph(rng)
        t = random_seed_set(rng, g)
        fwd = hg.forward_arcs(g, t)
        dist = hg.distances(g, t)
        for a in g.arcs:
            expect = all(dist[a.head] > dist[b] for b in a.body) \
                and dist[a.head] is not INFINITY
            assert (a in fwd.arcs) == expect


def test_induced_subgraph_keeps_only_internal_arcs():
    g = Hypergraph([Arc(fact(2), frozenset([fact(0), fact(1)]), "r"),
                    Arc(fact(3), frozenset([fact(2)]), "r")])
    sub = hg.induced(g, {fact(0), fact(1), fact(2)})
    assert sub.arcs == frozenset([Arc(fact(2), frozenset([fact(0), fact(1)]), "r")])


def test_loops_are_nonmaximal_strongly_connected_sets():
    # a 2-cycle: loops are the two singletons plus the pair
    g = Hypergraph([Arc(fact(0), frozenset([fact(1)]), "r"),
                    Arc(fact(1), frozenset([fact(0)]), "r")])
    got = set(hg.loops(g))
    assert got == {frozenset([fact(0)]), frozenset([fact(1)]),
                   frozenset([fact(0), fact(1)])}


def test_justifications_exclude_arcs_with_body_in_loop():
    loop = {fact(0), fact(1)}
    inside = Arc(fact(0), frozenset([fact(1)]), "r")
    outside = Arc(fact(1), frozenset([fact(2)]), "r")
    g = Hypergraph([inside, outside])
    assert hg.justifications(g, loop) == frozenset([outside])


def test_restrict_by_rule_type():
    a = Arc(fact(1), frozenset([fact(0)]), "keep")
    b = Arc(fact(2), frozenset([fact(0)]), "drop")
    g = Hypergraph([a, b])
    kept = g.restrict(e for e in g.arcs if e.rule_type == "keep")
    assert kept.arcs == frozenset([a])


def test_hypergraph_order_is_arc_subset():
    a = Arc(fact(1), frozenset([fact(0)]), "r")
    b = Arc(fact(2), frozenset([fact(1)]), "r")
    small, big = Hypergraph([a]), Hypergraph([a, b])
    assert small <= big and not big <= small
    assert small == Hypergraph([a])


def test_parse_provenance_reports_line_numbers():
    from provrefine.errors import ParseError

    with pytest.raises(ParseError) as exc:
        hg.parse_provenance("v(1) <- v(0) @ r\nnot an arc\n")
    assert exc.value.line == 2
