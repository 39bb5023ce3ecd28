import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import provrefine.hypergraph as hg
from provrefine.hypergraph import Arc, Fact, Hypergraph, INFINITY

import hypergraph_reference
import loop_formula_reference as lfr
from conftest import (assert_same_index, brute_force_distances, copies, fact,
                      naive_closure, random_hypergraph, random_seed_set)

pytestmark = pytest.mark.hashseed


def test_fact_parse_and_str_round_trip():
    for text in ["dirty(end,v)", "cheap(3)", "flow(s0,0)", "marker",
                 "c(1, 2)", "v(-3)"]:
        f = hg.parse_fact(text)
        assert str(f) == text.replace(" ", "")
        assert hg.parse_fact(str(f)) == f


def test_fact_ordering_ints_before_strings():
    assert Fact("v", (2,)) < Fact("v", (10,))
    assert Fact("v", (10,)) < Fact("v", ("s0",))


# int and str arguments mixed at the same position: tuple order would
# raise TypeError on them
_TERMS = st.one_of(st.integers(-3, 3), st.sampled_from(["a", "b", "s0"]))
_FACTS = st.builds(Fact, st.sampled_from(["u", "v"]),
                   st.lists(_TERMS, max_size=2).map(tuple))
_ARCS = st.builds(Arc, _FACTS, st.frozensets(_FACTS, max_size=2),
                  st.sampled_from(["r", "s"]))


@given(st.one_of(st.lists(_FACTS, min_size=1, max_size=6),
                 st.lists(_ARCS, min_size=1, max_size=6)))
@settings(max_examples=150, deadline=None)
def test_facts_and_arcs_order_by_key(items):
    for x, y in itertools.product(items, repeat=2):
        kx, ky = x._key(), y._key()
        assert (x < y, x <= y, x > y, x >= y) == (kx < ky, kx <= ky,
                                                  kx > ky, kx >= ky)
    keys = sorted(x._key() for x in items)
    assert [x._key() for x in sorted(items)] == keys
    assert min(items)._key() == keys[0] and max(items)._key() == keys[-1]


_HEAD = Fact("dirty", ("end", "x"))
_ARC = Arc(Fact("v", (3,)), [Fact("q"), Fact("flow", ("s0", 0))], "r")


@pytest.mark.parametrize("obj", [_HEAD, Fact("q"), _ARC],
                         ids=["fact", "nullary", "arc"])
def test_copies_and_pickles_keep_the_type_and_the_fields(obj):
    for dup in copies(obj):
        assert type(dup) is type(obj) and dup == obj
        assert repr(dup) == repr(obj)


def test_arc_repr_does_not_depend_on_the_body_order():
    # two facts whose hashes collide in a two-fact set's 8-slot table, so
    # that the set iterates them in the order they were inserted in
    a, b = next((x, y) for x, y in itertools.combinations(
        [Fact("q", (i,)) for i in range(64)], 2)
        if list(frozenset([x, y])) != list(frozenset([y, x])))
    arcs = [Arc(_HEAD, frozenset(body), "r") for body in ([a, b], [b, a])]
    assert repr(arcs[0]) == repr(arcs[1])
    assert eval(repr(arcs[0]), {"Arc": Arc, "Fact": Fact}) == arcs[0]
    assert repr(Arc(_HEAD, (), "r")) == (
        "Arc(head=Fact(relation='dirty', args=('end', 'x')), "
        "body=frozenset(), rule_type='r')")


def test_fact_and_arc_repr_and_keyword_construction():
    assert repr(_HEAD) == "Fact(relation='dirty', args=('end', 'x'))"
    assert repr(Fact("q")) == "Fact(relation='q', args=())"
    arc = Arc(head=Fact("h", (1,)), body=[Fact("b")], rule_type="r")
    assert repr(arc) == ("Arc(head=Fact(relation='h', args=(1,)), "
                         "body=frozenset({Fact(relation='b', args=())}), "
                         "rule_type='r')")
    assert Fact(relation="v", args=(1,)) == Fact("v", (1,))
    assert (arc.head, arc.body, arc.rule_type) == (
        Fact("h", (1,)), frozenset([Fact("b")]), "r")


def test_a_fact_equals_and_hashes_like_its_plain_tuple():
    assert _HEAD == ("dirty", ("end", "x"))
    assert hash(_HEAD) == hash(("dirty", ("end", "x")))
    assert hash(_ARC) == hash((_ARC.head, _ARC.body, "r"))
    with pytest.raises(AttributeError):
        _HEAD.relation = "clean"


def test_arc_checks_its_rule_type_and_freezes_its_body():
    with pytest.raises(ValueError):
        Arc(fact(1), [fact(2)], "")
    arc = Arc(fact(1), [fact(2), fact(2)], "r")
    assert type(arc.body) is frozenset and arc.body == {fact(2)}


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


def _relabelled(rng, g: Hypergraph) -> Hypergraph:
    """g with its facts renamed, one to one, to a mix of facts of other
    relations and arities, nullary ones among them, and with negative and
    non-negative integer and name arguments at one position, so that key
    order is not the order of the integers."""
    names = {}
    for v in sorted(g.vertices):
        i = v.args[0]
        names[v] = rng.choice([v, Fact("v", (f"n{i}",)), Fact("p", (i, "x")),
                               Fact("v", (-1 - i,)), Fact("p", (-1 - i, i)),
                               Fact(f"n{i}")])
    return Hypergraph(Arc(names[a.head], frozenset(names[b] for b in a.body),
                          a.rule_type) for a in g.arcs)


@given(st.integers(0, 10_000))
@settings(max_examples=300, deadline=None)
def test_the_ranking_is_the_key_sort_of_the_reference(seed):
    """On relabelled graphs with extra facts, some outside the graph and
    some nullary, `_ranked` gives the facts, ids and ranked arcs of the
    reference that sorts by `Fact._key`, in order, and the graph
    serializes to the reference's bytes."""
    rng = random.Random(seed)
    g = _relabelled(rng, random_hypergraph(rng))
    verts = sorted(g.vertices)
    extra = set(rng.sample(verts, rng.randint(0, min(3, len(verts)))))
    extra |= set(rng.sample([fact(99), fact(-99), Fact("v", ("n99",)),
                             Fact("p", (-7, "x")), Fact("o")],
                            rng.randint(0, 3)))
    assert hg._ranked(g.arcs, extra) == hypergraph_reference.ranked(g.arcs, extra)
    assert hg.serialize_provenance(g) == hypergraph_reference.serialize_provenance(g)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_index_closes_as_the_naive_oracles(seed):
    """Empty-body arcs and seeds outside the graph, some not facts: close
    is the naive closure with the brute-force distances, run its
    restriction to the index, the forward arcs of a one-set sweep those of
    `forward_arcs`, and run over a subset of its arcs the naive closure
    through them."""
    rng = random.Random(seed)
    g = _relabelled(rng, random_hypergraph(rng))
    verts = sorted(g.vertices)
    t = set(rng.sample(verts, rng.randint(0, len(verts))))
    t |= set(rng.sample(["outside", fact(99), (99, "x")], rng.randint(0, 3)))
    index = hg.Index(g.arcs)
    dist = index.close(t)
    assert dist.keys() == naive_closure(g, t)
    assert dist == {u: d for u, d in brute_force_distances(g, t).items()
                    if d is not INFINITY}
    assert index.run(t) == {index.ids[u]: d for u, d in dist.items()
                            if u in index.ids}
    forward = index.sweep([t])[1]
    assert {index.arcs[j] for j, m in enumerate(forward) if m} == \
        hg.forward_arcs(g, t).arcs
    some = [j for j in range(len(index.arcs)) if rng.random() < 0.6]
    rng.shuffle(some)
    sub = Hypergraph(index.arcs[j] for j in some)
    assert index.run(t, some).keys() == {
        index.ids[u] for u in naive_closure(sub, t) if u in index.ids}


_SMALL_FACTS = st.builds(fact, st.integers(0, 5))
# bodies may be empty or hold their own head
_LOOSE_ARCS = st.builds(Arc, _SMALL_FACTS, st.frozensets(_SMALL_FACTS, max_size=3),
                        st.sampled_from(["r", "s"]))


@given(st.lists(_LOOSE_ARCS, max_size=12, unique=True),
       st.frozensets(_SMALL_FACTS, max_size=4), st.data())
@settings(max_examples=300, deadline=None)
def test_the_kernel_finds_the_forward_arcs(arcs, t, data):
    """With empty bodies, self-loops and seeds among the heads: the arcs
    that a one-set sweep calls forward are those of `forward_arcs`, and
    run over the whole graph or over the subset of arcs that may fire
    gives the brute-force distances through those arcs."""
    index = hg.Index(arcs)
    forward = index.sweep([t])[1]
    assert {index.arcs[j] for j, m in enumerate(forward) if m} == \
        hg.forward_arcs(Hypergraph(arcs), t).arcs
    some = data.draw(st.none() | st.lists(
        st.integers(0, len(arcs) - 1), unique=True) if arcs else st.none())
    sub = arcs if some is None else [index.arcs[j] for j in some]
    assert {index.facts[i]: d for i, d in index.run(t, some).items()} == {
        u: d for u, d in brute_force_distances(Hypergraph(sub), t).items()
        if d is not INFINITY and u in index.ids}


def _assert_sweep_is_the_oracles_per_set(index, seed_sets):
    """Bit k of `sweep` is the naive closure and the forward arcs from seed
    set k, and no higher bit is set."""
    g = Hypergraph(index.arcs)
    reach, forward = index.sweep(seed_sets)
    assert len(reach) == len(index.facts) and len(forward) == len(index.arcs)
    for k, t in enumerate(seed_sets):
        assert {index.facts[i] for i, m in enumerate(reach) if m >> k & 1} == {
            u for u in naive_closure(g, t) if u in index.ids}, k
        assert {index.arcs[j] for j, m in enumerate(forward) if m >> k & 1} == \
            hg.forward_arcs(g, t).arcs, k
    assert max(reach + forward, default=0) < 1 << len(seed_sets)


@given(st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_sweep_is_the_oracles_from_each_seed_set(seed):
    """No set, one, a few, or more than 64 (masks of several machine
    words), over graphs with empty bodies, from seeds inside and outside
    the index, some not facts."""
    rng = random.Random(seed)
    g = _relabelled(rng, random_hypergraph(rng))
    verts = sorted(g.vertices)
    outside = ["outside", fact(99), (99, "x")]
    n = rng.choice([0, 1, rng.randint(2, 8), rng.randint(65, 70)])
    seed_sets = [set(rng.sample(verts, rng.randint(0, len(verts))))
                 | set(rng.sample(outside, rng.randint(0, 1))) for _ in range(n)]
    _assert_sweep_is_the_oracles_per_set(hg.Index(g.arcs), seed_sets)


def test_sweep_on_seeded_heads_and_arcs_that_fire_together():
    """An empty-body arc, a seed that is an arc's head, two arcs into one
    head in one layer (both forward), a seed outside the index, and a
    cycle back into a seed, from 0, 1 and 70 seed sets."""
    x, y, z, h, e = (Fact(n) for n in "xyzhe")
    arcs = [Arc(e, (), "base"), Arc(h, [x], "r"), Arc(h, [y], "r"),
            Arc(z, [h, e], "r"), Arc(x, [z], "r")]
    index = hg.Index(arcs)
    base = [{x, y}, {x}, {h}, {h, x}, {Fact("outside")}, set(), {z, y}]
    for seed_sets in ([], base[:1], base * 10):
        _assert_sweep_is_the_oracles_per_set(index, seed_sets)
    reach, forward = index.sweep(base[:1])
    # both arcs into h fire in layer 1; the arc back into seed x is not forward
    assert [forward[index.arcs.index(a)] for a in arcs] == [1, 1, 1, 1, 0]
    assert reach == [1] * 5
    assert index.sweep([])[1] == [0] * 5


def _assert_numbered_in_key_order(index, facts):
    """index numbers exactly `facts` in `Fact._key` order and its arcs in
    `Arc._key` order, each body's ids ascending, in the index's layout."""
    assert len(set(index.arcs)) == len(index.arcs)
    assert index.facts == sorted(facts, key=Fact._key)
    assert {f: i for i, f in enumerate(index.facts)} == index.ids
    assert index.arcs == sorted(index.arcs, key=Arc._key)
    for j, a in enumerate(index.arcs):
        assert index.facts[index.heads[j]] == a.head
        assert [index.facts[b] for b in index.bodies[j]] == sorted(
            a.body, key=Fact._key)
        assert list(index.bodies[j]) == sorted(index.bodies[j])
    _assert_lean_layout(index)


def _assert_lean_layout(index):
    """The arcs into fact i are the ids `first[i]` to `first[i + 1] - 1`,
    `first[-1]` is the number of arcs, and the per-arc and per-fact
    columns the kernels walk are tuples."""
    first = index.first
    assert len(first) == len(index.facts) + 1
    assert first[0] == 0 and first[-1] == len(index.arcs)
    for i, f in enumerate(index.facts):
        assert list(range(first[i], first[i + 1])) == [
            j for j, a in enumerate(index.arcs) if a.head == f]
    for column, size in ((index.bodies, len(index.arcs)),
                         (index._uses, len(index.facts))):
        assert type(column) is tuple and len(column) == size
        assert all(type(ids) is tuple for ids in column)


@given(st.integers(0, 10_000))
@settings(max_examples=300, deadline=None)
def test_the_cone_numbers_facts_and_arcs_in_key_order(seed):
    """An index of a graph and extra facts, some outside it, and the cone
    and extra facts, are numbered in `Fact._key` order, the arcs in
    `Arc._key` order with each body's ids ascending; the cone's arcs are
    those of `slice_to_query`."""
    from provrefine import refine

    rng = random.Random(seed)
    g = _relabelled(rng, random_hypergraph(rng))
    verts = sorted(g.vertices)
    extra = {fact(i) for i in rng.sample(range(105), rng.randint(0, 4))}
    extra |= set(rng.sample(verts, rng.randint(0, min(2, len(verts)))))
    index = hg.Index(g.arcs, extra)
    assert Hypergraph(index.arcs) == g
    _assert_numbered_in_key_order(index, g.vertices | extra)
    q = rng.choice(verts + [fact(99)])
    cone = hg.Index.cone(g, q, extra)
    sliced = refine.slice_to_query(g, q)
    assert Hypergraph(cone.arcs) == sliced
    _assert_numbered_in_key_order(cone, {q} | sliced.vertices | extra)


@given(st.integers(0, 10_000))
@settings(max_examples=300, deadline=None)
def test_the_arcs_into_a_fact_are_one_run_of_ids(seed):
    """On random graphs, with empty bodies, self-loops and mixed integer
    and name arguments, on their restrictions to random arc subsets and on
    their cones, `range(first[i], first[i + 1])` is exactly the arcs with
    head i and `first[-1]` the number of arcs."""
    rng = random.Random(seed)
    g = _relabelled(rng, random_hypergraph(rng))
    verts = sorted(g.vertices)
    loops = rng.sample(verts, min(2, len(verts)))
    g = Hypergraph([*g.arcs, *(Arc(v, [v], "loop") for v in loops)])
    extra = {fact(i) for i in rng.sample(range(105), rng.randint(0, 3))}
    index = hg.Index(g.arcs, extra)
    _assert_lean_layout(index)
    some = [j for j in range(len(index.arcs)) if rng.random() < rng.random()]
    rng.shuffle(some)
    _assert_lean_layout(index.restrict(some))
    cone = hg.Index.cone(g, rng.choice(verts + [fact(99)]), extra)
    _assert_lean_layout(cone)
    _assert_lean_layout(cone.restrict(
        j for j in range(len(cone.arcs)) if rng.random() < 0.5))


@given(st.integers(0, 10_000))
@settings(max_examples=300, deadline=None)
def test_a_restriction_is_the_index_of_its_arcs(seed):
    """Any subset of an index's arcs, given in any order, over graphs with
    empty bodies, self-loops and mixed integer and name arguments: the
    restriction equals `Index` of the arcs."""
    rng = random.Random(seed)
    g = _relabelled(rng, random_hypergraph(rng))
    loops = rng.sample(sorted(g.vertices), min(2, len(g.vertices)))
    g = Hypergraph([*g.arcs, *(Arc(v, [v], "loop") for v in loops)])
    extra = {fact(i) for i in rng.sample(range(105), rng.randint(0, 2))}
    index = hg.Index(g.arcs, extra)
    some = [j for j in range(len(index.arcs)) if rng.random() < rng.random()]
    rng.shuffle(some)
    plain = Hypergraph(index.arcs[j] for j in some)
    seed_sets = [random_seed_set(rng, g) for _ in range(rng.randint(0, 3))]
    assert_same_index(index.restrict(some), hg.Index(plain.arcs), seed_sets)


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
    got = set(lfr.loops(g))
    assert got == {frozenset([fact(0)]), frozenset([fact(1)]),
                   frozenset([fact(0), fact(1)])}


def test_justifications_exclude_arcs_with_body_in_loop():
    loop = {fact(0), fact(1)}
    inside = Arc(fact(0), frozenset([fact(1)]), "r")
    outside = Arc(fact(1), frozenset([fact(2)]), "r")
    g = Hypergraph([inside, outside])
    assert lfr.justifications(g, loop) == frozenset([outside])


def test_hypergraphs_are_equal_when_their_arcs_are():
    a = Arc(fact(1), frozenset([fact(0)]), "r")
    b = Arc(fact(2), frozenset([fact(1)]), "r")
    assert Hypergraph([a]) == Hypergraph(iter([a]))
    assert Hypergraph([a]) != Hypergraph([a, b])
    assert Hypergraph([a]) != frozenset([a])


def test_parse_provenance_names_each_fact_by_one_object():
    from datalog_reference import smudge_analysis

    sites = [(lbl, 2 + lbl % 3, "xyzw"[lbl % 4], "xyzw"[(lbl + 1) % 4])
             for lbl in range(16)]
    g = hg.parse_provenance(hg.serialize_provenance(
        smudge_analysis(sites).global_graph))
    mentions = [f for a in g.arcs for f in (a.head, *a.body)]
    assert len({id(f) for f in mentions}) == len(set(mentions)) == len(g.vertices)


def test_parse_provenance_reports_line_numbers():
    from provrefine.errors import ParseError

    with pytest.raises(ParseError) as exc:
        hg.parse_provenance("v(1) <- v(0) @ r\nnot an arc\n")
    assert exc.value.line == 2
