"""`serialize_provenance` writes the bytes of its reference: arcs sorted by
`Arc._key`, each written by `str` (`hypergraph_reference`).  The fact set
iterates in an order that changes with the hash seed, and the ranking of
the facts must not."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

import hypergraph_reference as ref
import provrefine.hypergraph as hg
from provrefine import datalog
from provrefine.hypergraph import Arc, Fact, Hypergraph

from test_datalog import _smudge_program

pytestmark = pytest.mark.hashseed

# integers of one and two digits, negative ones, and names at one position:
# text order and key order disagree on all three
_TERMS = st.one_of(st.integers(-12, 12), st.sampled_from(["a", "b", "s0", "end"]))
_FACTS = st.builds(Fact, st.sampled_from(["u", "v", "dirty"]),
                   st.lists(_TERMS, max_size=2).map(tuple))


@st.composite
def _graphs(draw):
    """Arcs over a small pool of facts, zero-arity ones among them, so
    facts recur, heads are body facts of other arcs and bodies may be
    empty."""
    pool = draw(st.lists(_FACTS, min_size=1, max_size=8, unique=True))
    facts = st.sampled_from(pool)
    return Hypergraph(draw(st.lists(
        st.builds(Arc, facts, st.frozensets(facts, max_size=3),
                  st.sampled_from(["r", "s", "base"])),
        max_size=12)))


_EDGE_CASES = Hypergraph([
    Arc(Fact("v", (-2,)), [], "base"),
    Arc(Fact("v", (10,)), [Fact("v", (-2,)), Fact("v", (2,)), Fact("q")], "r"),
    Arc(Fact("v", ("a",)), [Fact("v", (10,))], "r"),
    Arc(Fact("q"), [], "base"),
    Arc(Fact("v", (2,)), [Fact("v", ("a",)), Fact("q")], "s"),
])


@given(_graphs())
@example(_EDGE_CASES)
@example(Hypergraph())
@settings(max_examples=300, deadline=None)
def test_serialization_writes_the_reference_bytes(g):
    text = hg.serialize_provenance(g)
    assert text == ref.serialize_provenance(g)
    assert hg.parse_provenance(text) == g


def test_the_edge_cases_are_written_in_key_order():
    assert hg.serialize_provenance(_EDGE_CASES) == (
        "q <- @ base\n"
        "v(-2) <- @ base\n"
        "v(2) <- q v(a) @ s\n"
        "v(10) <- q v(-2) v(2) @ r\n"
        "v(a) <- v(10) @ r\n")


@pytest.mark.parametrize("sites", [50, 100, 200])
def test_smudge_programs_serialize_as_the_reference(sites):
    rules, base, seeds = _smudge_program(random.Random(sites), sites)
    g = datalog.ground(rules, base, seeds=seeds)
    assert hg.serialize_provenance(g) == ref.serialize_provenance(g)
