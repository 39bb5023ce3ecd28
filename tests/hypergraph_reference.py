"""Reference ranking and serializer: facts sorted by `Fact._key`, arcs by
`Arc._key`, each written by `str`.

`ranked` is `provrefine.hypergraph._ranked` as it was before it ranked
argument values: one `Fact._key` tuple per distinct fact, kept as the
oracle the ranked arguments are checked against; both must give equal
facts, ids and ranked arcs, in order.  `serialize_provenance` is the
straightforward version of `provrefine.hypergraph.serialize_provenance`,
kept as the oracle its ranked facts are checked against: a sort of the
arcs by their key tuples, with one `Fact._key` per distinct fact, and one
`str(arc)` per line, which keys and prints each fact once per mention.
Both must write the same bytes.
"""

from provrefine.hypergraph import Fact, Hypergraph


def ranked(arcs, extra=()) -> tuple:
    """(facts, ids, ranked): the distinct facts of the arcs and of extra in
    `Fact._key` order, their ids, and per arc (head id, ascending body ids
    as a tuple, rule type, arc), sorted: distinct facts have distinct keys,
    so this is `Arc._key` order."""
    facts = {f for head, body, _ in arcs for f in (head, *body)}
    facts = sorted(facts.union(extra), key=Fact._key)
    ids = {f: i for i, f in enumerate(facts)}
    rank = ids.__getitem__
    return facts, ids, sorted(
        (rank(head), tuple(sorted(map(rank, body))), rule_type, arc)
        for arc in arcs for head, body, rule_type in (arc,))


def _sorted_sharing_keys(arcs) -> list:
    """`sorted(arcs, key=Arc._key)`, its key spelled out with one
    `Fact._key` per distinct fact shared by every arc naming it: a large
    graph names each fact in many arcs, and one key tuple per mention is
    most of the sort's memory.  On small graphs the lookups cost more than
    they save."""
    keys = {}

    def fact_key(f):
        k = keys.get(f)
        if k is None:
            k = keys[f] = f._key()
        return k

    return sorted(arcs, key=lambda a: (
        fact_key(a.head), tuple(sorted(map(fact_key, a.body))), a.rule_type))


def serialize_provenance(g: Hypergraph) -> str:
    """Canonical text form; parse(serialize(g)) == g, byte for byte stable."""
    return "".join(str(a) + "\n" for a in _sorted_sharing_keys(g.arcs))
