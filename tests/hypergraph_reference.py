"""Reference serializer: arcs sorted by `Arc._key`, each written by `str`.

The straightforward version of `provrefine.hypergraph.serialize_provenance`,
kept as the oracle its ranked facts are checked against: a sort of the
arcs by their key tuples, with one `Fact._key` per distinct fact, and one
`str(arc)` per line, which keys and prints each fact once per mention.
Both must write the same bytes.
"""

from provrefine.hypergraph import Hypergraph


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
