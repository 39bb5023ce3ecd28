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

`run` is the layered one-set closure that `provrefine.hypergraph.Index`
kept beside its bit-parallel `sweep` until every closure went through
`sweep`: fact id -> max-plus distance, kept as the oracle of the
distances `hypergraph.distances` gives and of the facts a one-set sweep
reaches, through all of an index's arcs or a subset of them.
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


def run(index, t, arcs=None) -> dict:
    """Fact id -> max-plus distance from the seed facts t, for the facts
    reached.  Seeds outside the index are dropped.  Given `arcs`, only
    the arcs with those ids fire.

    Seeds are at 0 and heads of empty-body arcs at 1.  Facts settle layer
    by layer; an arc fires when its last body fact settles, and that fact
    is the farthest of its body, so the head's candidate is its layer + 1.
    The first candidate a head gets is its least, so no heap is needed.
    """
    ids, heads, uses = index.ids, index.heads, index._uses
    sizes = list(map(len, index.bodies))
    if arcs is None:
        pending = sizes.copy()
    else:  # an arc left out counts down past 0, so it never fires
        pending = [-1] * len(index.arcs)
        for j in arcs:
            pending[j] = sizes[j]
    dist = dict.fromkeys([ids[u] for u in t if u in ids], 0)
    layer, nxt = list(dist), []
    for j in index._empty:
        if not pending[j] and heads[j] not in dist:
            dist[heads[j]] = 1
            nxt.append(heads[j])
    d = 1  # the distance of the heads that fire from this layer
    while layer or nxt:
        for f in layer:
            for j in uses[f]:
                pending[j] -= 1
                if not pending[j]:
                    h = heads[j]
                    if h not in dist:
                        dist[h] = d
                        nxt.append(h)
        layer, nxt, d = nxt, [], d + 1
    return dist


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
