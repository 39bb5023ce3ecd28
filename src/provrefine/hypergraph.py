"""Directed hypergraph core.

Facts are ground atoms; an arc records one instantiated inference step
(head, body set, rule-type tag).  Every layer keys dicts and sets by
them, so both are tuples of their fields, hashed, compared and built in
C: a `Fact` is the tuple `(relation, args)` and equals and hashes like
that plain tuple (no container in the library holds both), an `Arc` is
`(head, body, rule_type)`.  Both order by `_key`, not as tuples, so
integer and name arguments at one position sort integers first.  One
reader, `parse_fact`, reads every fact and Datalog atom into a `Fact`.
Reachability is the least fixpoint of
"if all body facts hold, the head holds", and the max-plus hyperpath
distance is the round of that fixpoint in which a fact is first derived.
One kernel closes an `Index`, which numbers a graph's facts and arcs by
integers: `Index.sweep` closes from a batch of seed sets in one
bit-parallel pass, one bit per set, through every arc or a given subset
of arc ids, and is the one kernel of reach and of forward arcs.
`likelihood.observe` and `bound_terms` sweep an observation batch, each
iteration of `refine.solve` its two sets, P0 | P1 and P1,
`exact_likelihood` a batch per subset of arcs, and `reach`, `derive`,
`local_provenance` and `decode_model` one set.  `distances` relaxes the
graph's arcs to their definition's fixpoint with no index, so that
`forward_arcs`, built on it, stays independent of the kernel's forward
bits, which it is the oracle of.
Every index numbers by one rule: facts in `Fact._key` order and arcs in
`Arc._key` order, whatever the hash seed.  `_ranked` sorts them by small
integers: it ranks the distinct argument values once, integers before
names, sorts the facts by relation and argument ranks, which is
`Fact._key` order with no key tuple per argument, and the arcs by head
id, body ids and rule type.  The text format prints from the same
ranking (`serialize_provenance`); `Index.restrict` keeps the order of a
subset of an index's arcs, which is that order already, and ranks
nothing again.  An index stays lean, as an analysis keeps two alive for
as long as it lives: `Arc._key` sorts by head first, so the arcs into a
fact are one run of arc ids, read off one offsets list, `Index.first`,
and the per-arc bodies and per-fact uses the kernel walks are tuples,
built once.

`reach` builds an index per call.  An analysis caches the one index of
its global graph (`analysis.Analysis.index`), which `derive` sweeps from
each seed set and `likelihood.observe` from every abstraction of a
batch.  `refine.solve` indexes the query's backward cone
and the parameter facts (`Index.cone`) once for a run of solves of one
query of one analysis: it keeps the last solve's cone, with a weak
reference to its analysis, and no more.  A blueprint is an
index: `analysis.local_provenance` returns the restriction of the
analysis's index to the arcs it keeps (an analysis caches the one at the
all-cheap abstraction, `Analysis.blueprint`), and `likelihood.bound_terms`
takes that index, or `Index(arcs)` of a graph with no analysis, such as
a blueprint file, as `exact_likelihood` does.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
import string
import sys
from typing import Callable, Collection, Iterable, Optional

from .errors import ParseError

INFINITY = float("inf")


class _Record(tuple):
    """A tuple of fields that orders by `_key`, not as a tuple.

    `tuple` defines every rich comparison, so each is overridden here;
    `__getnewargs__` hands copy and pickle the fields, where tuple's own
    would pass the whole tuple as the first field.
    """

    __slots__ = ()

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __lt__(self, other) -> bool:
        return self._key() < other._key()

    def __le__(self, other) -> bool:
        return self._key() <= other._key()

    def __gt__(self, other) -> bool:
        return self._key() > other._key()

    def __ge__(self, other) -> bool:
        return self._key() >= other._key()


class Fact(_Record):
    """A ground atom: relation name plus a tuple of constants.

    The tuple `(relation, args)` itself: it equals and hashes like that
    plain tuple, and orders by `_key`, which sorts integers before names.
    """

    __slots__ = ()

    def __new__(cls, relation: str, args: tuple = ()):
        return tuple.__new__(cls, (relation, args))

    relation = property(operator.itemgetter(0))
    args = property(operator.itemgetter(1))

    def _key(self):
        relation, args = self
        return (relation,) + tuple(
            (0, a) if isinstance(a, int) else (1, a) for a in args)

    def __repr__(self) -> str:
        return "Fact(relation=%r, args=%r)" % self

    def __str__(self) -> str:
        relation, args = self
        if not args:
            return relation
        return "%s(%s)" % (relation, ",".join(str(a) for a in args))


class Arc(_Record):
    """An instantiated rule: head <- body, tagged with its rule type.

    The tuple `(head, body, rule_type)`, with the body a frozenset.
    """

    __slots__ = ()

    def __new__(cls, head: Fact, body: Iterable[Fact], rule_type: str):
        if not rule_type:
            raise ValueError("arc rule_type must be non-empty")
        if not isinstance(body, frozenset):
            body = frozenset(body)
        return tuple.__new__(cls, (head, body, rule_type))

    head = property(operator.itemgetter(0))
    body = property(operator.itemgetter(1))
    rule_type = property(operator.itemgetter(2))

    def _key(self):
        head, body, rule_type = self
        return (head._key(), tuple(sorted(map(Fact._key, body))), rule_type)

    def __repr__(self) -> str:
        # the body's facts in key order: equal sets may iterate differently
        head, body, rule_type = self
        facts = ", ".join(map(repr, sorted(body, key=Fact._key)))
        return "Arc(head=%r, body=frozenset(%s), rule_type=%r)" % (
            head, "{%s}" % facts if facts else "", rule_type)

    def __str__(self) -> str:
        head, body, rule_type = self
        parts = [str(head), "<-"]
        parts.extend(str(b) for b in sorted(body, key=Fact._key))
        parts.extend(["@", rule_type])
        return " ".join(parts)


class Hypergraph:
    """An immutable set of arcs; vertices are the facts the arcs mention."""

    def __init__(self, arcs: Iterable[Arc] = ()):
        self.arcs = frozenset(arcs)

    @functools.cached_property
    def vertices(self) -> frozenset:
        verts = set()
        for a in self.arcs:
            verts.add(a.head)
            verts.update(a.body)
        return frozenset(verts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Hypergraph) and self.arcs == other.arcs


_ARGS = operator.itemgetter(1)


def _ranked(arcs: Collection[Arc], extra: Iterable[Fact] = ()) -> tuple:
    """(facts, ids, ranked): the distinct facts of the arcs and of extra in
    `Fact._key` order, their ids, and per arc (head id, ascending body ids
    as a tuple, rule type, arc), sorted: distinct facts have distinct keys,
    so this is `Arc._key` order.

    Arguments are integers and names, as every reader and
    `datalog.ground` build them.  The distinct ones are ranked once,
    integers before names, and a fact sorts by its relation and its
    arguments' ranks, the order of `Fact._key` without a key tuple per
    argument."""
    heads, bodies, _ = zip(*arcs) if arcs else ((), (), ())
    facts = set(extra).union(heads, *bodies)
    values = set().union(*map(_ARGS, facts))
    ints = sorted([v for v in values if isinstance(v, int)])
    names = sorted([v for v in values if not isinstance(v, int)])
    arg_rank = dict(zip(ints + names, range(len(values)))).__getitem__
    facts = sorted(facts, key=lambda f: (f[0], *map(arg_rank, f[1])))
    ids = dict(zip(facts, range(len(facts))))
    rank = ids.__getitem__
    ranked = [(rank(head), tuple(sorted(map(rank, body))) if body else (),
               rule_type, arc)
              for arc in arcs for head, body, rule_type in (arc,)]
    ranked.sort()
    return facts, ids, ranked


class Index:
    """A graph's facts and arcs numbered by integers, and the closure kernel.

    `facts[i]` is fact i and `ids` its inverse, in `Fact._key` order, with
    the facts of `extra` whether or not an arc mentions them; `arcs[j]` is
    arc j, in `Arc._key` order, `heads[j]` its head's id and `bodies[j]`
    the tuple of its body's ids, ascending.  `Arc._key` sorts by head
    first, so the arcs into fact i are one run of ids, `first[i]` to
    `first[i + 1] - 1`, and `first[-1]` is the number of arcs: no list per
    fact holds them.  `bodies`, and per fact the arcs it is a body fact
    of, are tuples, built once.
    """

    def __init__(self, arcs: Collection[Arc] = (), extra: Iterable[Fact] = ()):
        self.facts, self.ids, ranked = _ranked(arcs, extra)
        heads, bodies, _, arcs = zip(*ranked) if ranked else ((), (), (), ())
        self._link(list(heads), bodies, list(arcs))

    def _link(self, heads: list, bodies: tuple, arcs: list) -> None:
        """Set the arc columns, given `facts`, and the offsets and tuples
        the kernel walks."""
        self.heads, self.bodies, self.arcs = heads, bodies, arcs
        # heads ascend, so the run into fact i starts after the arcs into
        # the facts before it
        first = [0] * (len(self.facts) + 1)
        for h in heads:
            first[h + 1] += 1
        self.first = list(itertools.accumulate(first))
        # per fact the arcs it is a body fact of, and the arcs with an empty
        # body
        uses = [[] for _ in self.facts]
        for j, body in enumerate(bodies):
            for b in body:
                uses[b].append(j)
        self._uses = tuple(map(tuple, uses))
        self._empty = [j for j, body in enumerate(bodies) if not body]

    @classmethod
    def cone(cls, g: Hypergraph, q, extra: Iterable) -> "Index":
        """The index of q's backward cone in g and of the facts of `extra`.
        A cone fact's reach and distance depend only on the arcs into its
        own cone, so `sweep` gives it its reach and forward arcs in g; an
        extra fact outside the cone is only a seed."""
        by_head = {}
        for e in g.arcs:
            by_head.setdefault(e.head, []).append(e)
        facts, arcs = [q], []
        for f in facts:  # grows as the search meets facts
            for e in by_head.pop(f, ()):
                arcs.append(e)
                facts.extend(e.body)
        return cls(arcs, {q, *extra})

    def restrict(self, arc_ids: Iterable[int]) -> "Index":
        """The index of the arcs with the distinct ids arc_ids, equal field
        by field to `Index` of those arcs.  Facts and arcs keep their order
        here, ascending ids, which is key order, so nothing is ranked again:
        renumbering the facts in order keeps each body ascending and the
        arcs in `Arc._key` order."""
        arc_ids = sorted(arc_ids)
        heads, bodies = self.heads, self.bodies
        kept = {heads[j] for j in arc_ids}
        for j in arc_ids:
            kept.update(bodies[j])
        kept = sorted(kept)
        rank = dict(zip(kept, range(len(kept))))
        sub = object.__new__(type(self))
        sub.facts = list(map(self.facts.__getitem__, kept))
        sub.ids = dict(zip(sub.facts, range(len(kept))))
        sub._link([rank[heads[j]] for j in arc_ids],
                  tuple([tuple(map(rank.__getitem__, bodies[j]))
                         for j in arc_ids]),
                  list(map(self.arcs.__getitem__, arc_ids)))
        return sub

    def sweep(self, seed_sets: Iterable[Iterable],
              arcs: Optional[Iterable[int]] = None) -> tuple:
        """(reach, forward) from every seed set at once, with one bit per
        set: bit k of `reach[i]` says set k reaches fact i, a seed or a
        fact it derives, and bit k of `forward[j]` that arc j is forward
        from set k, its head farther from the set than every body fact
        (`forward_arcs`).  Seeds outside the index are dropped.  Given
        `arcs`, only the arcs with those ids fire, for every set.  The one
        closure kernel, for one set, a batch or refinement's two sets.

        One layered pass serves every set (bit-parallel multi-source
        search).  An arc fires for the sets in the AND of its body facts'
        masks that it has not fired for yet, and is forward for those whose
        head was unreached before this layer; heads take their new bits
        only once the layer is done, so two arcs into one head in one layer
        are both forward, and so is every empty-body arc that fires.  A
        layer re-evaluates only the arcs of the facts that gained bits in
        the layer before.  An arc left out of `arcs` counts as fired for
        every set from the start, so it never fires.
        """
        ids, heads, bodies, uses = self.ids, self.heads, self.bodies, self._uses
        reach, forward = [0] * len(self.facts), [0] * len(self.arcs)
        full = 0
        for k, t in enumerate(seed_sets):
            bit = 1 << k
            full |= bit
            for u in t:
                i = ids.get(u)
                if i is not None:
                    reach[i] |= bit
        if arcs is None:
            fired = [0] * len(self.arcs)  # per arc the sets it has fired for
        else:
            fired = [full] * len(self.arcs)
            for j in arcs:
                fired[j] = 0
        layer = [i for i, m in enumerate(reach) if m]
        gains = {}  # fact id -> the sets it settles for in this layer
        for j in self._empty:
            if fired[j]:
                continue
            forward[j] = full
            h = heads[j]
            gain = full & ~reach[h]
            if gain:
                gains[h] = gains.get(h, 0) | gain
        while layer or gains:
            for f in layer:
                for j in uses[f]:
                    w = full
                    for b in bodies[j]:
                        w &= reach[b]
                    fire = w & ~fired[j]
                    if fire:
                        fired[j] |= fire
                        h = heads[j]
                        gain = fire & ~reach[h]
                        if gain:
                            forward[j] |= gain
                            gains[h] = gains.get(h, 0) | gain
            for h, gain in gains.items():
                reach[h] |= gain
            layer, gains = gains, {}
        return reach, forward

    def slice(self, root: int, keep) -> list:
        """The ids of the arcs j with keep(j) that reach fact root through
        such arcs."""
        first, bodies = self.first, self.bodies
        seen, stack, out = {root}, [root], []
        while stack:
            h = stack.pop()
            for j in range(first[h], first[h + 1]):
                if keep(j):
                    out.append(j)
                    for b in bodies[j]:
                        if b not in seen:
                            seen.add(b)
                            stack.append(b)
        return out


def reach(g: Hypergraph, t: Iterable[Fact]) -> frozenset:
    """Least set R with T subseteq R that is closed under the arcs of g."""
    t = frozenset(t)
    index = Index(g.arcs)
    return t.union(itertools.compress(index.facts, index.sweep([t])[0]))


def induced(g: Hypergraph, t: Iterable[Fact]) -> Hypergraph:
    """Sub-hypergraph keeping arcs fully contained in the fact set t."""
    ts = frozenset(t)
    return Hypergraph(a for a in g.arcs if a.head in ts and a.body <= ts)


def distances(g: Hypergraph, t: Iterable[Fact]) -> dict:
    """Max-plus hyperpath distance from the seed set t to every vertex.

    d(h) = 0 for seeds, +inf for unreachable facts, and otherwise the
    minimum over arcs (h, B) of max_b d(b) + 1.  Computed as that
    definition's fixpoint: from 0 at the seeds and +inf elsewhere, every
    arc relaxes its head until no distance drops.  It shares no code with
    `Index.sweep`, whose forward bits `forward_arcs` is the oracle of.
    """
    dist = dict.fromkeys(g.vertices, INFINITY)
    dist.update(dict.fromkeys(t, 0))
    dropped = True
    while dropped:
        dropped = False
        for head, body, _ in g.arcs:
            d = max([dist[b] for b in body], default=0) + 1
            if d < dist[head]:
                dist[head] = d
                dropped = True
    return dist


def forward_arcs(g: Hypergraph, t: Iterable[Fact]) -> Hypergraph:
    """Arcs whose head is strictly farther from t than every body fact.

    Removing the non-forward arcs preserves distances and reachability
    from t.
    """
    d = distances(g, t)
    return Hypergraph(
        a for a in g.arcs
        if all(d[a.head] > d[b] for b in a.body)
    )


# ---------------------------------------------------------------------------
# the one reader of lines, atoms and fact lists, shared by every file format

_NAME = r"[A-Za-z_][A-Za-z0-9_']*"
_ATOM_RE = re.compile(rf"({_NAME})(?:\(([^()]*)\))?")
_INT = r"-?[0-9]+"
_TERM_RE = re.compile(rf"({_INT})|{_NAME}")
_FACT_SEPS = "," + string.whitespace
# the deepest MaxSAT formula and the longest Datalog guard the readers
# accept: what reads, compiles and evaluates them recurses once per level
MAX_NESTING = 200


def read_lines(text: str, handle: Callable[[int, str], None]) -> None:
    """Call handle(lineno, line) on each line of text, numbered from 1,
    with its `#` comment and outer whitespace removed; blank lines are
    skipped.  A ValueError from handle becomes a ParseError at its line.
    Lines end at a newline only, as `wc -l` counts them; the strip drops
    a carriage return or form feed before it.
    """
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.split("#", 1)[0].strip()
        if line:
            try:
                handle(lineno, line)
            except ValueError as exc:
                raise ParseError(lineno, str(exc)) from exc


def parse_fact(text: str) -> Fact:
    """`rel(t1, ..., tn)` or `rel` -> Fact(rel, (t1, ..., tn)).

    A term is an integer or a name; names are interned because they
    repeat across the facts of a graph.
    """
    m = _ATOM_RE.fullmatch(text.strip())
    if not m:
        raise ValueError(f"malformed atom {text.strip()!r}")
    rel, argtext = m.groups()
    if not argtext:
        return Fact(sys.intern(rel), ())
    args = []
    for tok in argtext.split(","):
        tok = tok.strip()
        t = _TERM_RE.fullmatch(tok)
        if not t:
            raise ValueError(f"malformed term {tok!r} in {text.strip()!r}")
        args.append(int(tok) if t.group(1) else sys.intern(tok))
    return Fact(sys.intern(rel), tuple(args))


def split_top(text: str, seps: str) -> list:
    """Split on the characters of seps outside parentheses; drop empty parts."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and ch in seps:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [p.strip() for p in parts if p.strip()]


def parse_facts(text: str) -> list:
    """A list of facts separated by commas and/or whitespace."""
    return [parse_fact(p) for p in split_top(text, _FACT_SEPS)]


# ---------------------------------------------------------------------------
# provenance text format:  head <- body1 body2 ... @ rule_type
# (the body is a fact list: commas, whitespace or both separate facts)


def parse_arc(text: str, fact: Callable[[str], Fact] = parse_fact) -> Arc:
    """An arc from its text; `fact` reads each of its facts."""
    if "@" not in text:
        raise ValueError(f"arc missing rule type: {text!r}")
    main, rule_type = text.rsplit("@", 1)
    if "<-" not in main:
        raise ValueError(f"arc missing '<-': {text!r}")
    head_text, body_text = main.split("<-", 1)
    return Arc(fact(head_text),
               frozenset(map(fact, split_top(body_text, _FACT_SEPS))),
               rule_type.strip())


def parse_provenance(text: str) -> Hypergraph:
    """A graph from its text, naming each distinct fact by one object, as
    grounding does: a fact is mentioned in many arcs."""
    arcs, facts = [], {}

    def fact(text):
        f = parse_fact(text)
        return facts.setdefault(f, f)

    read_lines(text, lambda _, line: arcs.append(parse_arc(line, fact)))
    return Hypergraph(arcs)


def serialize_provenance(g: Hypergraph) -> str:
    """Canonical text form; parse(serialize(g)) == g, byte for byte stable.

    Lines follow `Arc._key` order, each as `str(arc)` writes it, from the
    ranking that numbers an `Index` (`_ranked`), without the index's
    kernel lists: each distinct fact is printed once, the ids are dropped,
    and each arc's ranked entry is replaced by its line in place.  The
    facts are gathered afresh, not through `Hypergraph.vertices`, which
    would stay cached on the graph.
    """
    facts, ids, lines = _ranked(g.arcs)
    del ids
    texts = list(map(str, facts))
    for i, (h, body, rule_type, _) in enumerate(lines):
        lines[i] = " ".join([texts[h], "<-", *[texts[b] for b in body],
                             "@", rule_type]) + "\n"
    return "".join(lines)
