"""Directed hypergraph core.

Facts are ground atoms; an arc records one instantiated inference step
(head, body set, rule-type tag).  Reachability is the least fixpoint of
"if all body facts hold, the head holds", and the max-plus hyperpath
distance is the round of that fixpoint in which a fact is first derived.
One kernel computes both: `_index` numbers a graph's arcs and `_run`
closes over that index from a seed set; `reach` keeps the keys of the
result and `distances` its values.  The index is never cached on a graph,
because callers keep many graphs alive.  `reach` and `distances` build one
per call; a caller that closes one graph from many seed sets builds it once
and runs it per seed set: `refine.solve` over the query's backward cone,
numbered once per solve, `learning.sample_training` over an analysis's
global graph, once per analysis, and `likelihood.bound_terms` over a
blueprint, once per call.
Distances define forward arcs; loops and justifications support the exact
likelihood oracle.
"""

from __future__ import annotations

import functools
import re
import string
import sys
from collections import namedtuple
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import EmptyLoop, OracleLimitExceeded, ParseError

INFINITY = float("inf")


@functools.total_ordering
@dataclass(frozen=True, slots=True)
class Fact:
    """A ground atom: relation name plus a tuple of constants."""

    relation: str
    args: tuple = ()

    def _key(self):
        return (self.relation,) + tuple(
            (0, a) if isinstance(a, int) else (1, a) for a in self.args
        )

    def __lt__(self, other: "Fact") -> bool:
        return self._key() < other._key()

    def __str__(self) -> str:
        if not self.args:
            return self.relation
        return "%s(%s)" % (self.relation, ",".join(str(a) for a in self.args))


@functools.total_ordering
@dataclass(frozen=True, slots=True)
class Arc:
    """An instantiated rule: head <- body, tagged with its rule type."""

    head: Fact
    body: frozenset
    rule_type: str

    def __post_init__(self):
        if not self.rule_type:
            raise ValueError("arc rule_type must be non-empty")
        if not isinstance(self.body, frozenset):
            object.__setattr__(self, "body", frozenset(self.body))

    def _key(self, fact_key=Fact._key):
        return (fact_key(self.head), tuple(sorted(map(fact_key, self.body))),
                self.rule_type)

    def __lt__(self, other: "Arc") -> bool:
        return self._key() < other._key()

    def __str__(self) -> str:
        parts = [str(self.head), "<-"]
        parts.extend(str(b) for b in sorted(self.body, key=Fact._key))
        parts.extend(["@", self.rule_type])
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

    def __len__(self) -> int:
        return len(self.arcs)

    def __iter__(self) -> Iterator[Arc]:
        return iter(self.sorted_arcs())

    def __eq__(self, other) -> bool:
        return isinstance(other, Hypergraph) and self.arcs == other.arcs

    def __hash__(self) -> int:
        return hash(self.arcs)

    def __le__(self, other: "Hypergraph") -> bool:
        return self.arcs <= other.arcs

    def sorted_arcs(self) -> list:
        return sorted(self.arcs, key=Arc._key)

    def rule_types(self) -> set:
        return {a.rule_type for a in self.arcs}

    def restrict(self, arcs: Iterable[Arc]) -> "Hypergraph":
        return Hypergraph(arcs)


# an arc over fact ids, read by `_index`
_IdArc = namedtuple("_IdArc", "head body")


def _index(arcs: Iterable) -> tuple:
    """The integer index that `_run` closes over.

    Numbers the arcs with a body in the order given, and keeps their heads
    and body sizes, the arcs each fact is a body fact of, and the heads of
    the empty-body arcs.  An arc is anything with a `head` and a `body`;
    facts may be any hashable labels.
    """
    heads, sizes, by_body, sources = [], [], {}, []
    for arc in arcs:
        body = arc.body
        if not body:
            sources.append(arc.head)
            continue
        for b in body:
            by_body.setdefault(b, []).append(len(heads))
        heads.append(arc.head)
        sizes.append(len(body))
    return heads, sizes, by_body, sources


def _run(index: tuple, t: Iterable) -> dict:
    """Map each fact reachable from t to its max-plus distance.

    Seeds are at 0 and heads of empty-body arcs at 1.  Facts settle layer
    by layer; an arc fires when its last body fact settles, and that fact
    is the farthest of its body, so the head's candidate is its layer + 1.
    The first candidate a head gets is its least, so no heap is needed.
    """
    heads, sizes, by_body, sources = index
    dist = dict.fromkeys(t, 0)
    layer, nxt = list(dist), []
    for h in sources:
        if h not in dist:
            dist[h] = 1
            nxt.append(h)
    pending = sizes.copy()
    d = 1  # the distance of the heads that fire from this layer
    while layer or nxt:
        for f in layer:
            for i in by_body.get(f, ()):
                pending[i] -= 1
                if not pending[i] and heads[i] not in dist:
                    dist[heads[i]] = d
                    nxt.append(heads[i])
        layer, nxt, d = nxt, [], d + 1
    return dist


def _closure(g: Hypergraph, t: Iterable[Fact]) -> dict:
    """`_run` from t over the index of g, built for this one call."""
    return _run(_index(g.arcs), t)


def reach(g: Hypergraph, t: Iterable[Fact]) -> frozenset:
    """Least set R with T subseteq R that is closed under the arcs of g."""
    return frozenset(_closure(g, t))


def induced(g: Hypergraph, t: Iterable[Fact]) -> Hypergraph:
    """Sub-hypergraph keeping arcs fully contained in the fact set t."""
    ts = frozenset(t)
    return Hypergraph(a for a in g.arcs if a.head in ts and a.body <= ts)


def distances(g: Hypergraph, t: Iterable[Fact]) -> dict:
    """Max-plus hyperpath distance from the seed set t to every vertex.

    d(h) = 0 for seeds, +inf for unreachable facts, and otherwise the
    minimum over arcs (h, B) of max_b d(b) + 1.
    """
    dist = dict.fromkeys(g.vertices, INFINITY)
    dist.update(_closure(g, t))
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


def dependency_graph(g: Hypergraph) -> dict:
    """Directed graph with an edge h -> b for every arc (h, B) and b in B."""
    edges = {v: set() for v in g.vertices}
    for a in g.arcs:
        edges[a.head].update(a.body)
    return edges


def _strongly_connected(vertices: frozenset, edges: dict) -> bool:
    """Is the subgraph induced by `vertices` strongly connected?"""
    if len(vertices) == 1:
        return True

    def explore(succ):
        start = next(iter(vertices))
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in succ.get(v, ()):
                if w in vertices and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen == vertices

    fwd = {v: edges.get(v, ()) for v in vertices}
    rev = {v: set() for v in vertices}
    for v in vertices:
        for w in edges.get(v, ()):
            if w in vertices:
                rev[w].add(v)
    return explore(fwd) and explore(rev)


def loops(g: Hypergraph, limit: int = 16) -> set:
    """All vertex subsets inducing a strongly connected dependency subgraph.

    Includes non-maximal loops and singleton ("trivial") loops.
    Exponential; guarded by `limit` on the vertex count.
    """
    verts = sorted(g.vertices, key=Fact._key)
    if len(verts) > limit:
        raise OracleLimitExceeded(
            f"loop enumeration over {len(verts)} vertices (limit {limit})")
    edges = dependency_graph(g)
    out = set()
    n = len(verts)
    for mask in range(1, 1 << n):
        subset = frozenset(verts[i] for i in range(n) if mask >> i & 1)
        if _strongly_connected(subset, edges):
            out.add(subset)
    return out


def justifications(g: Hypergraph, l: Iterable[Fact]) -> set:
    """Arcs that can support loop l from outside: head in l, body disjoint."""
    ls = frozenset(l)
    if not ls:
        raise EmptyLoop("justifications of an empty loop")
    return {a for a in g.arcs if a.head in ls and not (a.body & ls)}


# ---------------------------------------------------------------------------
# the one reader of atoms and fact lists, shared by every file format

_NAME = r"[A-Za-z_][A-Za-z0-9_']*"
_ATOM_RE = re.compile(rf"({_NAME})(?:\(([^()]*)\))?")
_TERM_RE = re.compile(rf"(-?[0-9]+)|{_NAME}")
_FACT_SEPS = "," + string.whitespace
# the deepest MaxSAT formula and the longest Datalog guard the readers
# accept: what reads, compiles and evaluates them recurses once per level
MAX_NESTING = 200


def parse_atom(text: str) -> tuple:
    """`rel(t1, ..., tn)` or `rel` -> (rel, (t1, ..., tn)).

    A term is an integer or a name; names are interned because they
    repeat across the facts of a graph.
    """
    m = _ATOM_RE.fullmatch(text.strip())
    if not m:
        raise ValueError(f"malformed atom {text.strip()!r}")
    rel, argtext = m.groups()
    if not argtext:
        return sys.intern(rel), ()
    args = []
    for tok in argtext.split(","):
        tok = tok.strip()
        t = _TERM_RE.fullmatch(tok)
        if not t:
            raise ValueError(f"malformed term {tok!r} in {text.strip()!r}")
        args.append(int(tok) if t.group(1) else sys.intern(tok))
    return sys.intern(rel), tuple(args)


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


def parse_fact(text: str) -> Fact:
    return Fact(*parse_atom(text))


def parse_facts(text: str) -> list:
    """A list of facts separated by commas and/or whitespace."""
    return [parse_fact(p) for p in split_top(text, _FACT_SEPS)]


# ---------------------------------------------------------------------------
# provenance text format:  head <- body1 body2 ... @ rule_type
# (the body is a fact list: commas, whitespace or both separate facts)


def parse_arc(text: str) -> Arc:
    if "@" not in text:
        raise ValueError(f"arc missing rule type: {text!r}")
    main, rule_type = text.rsplit("@", 1)
    if "<-" not in main:
        raise ValueError(f"arc missing '<-': {text!r}")
    head_text, body_text = main.split("<-", 1)
    return Arc(parse_fact(head_text), frozenset(parse_facts(body_text)),
               rule_type.strip())


def parse_provenance(text: str) -> Hypergraph:
    arcs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            arcs.append(parse_arc(line))
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from exc
    return Hypergraph(arcs)


def _sorted_sharing_keys(arcs) -> list:
    """`sorted(arcs, key=Arc._key)`, with one `Fact._key` per distinct fact
    shared by every arc naming it: a large graph names each fact in many
    arcs, and one key tuple per mention is most of the sort's memory.  On
    small graphs the lookups cost more than they save."""
    keys = {}

    def fact_key(f):
        k = keys.get(f)
        if k is None:
            k = keys[f] = f._key()
        return k

    return sorted(arcs, key=lambda a: a._key(fact_key))


def serialize_provenance(g: Hypergraph) -> str:
    """Canonical text form; parse(serialize(g)) == g, byte for byte stable."""
    return "".join(str(a) + "\n" for a in _sorted_sharing_keys(g.arcs))
