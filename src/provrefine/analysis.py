"""Parametric analyses over provenance hypergraphs.

An analysis bundles a global provenance, a set of query facts, boolean
parameters with their fact encodings, and a partial projection that maps
precise-mode facts back to their cheap-mode counterparts; its one map,
`Projection.image`, takes facts to the frozenset of their images.  An
abstraction is the frozenset of the parameters it makes precise, ordered
by inclusion.
This module also houses the well-formedness checker used to validate
fixtures.
"""

from __future__ import annotations

import contextlib
import functools
import os
import string
from dataclasses import dataclass, field
from typing import Callable, Iterable

from . import hypergraph as hg
from .errors import DomainOverflow, ParseError, ProvRefineError
from .hypergraph import Fact, Hypergraph


class Projection:
    """Partial fact-to-fact map, configured per relation.

    Directives: 'identity', 'drop', or a positional rewrite (target
    relation plus the indices of the source arguments to keep).
    Unlisted relations follow the default directive.
    """

    def __init__(self, rules: dict = None, default: str = "identity"):
        self.rules = dict(rules or {})
        self.default = default

    def image(self, facts: Iterable[Fact]) -> frozenset:
        """The images of facts; facts the map is undefined on are dropped.
        A fact f has at most one image, `image([f])`."""
        rules, default = self.rules, self.default
        out = []
        for f in facts:
            rule = rules.get(f[0], default)
            if rule == "identity":
                out.append(f)
            elif rule != "drop":
                target, indices = rule
                args = f[1]
                out.append(Fact(target, tuple([args[i] for i in indices])))
        return frozenset(out)


def parse_projection_directive(line: str):
    """Parse one projection line into (relation, rule).

    `rel identity`, `rel drop`, or a template `rel(A0,A1) -> target(A1)`
    whose right-hand variables pick source argument positions.
    """
    if "->" in line:
        lhs, rhs = line.split("->", 1)
        src_rel, src = hg.parse_fact(lhs)
        dst_rel, dst = hg.parse_fact(rhs)
        try:
            indices = tuple(src.index(a) for a in dst)
        except ValueError as exc:
            raise ValueError(f"unbound template variable in {line!r}") from exc
        return src_rel, (dst_rel, indices)
    parts = line.split()
    if len(parts) == 2 and parts[1] in ("identity", "drop"):
        return parts[0], parts[1]
    raise ValueError(f"malformed projection directive: {line!r}")


@dataclass(frozen=True)
class Analysis:
    """The (provenance, queries, parameters, encoders, projection) tuple."""

    global_graph: Hypergraph
    queries: frozenset
    params: tuple
    encode0: dict  # param -> Fact (cheap-mode encoding)
    encode1: dict  # param -> Fact (precise-mode encoding)
    projection: Projection = field(default_factory=Projection)

    @functools.cached_property
    def index(self) -> hg.Index:
        """The global graph's one `hg.Index`; the frozen fields keep it valid."""
        return hg.Index(self.global_graph.arcs)

    @functools.cached_property
    def blueprint(self) -> hg.Index:
        """The program's one blueprint, shared by every training sample:
        the local provenance at the all-cheap abstraction, `frozenset()`,
        cached."""
        return local_provenance(self, frozenset())


def encode_params(an: Analysis, a: frozenset, k: int) -> frozenset:
    """The facts encoding abstraction a, the frozenset of the parameters it
    makes precise (so the all-cheap one is `frozenset()`): their precise
    facts for k = 1, and for k = 0 the cheap facts of the rest of
    `an.params`.  Raises ProvRefineError naming the least name in a that
    the analysis lacks."""
    unknown = a.difference(an.encode1)
    if unknown:
        raise ProvRefineError(f"unknown parameter {min(unknown)!r}")
    if k == 1:
        return frozenset([an.encode1[p] for p in a])
    return frozenset([an.encode0[p] for p in an.params if p not in a])


def derive(an: Analysis, a: frozenset) -> frozenset:
    """All facts the analysis derives under abstraction a."""
    seeds = encode_params(an, a, 0) | encode_params(an, a, 1)
    return frozenset(an.index.close(seeds))


def local_provenance(an: Analysis, a: frozenset) -> hg.Index:
    """The index of the global provenance restricted to the facts derived
    under a, the arcs of `hg.induced(an.global_graph, derive(an, a))`:
    those whose body the closure reaches, whose heads it then reaches too.
    It closes the analysis's index over fact ids and restricts that index
    to those arcs (`Index.restrict`), so nothing is ranked again."""
    seeds = encode_params(an, a, 0) | encode_params(an, a, 1)
    index = an.index
    reached = set(index.run(seeds))
    return index.restrict(j for j, body in enumerate(index.bodies)
                          if reached.issuperset(body))


def check_well_formed(an: Analysis) -> list:
    """Return a list of violation descriptions (empty iff well formed)."""
    violations = []
    image = an.projection.image
    p0 = an.encode0
    p1 = an.encode1

    # (iv) encoders injective with disjoint images
    img0 = list(p0.values())
    img1 = list(p1.values())
    if len(set(img0)) != len(img0) or len(set(img1)) != len(img1):
        violations.append("(iv) encoder not injective")
    if set(img0) & set(img1):
        violations.append("(iv) encoder images overlap")

    # (v) projection compatible with parameter encoding
    for p in an.params:
        if image([p1[p]]) != {p0[p]}:
            violations.append(f"(v) projection of {p1[p]} is not {p0[p]}")

    derived_bot = derive(an, frozenset())
    # (i) cheap-mode facts are fixed points of the projection
    for f in sorted(derived_bot, key=Fact._key):
        if image([f]) != {f}:
            violations.append(f"(i) {f} derived at bottom but not a fixed point")

    # (ii) image of the projection inside the bottom derivation
    domain = set(an.global_graph.vertices) | set(img0) | set(img1) | set(an.queries)
    domain = sorted(domain, key=Fact._key)
    for f in domain:
        for g in image([f]):
            if g not in derived_bot:
                violations.append(f"(ii) projection image {g} (of {f}) outside bottom facts")

    # (iii) only fixed points project onto queries
    for f in domain:
        for g in image([f]):
            if g in an.queries and f != g:
                violations.append(f"(iii) non-query {f} projects onto query {g}")

    return violations


# ---------------------------------------------------------------------------
# manifest format


@contextlib.contextmanager
def reported_at(lineno: int, path: str):
    """Failures to read, parse or ground path are reported at line lineno of
    the file naming it (at no line if 0), as errors naming path and its line."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:  # no file, or no text
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise ParseError(lineno, f"cannot read {path}: {reason}") from exc
    except (ParseError, DomainOverflow) as exc:
        where = f"{path} line {exc.line}" if exc.line else path
        raise type(exc)(lineno, f"{where}: {exc.message}") from exc


def read(path: str, parse: Callable[[str], object], line: int = 0):
    """parse(the text of path), the one reader of every input file; its
    failures are reported as `reported_at(line, path)` reports them."""
    with reported_at(line, path), open(path) as fh:
        return parse(fh.read())


def ground_program(path: str, rules, base, seeds, line: int = 0) -> Hypergraph:
    """`datalog.ground` of a program read from path, its base facts checked
    before the caller's seeds, and its own failures reported at path as
    `reported_at(line, path)` reports them."""
    from . import datalog  # here, not at the top: datalog imports this module

    with reported_at(line, path):
        datalog.check_domain(base)
    datalog.check_domain(seeds)
    with reported_at(line, path):
        return datalog.ground(rules, base, seeds=seeds)


def parse_manifest(text: str, base_dir: str = ".") -> Analysis:
    """Parse an analysis manifest (see README for the section layout)."""
    from . import datalog  # here, not at the top: datalog imports this module

    section = None
    encode0 = {}
    encode1 = {}
    queries = set()
    proj_rules = {}
    proj_lines = {}  # relation -> the line of its projection directive
    proj_default = None
    seeds = datalog.BaseFacts()  # the encoding facts, at their parameters' lines
    source = None  # (line, path, key, parsed file) of the provenance or rules

    def entry(lineno, line):
        nonlocal section, proj_default, source
        key, _, value = line.partition(":")
        if line in ("params:", "queries:", "projection:"):
            section = key
        elif key in ("provenance", "rules"):
            if source is not None:
                raise ValueError("a second provenance: or rules: entry")
            path = os.path.join(base_dir, value.strip())
            parse = (hg.parse_provenance if key == "provenance"
                     else datalog.parse_program)
            source = lineno, path, key, read(path, parse, lineno)
            section = None
        elif section == "params":
            name, *tokens = hg.split_top(line, string.whitespace)
            kv = dict(tok.partition("=")[::2] for tok in tokens)
            if sorted(kv) != ["encode0", "encode1"]:
                raise ValueError(f"expected '{name} encode0=FACT encode1=FACT'")
            if name in encode0:
                raise ValueError(f"a second parameter {name!r}")
            f0, f1 = hg.parse_fact(kv["encode0"]), hg.parse_fact(kv["encode1"])
            # (iv): the encoders are injective with disjoint images
            if f0 == f1 or {f0, f1} & seeds:
                raise ValueError(f"parameter {name!r} reuses an encoding fact")
            encode0[name], encode1[name] = f0, f1
            seeds.update((f0, f1))
            seeds.lines[f0] = seeds.lines[f1] = lineno
        elif section == "queries":
            queries.add(hg.parse_fact(line))
        elif section == "projection":
            rel, rule = parse_projection_directive(line)
            if rel == "default" and isinstance(rule, str):
                if proj_default is not None:
                    raise ValueError("a second default directive")
                proj_default = rule
            else:
                if rel in proj_rules:
                    raise ValueError(f"a second projection directive for {rel!r}")
                proj_rules[rel], proj_lines[rel] = rule, lineno
        else:
            raise ValueError(f"line outside any section: {line!r}")

    hg.read_lines(text, entry)
    if source is None:
        raise ParseError(0, "manifest missing provenance: or rules: entry")
    lineno, path, key, graph = source
    if key == "rules":
        # the encoding facts are seeds: the parameters supply them at run time
        graph = ground_program(path, *graph, seeds, lineno)
    # a template reads its facts' arguments by position: each fact of its
    # relation that the analysis names must have the arguments it reads
    reads = {rel: max(rule[1], default=-1) for rel, rule in proj_rules.items()
             if isinstance(rule, tuple)}
    if reads:
        named = graph.vertices | queries | seeds
        short = [f for f in named if reads.get(f.relation, -1) >= len(f.args)]
        if short:
            f = min(short, key=lambda f: (proj_lines[f.relation], f._key()))
            raise ParseError(proj_lines[f.relation], f"projection template for "
                             f"{f.relation!r} reads more arguments than {f} has")
    return Analysis(
        global_graph=graph,
        queries=frozenset(queries),
        params=tuple(encode0),
        encode0=encode0,
        encode1=encode1,
        projection=Projection(proj_rules, proj_default or "identity"),
    )

