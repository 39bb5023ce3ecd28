"""Parametric analyses over provenance hypergraphs.

An analysis bundles a global provenance, a set of query facts, boolean
parameters with their fact encodings, and a partial projection that maps
precise-mode facts back to their cheap-mode counterparts.  This module
also houses the well-formedness checker used to validate fixtures.
"""

from __future__ import annotations

import contextlib
import functools
import os
import string
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from . import hypergraph as hg
from .errors import DomainOverflow, ParseError, UnknownParameter
from .hypergraph import Fact, Hypergraph


@dataclass(frozen=True)
class Abstraction:
    """A boolean parameter setting; ordered pointwise (0 = cheap)."""

    bits: tuple  # tuple of (param, 0|1), in parameter order

    @staticmethod
    def bottom(params: Iterable[str]) -> "Abstraction":
        return Abstraction(tuple((p, 0) for p in params))

    def flips(self) -> frozenset:
        """Parameters set to precise."""
        return frozenset(p for p, v in self.bits if v == 1)

    def with_flips(self, extra: Iterable[str]) -> "Abstraction":
        extra = set(extra)
        return Abstraction(tuple((p, 1 if p in extra else v) for p, v in self.bits))

    def __le__(self, other: "Abstraction") -> bool:
        return all(v <= w for (_, v), (_, w) in zip(self.bits, other.bits))

    def __lt__(self, other: "Abstraction") -> bool:
        return self <= other and self.bits != other.bits


class Projection:
    """Partial fact-to-fact map, configured per relation.

    Directives: 'identity', 'drop', or a positional rewrite (target
    relation plus the indices of the source arguments to keep).
    Unlisted relations follow the default directive.
    """

    def __init__(self, rules: dict = None, default: str = "identity"):
        self.rules = dict(rules or {})
        self.default = default

    def image(self, facts: Iterable[Fact]) -> set:
        """The images of facts; facts the map is undefined on are dropped."""
        rules, default = self.rules, self.default
        out = set()
        for f in facts:
            rule = rules.get(f[0], default)
            if rule == "identity":
                out.add(f)
            elif rule != "drop":
                target, indices = rule
                args = f[1]
                out.add(Fact(target, tuple([args[i] for i in indices])))
        return out

    def apply(self, f: Fact) -> Optional[Fact]:
        for g in self.image((f,)):
            return g
        return None


def parse_projection_directive(line: str):
    """Parse one projection line into (relation, rule).

    `rel identity`, `rel drop`, or a template `rel(A0,A1) -> target(A1)`
    whose right-hand variables pick source argument positions.
    """
    if "->" in line:
        lhs, rhs = line.split("->", 1)
        src_rel, src = hg.parse_atom(lhs)
        dst_rel, dst = hg.parse_atom(rhs)
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
        the local provenance at the all-cheap abstraction, cached."""
        return local_provenance(self, self.bottom())

    def bottom(self) -> Abstraction:
        return Abstraction.bottom(self.params)


def encode_params(an: Analysis, a: Abstraction, k: int) -> frozenset:
    """The facts encoding the parameters that a sets to k."""
    enc = an.encode0 if k == 0 else an.encode1
    out = set()
    for p, v in a.bits:
        if p not in enc:
            raise UnknownParameter(p)
        if v == k:
            out.add(enc[p])
    return frozenset(out)


def derive(an: Analysis, a: Abstraction) -> frozenset:
    """All facts the analysis derives under abstraction a."""
    seeds = encode_params(an, a, 0) | encode_params(an, a, 1)
    return frozenset(an.index.close(seeds))


def local_provenance(an: Analysis, a: Abstraction) -> hg.Index:
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


def project_set(an: Analysis, t: Iterable[Fact]) -> frozenset:
    """Lift the projection to a set; facts it is undefined on are dropped."""
    return frozenset(an.projection.image(t))


def check_well_formed(an: Analysis) -> list:
    """Return a list of violation descriptions (empty iff well formed)."""
    violations = []
    pi = an.projection.apply
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
        if pi(p1[p]) != p0[p]:
            violations.append(f"(v) projection of {p1[p]} is not {p0[p]}")

    derived_bot = derive(an, an.bottom())
    # (i) cheap-mode facts are fixed points of the projection
    for f in sorted(derived_bot, key=Fact._key):
        if pi(f) != f:
            violations.append(f"(i) {f} derived at bottom but not a fixed point")

    # (ii) image of the projection inside the bottom derivation
    domain = set(an.global_graph.vertices) | set(img0) | set(img1) | set(an.queries)
    domain = sorted(domain, key=Fact._key)
    for f in domain:
        g = pi(f)
        if g is not None and g not in derived_bot:
            violations.append(f"(ii) projection image {g} (of {f}) outside bottom facts")

    # (iii) only fixed points project onto queries
    for f in domain:
        g = pi(f)
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
        # the encoding facts are seeds, as the parameters supply them at run
        # time; as in `ground`, a base fact outside the domain is named first
        rules, base = graph
        with reported_at(lineno, path):
            datalog.check_domain(base)
        datalog.check_domain(seeds)
        with reported_at(lineno, path):
            graph = datalog.ground(rules, base, seeds=seeds)
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

