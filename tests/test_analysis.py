import dataclasses
import random

import pytest

import provrefine.hypergraph as hg
from provrefine import analysis as ana
from provrefine import datalog
from provrefine import likelihood as lk
from provrefine.analysis import Analysis, Projection
from provrefine.errors import ProvRefineError
from provrefine.hypergraph import Fact, Hypergraph

from analysis_reference import (all_abstractions, check_monotone,
                                check_predictable, directive_lines, save_manifest)
from conftest import assert_same_index, random_gadget, random_smudge_analysis


@pytest.fixture(scope="module")
def smudge():
    return datalog.smudge_fixture()


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(Analysis)])
def test_analysis_fields_cannot_be_reassigned(smudge, name):
    # the cached index numbers the global graph the analysis was built with
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(smudge, name, getattr(smudge, name))


def test_encode_params(smudge):
    """An abstraction is the frozenset of its precise parameters: k = 1
    encodes its members' precise facts, k = 0 the other parameters' cheap
    facts; a name the analysis lacks raises an error naming the
    least such name, from `derive` and from `likelihood.observe` too."""
    cheap, precise = smudge.encode0, smudge.encode1
    assert ana.encode_params(smudge, frozenset(), 0) == set(cheap.values())
    assert ana.encode_params(smudge, frozenset(), 1) == set()
    top = frozenset(smudge.params)
    assert ana.encode_params(smudge, top, 0) == set()
    assert ana.encode_params(smudge, top, 1) == set(precise.values())
    a = frozenset(["0", "4"])
    assert ana.encode_params(smudge, a, 1) == {precise["0"], precise["4"]}
    assert ana.encode_params(smudge, a, 0) == {
        cheap[p] for p in smudge.params if p not in ("0", "4")}
    bad = frozenset(["0", "zz", "x9", "y"])
    for run in (lambda: ana.encode_params(smudge, bad, 0),
                lambda: ana.derive(smudge, bad),
                lambda: lk.observe(smudge, [frozenset(["1"]), bad])):
        with pytest.raises(ProvRefineError) as exc:
            run()
        assert str(exc.value) == "unknown parameter 'x9'"


def test_projection_modes():
    pi = Projection({"precise": ("cheap", (0,)), "noise": "drop"})
    assert pi.image([hg.parse_fact("precise(3)")]) == {hg.parse_fact("cheap(3)")}
    assert pi.image([hg.parse_fact("noise(1)")]) == set()
    assert pi.image([hg.parse_fact("other(2)")]) == {hg.parse_fact("other(2)")}
    assert type(pi.image([])) is frozenset


def test_projection_directive_round_trip():
    pi = Projection({"precise": ("cheap", (0,)), "junk": "drop"},
                    default="identity")
    lines = directive_lines(pi)
    rebuilt = {}
    default = "identity"
    for line in lines:
        if line.startswith("default "):
            default = line.split()[1]
        else:
            rel, rule = ana.parse_projection_directive(line)
            rebuilt[rel] = rule
    assert rebuilt == pi.rules and default == pi.default


def test_projection_directive_rejects_unbound_variables():
    with pytest.raises(ValueError):
        ana.parse_projection_directive("a(X) -> b(Y)")


def test_smudge_is_well_formed(smudge):
    assert ana.check_well_formed(smudge) == []


_PRECISE = {"precise": ("cheap", (0,))}


@pytest.mark.parametrize("arcs, encode0, encode1, rules, violation", [
    ("q <- cheap(0) @ r\nnoise(0) <- cheap(0) @ r\n", ["cheap(0)"],
     ["precise(0)"], {**_PRECISE, "noise": "drop"},
     "(i) noise(0) derived at bottom but not a fixed point"),
    ("q <- cheap(0) @ r\nshadow <- precise(0) @ r\n", ["cheap(0)"],
     ["precise(0)"], {**_PRECISE, "shadow": ("q", ())},
     "(iii) non-query shadow projects onto query q"),
    # `parse_manifest` refuses both encoders of (iv) before they are built
    ("q <- cheap(0) @ r\n", ["cheap(0)", "cheap(0)"],
     ["precise(0)", "precise(0)"], _PRECISE, "(iv) encoder not injective"),
    ("q <- cheap(0) @ r\n", ["cheap(0)"], ["cheap(0)"], _PRECISE,
     "(iv) encoder images overlap"),
])
def test_each_violation_is_named(arcs, encode0, encode1, rules, violation):
    """One hand-built analysis per condition, each violating only it."""
    params = tuple(str(i) for i in range(len(encode0)))
    an = Analysis(global_graph=hg.parse_provenance(arcs),
                  queries=frozenset([Fact("q", ())]), params=params,
                  encode0=dict(zip(params, map(hg.parse_fact, encode0))),
                  encode1=dict(zip(params, map(hg.parse_fact, encode1))),
                  projection=Projection(rules))
    assert ana.check_well_formed(an) == [violation]


def test_smudge_is_monotone_on_covering_pairs(smudge):
    assert check_monotone(smudge)


def test_smudge_is_predictable(smudge):
    witness = check_predictable(smudge)
    assert witness is not None
    g_bot = Hypergraph(ana.local_provenance(smudge, frozenset()).arcs)
    assert witness.arcs <= g_bot.arcs
    # the witness reproduces every run's projected outcome from scratch
    for a in all_abstractions(smudge):
        t = smudge.projection.image(ana.encode_params(smudge, a, 1))
        r = smudge.projection.image(
            hg.reach(Hypergraph(ana.local_provenance(smudge, a).arcs),
                     ana.encode_params(smudge, a, 1)))
        assert hg.reach(witness, t) == r


def test_derive_monotone_queries(smudge):
    q = next(iter(smudge.queries))
    assert q in ana.derive(smudge, frozenset())
    assert q not in ana.derive(smudge, frozenset(smudge.params))


@pytest.mark.hashseed
def test_local_provenance_is_induced_restriction(smudge):
    """Over random analyses, cyclic ones among them, and random
    abstractions: the local provenance, restricted from the analysis's
    index, holds the arcs of the induced graph of the facts derived, and
    equals `Index` of them field by field."""
    rng = random.Random(41)
    cases = [(smudge, a) for a in all_abstractions(smudge)]
    for _ in range(40):
        cases.append(random_smudge_analysis(rng, max_sites=10))
        an = random_gadget(rng)[0]
        cases.append((an, frozenset(
            p for p in an.params if rng.random() < 0.5)))
    for an, a in cases:
        lp = ana.local_provenance(an, a)
        plain = hg.induced(an.global_graph, ana.derive(an, a))
        assert Hypergraph(lp.arcs) == plain
        seed_sets = [ana.encode_params(an, b, 1) for b in (a, frozenset())]
        assert_same_index(lp, hg.Index(plain.arcs), seed_sets)


def _load(path):
    """The manifest at path, parsed beside its directory; its errors keep
    their manifest lines, which `analysis.read` would fold into its message."""
    return ana.parse_manifest(path.read_text(), str(path.parent))


def test_manifest_round_trip(tmp_path, smudge):
    manifest = tmp_path / "an.manifest"
    prov = tmp_path / "an.prov"
    save_manifest(smudge, str(manifest), str(prov))
    loaded = _load(manifest)
    assert loaded.global_graph == smudge.global_graph
    assert loaded.queries == smudge.queries
    assert loaded.params == smudge.params
    assert loaded.encode0 == smudge.encode0
    assert loaded.encode1 == smudge.encode1
    for text in ["precise(3)", "cheap(3)", "dirty(end,v)"]:
        f = hg.parse_fact(text)
        assert loaded.projection.image([f]) == smudge.projection.image([f])


def test_manifest_parse_errors(tmp_path):
    from provrefine.errors import ParseError

    bad = tmp_path / "bad.manifest"
    bad.write_text("params:\nnot a param line\n")
    with pytest.raises(ParseError):
        _load(bad)


def test_manifest_source_failures_report_the_manifest_line(tmp_path):
    from provrefine.errors import ParseError

    m = tmp_path / "m.manifest"
    m.write_text("params:\n0 encode0=c(0, 1) encode1=p(0)\n"
                 "queries:\nq\nprovenance: missing.prov\n")
    with pytest.raises(ParseError) as exc:
        _load(m)
    assert exc.value.line == 5 and "missing.prov" in exc.value.message
    (tmp_path / "bad.prov").write_text("q <- c(0,1) @ r\nq <- @\n")
    m.write_text(m.read_text().replace("missing.prov", "bad.prov"))
    with pytest.raises(ParseError) as exc:
        _load(m)
    assert exc.value.line == 5 and "bad.prov line 2" in exc.value.message
    (tmp_path / "bad.prov").write_text("q <- c(0,1) @ r\n")
    an = _load(m)
    assert an.encode0["0"] == hg.parse_fact("c(0,1)")


def test_a_rules_file_is_grounded_with_the_encoding_facts_as_seeds(tmp_path):
    from provrefine.errors import DomainOverflow, ParseError

    m = tmp_path / "m.manifest"
    m.write_text("params:\n0 encode0=c(0) encode1=p(0)\nrules: r.dl\n"
                 "queries:\nq\n")
    rules = tmp_path / "r.dl"
    # a syntax error, and a guard error grounding finds after the last line
    for text in ("q :- c(0). @r\nq(X :- c(X). @s\n",
                 "n(a).\nq :- n(X), X > 1. @r\n"):
        rules.write_text(text)
        with pytest.raises(ParseError) as exc:
            _load(m)
        assert exc.value.line == 3 and "r.dl line 2" in exc.value.message
    # an overflow grounding finds, in a rule or in a base fact
    for text, where in (("n(250).\nq(Y) :- n(X), Y == X + 9. @r\n",
                         "r.dl line 2: rule r: q(259): integer 259"),
                        ("q :- c(0). @r\nn(256).\n",
                         "r.dl line 2: n(256): integer 256")):
        rules.write_text(text)
        with pytest.raises(DomainOverflow) as exc:
            _load(m)
        assert exc.value.line == 3 and where in exc.value.message
    rules.write_text("q :- c(0). @r\nq :- p(0). @s\n")
    an = _load(m)
    assert {str(arc) for arc in an.global_graph.arcs} == {
        "q <- c(0) @ r", "q <- p(0) @ s"}
    # an encoding fact outside the domain is the manifest's, named at the
    # line of its parameter once no base fact of the rules file is outside
    m.write_text(m.read_text().replace("encode0=c(0)", "encode0=c(300)"))
    with pytest.raises(DomainOverflow) as exc:
        _load(m)
    assert (exc.value.line, exc.value.message) == \
        (2, "c(300): integer 300 outside [0, 255]")
    rules.write_text("q :- c(0). @r\nn(256).\n")
    with pytest.raises(DomainOverflow) as exc:
        _load(m)
    assert exc.value.line == 3 and "r.dl line 2: n(256)" in exc.value.message


def test_read_names_the_file_it_cannot_read_or_parse(tmp_path):
    from provrefine.errors import ParseError

    missing, bad = tmp_path / "nope.prov", tmp_path / "bad.prov"
    for line in (0, 4):
        with pytest.raises(ParseError) as exc:
            ana.read(str(missing), hg.parse_provenance, line)
        assert (exc.value.line, exc.value.message) == \
            (line, f"cannot read {missing}: No such file or directory")
    bad.write_text("b <- a @ r\nc <- a\n")
    with pytest.raises(ParseError) as exc:
        ana.read(str(bad), hg.parse_provenance, 7)
    assert (exc.value.line, exc.value.message) == \
        (7, f"{bad} line 2: arc missing rule type: 'c <- a'")
    assert ana.read(str(bad), str) == bad.read_text()
