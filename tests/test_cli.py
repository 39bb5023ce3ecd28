import contextlib
import dataclasses
import io
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import provrefine.hypergraph as hg
from provrefine import analysis as ana
from provrefine import cli
from provrefine import datalog
from provrefine import likelihood as lk
from provrefine import probmodel as pm
from provrefine.errors import ParseError

import likelihood_reference
from likelihood_reference import Observation
from datalog_reference import smudge_analysis
from analysis_reference import save_manifest, serialize_manifest
from conftest import all_subgraph_probability, save_hyperparams


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "provrefine" in capsys.readouterr().out


class TestGround:
    def test_fixture_is_idempotent(self, capsys, tmp_path):
        a, b = tmp_path / "a.prov", tmp_path / "b.prov"
        assert run(capsys, "ground", "--fixture", "smudge", "--out", str(a))[0] == 0
        assert run(capsys, "ground", "--fixture", "smudge", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()
        assert hg.parse_provenance(a.read_text()) == \
            datalog.smudge_fixture().global_graph

    def test_the_fixture_takes_no_rules_facts_or_seeds(self, capsys):
        for option in ("--rules", "--facts", "--seeds"):
            assert run(capsys, "ground", "--fixture", "smudge", option, "bad(") == \
                (2, "", "error: with --fixture, give no --rules, --facts or --seeds\n")

    def test_rules_file(self, capsys, tmp_path):
        rules = tmp_path / "p.dl"
        rules.write_text("edge(1,2).\npath(X,Y) :- edge(X,Y). @step\n")
        code, out, _ = run(capsys, "ground", "--rules", str(rules))
        assert code == 0
        assert "path(1,2) <- edge(1,2) @ step" in out

    def test_missing_file_exits_2(self, capsys, tmp_path):
        rules = tmp_path / "nope.dl"
        assert run(capsys, "ground", "--rules", str(rules)) == \
            (2, "", f"error: cannot read {rules}: No such file or directory\n")

    def test_an_unwritable_out_file_exits_2(self, capsys, tmp_path):
        out = tmp_path / "nope" / "g.prov"
        assert run(capsys, "ground", "--fixture", "smudge", "--out", str(out)) == \
            (2, "", f"error: cannot write {out}: No such file or directory\n")
        assert run(capsys, "ground", "--fixture", "smudge", "--out",
                   str(tmp_path)) == \
            (2, "", f"error: cannot write {tmp_path}: Is a directory\n")

    def test_parse_error_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.dl"
        bad.write_text("this is not a rule\n")
        assert run(capsys, "ground", "--rules", str(bad))[0] == 2

    def test_a_fact_with_variables_names_the_file_and_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.dl"
        bad.write_text("q(1).\np(X).\n")
        assert run(capsys, "ground", "--rules", str(bad)) == \
            (2, "", f"error: {bad} line 2: fact p(X) contains variables\n")

    def test_a_file_that_is_not_text_is_named(self, capsys, tmp_path):
        bad = tmp_path / "bad.dl"
        bad.write_bytes(b"p(1).\n\xff\n")
        code, out, err = run(capsys, "ground", "--rules", str(bad))
        assert (code, out) == (2, "") and err.startswith(f"error: cannot read {bad}: ")

    def test_only_a_newline_ends_a_line(self, capsys, tmp_path):
        # a form feed is no line break, as `wc -l` counts lines
        bad = tmp_path / "bad.dl"
        bad.write_text("p(1).\f\nbad\n")
        code, _, err = run(capsys, "ground", "--rules", str(bad))
        assert code == 2 and "line 2:" in err

    def test_overflow_exits_3(self, capsys, tmp_path):
        src = tmp_path / "over.dl"
        src.write_text("n(250).\nout(Y) :- n(X), Y == X + 10. @bump\n")
        assert run(capsys, "ground", "--rules", str(src))[0] == 3

    # a base fact outside the domain names the rules file and the line that
    # states it, given to `ground` and as a manifest's rules: file, which the
    # manifest's line names in turn
    def test_overflow_in_a_base_fact_names_its_line(self, capsys, tmp_path):
        src = tmp_path / "over.dl"
        src.write_text("p(1).\nn(256).\nq(X) :- n(X). @r\n")
        message = "n(256): integer 256 outside [0, 255]"
        assert run(capsys, "ground", "--rules", str(src)) == \
            (3, "", f"error: {src} line 2: {message}\n")
        m = tmp_path / "s.manifest"
        m.write_text("params:\n0 encode0=c(0) encode1=p(0)\nrules: over.dl\n"
                     "queries:\nq(1)\n")
        assert run(capsys, "solve", str(m)) == \
            (3, "", f"error: {m} line 3: {src} line 2: {message}\n")
        # an encoding fact outside the domain is the manifest's, named at its
        # parameter's line, once no base fact of the rules file is outside
        m.write_text(m.read_text().replace("c(0)", "c(300)"))
        assert run(capsys, "solve", str(m)) == \
            (3, "", f"error: {m} line 3: {src} line 2: {message}\n")
        src.write_text("p(1).\nn(255).\nq(X) :- n(X). @r\n")
        assert run(capsys, "solve", str(m)) == \
            (3, "", f"error: {m} line 2: c(300): integer 300 outside [0, 255]\n")

    # the domain is Datalog's alone: a provenance: manifest's encoding facts,
    # its provenance file and a likelihood blueprint are not checked against it
    def test_facts_outside_the_domain_read_where_no_datalog_is(self, capsys,
                                                              tmp_path):
        (tmp_path / "p.prov").write_text("q <- c(300) @ r\n")
        m = tmp_path / "s.manifest"
        m.write_text("params:\n0 encode0=c(300) encode1=p(300)\nqueries:\nq\n"
                     "projection:\np(A0) -> c(A0)\nprovenance: p.prov\n")
        code, out, err = run(capsys, "solve", str(m))
        assert (code, err) == (0, "") and out.endswith("answer: yes\n")
        blueprint, obs, theta = (tmp_path / n for n in ("b.prov", "o.txt", "t.txt"))
        blueprint.write_text("q(300) <- @ r\n")
        obs.write_text("obs\nT:\nR: q(300)\n")
        theta.write_text("r 0.5\n")
        assert run(capsys, "likelihood", str(blueprint), str(obs), str(theta),
                   "--mode", "exact") == (0, "-0.693147181\n", "")

    # of several base facts outside the domain the one on the least line is
    # named, whatever the hash seed; a seed only when no base fact is, the
    # least in key order
    @pytest.mark.parametrize("text, stated", [
        ("a(300).\nb(400).\nc(500).\nd(600).\n", "a(300): integer 300"),
        ("d(600).\nc(500).\nb(400).\na(300).\n", "d(600): integer 600")])
    @pytest.mark.hashseed
    def test_overflow_in_base_facts_names_the_least_line(self, capsys, tmp_path,
                                                         text, stated):
        src = tmp_path / "over.dl"
        src.write_text(text)
        assert run(capsys, "ground", "--rules", str(src)) == \
            (3, "", f"error: {src} line 1: {stated} outside [0, 255]\n")
        assert run(capsys, "ground", "--rules", str(src), "--seeds", "e(0) a(999)") == \
            (3, "", f"error: {src} line 1: {stated} outside [0, 255]\n")

    @pytest.mark.hashseed
    def test_overflow_in_seeds_names_the_least_seed(self, capsys, tmp_path):
        src = tmp_path / "p.dl"
        src.write_text("p(1).\nq(X) :- n(X). @r\n")
        assert run(capsys, "ground", "--rules", str(src),
                   "--seeds", "z(999) n(300) y(700) n(2)") == \
            (3, "", "error: n(300): integer 300 outside [0, 255]\n")

    # of several rule instances that fail, the one named is the same in
    # every process: the first a run with the facts in key order meets.
    # In a set's order either overflowing instance, and any of the three
    # names, can come first
    @pytest.mark.parametrize("text, code, message", [
        ("p(a,1).\np(b,2).\np(c,3).\nq(X,Y) :- p(X,N), Y == N * 200. @r\n",
         3, "rule r: q(b,400): integer 400 outside [0, 255]"),
        ("p(a).\np(b).\np(c).\nq(Y) :- p(X), Y == X + 1. @r\n",
         2, "rule r: guard 'Y == X + 1': 'a' is not an integer")],
        ids=["domain", "guard"])
    @pytest.mark.hashseed
    def test_a_failing_rule_instance_is_named_whatever_the_hash_seed(
            self, tmp_path, text, code, message):
        src = tmp_path / "p.dl"
        src.write_text(text)
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        for seed in ("0", "1", "2", "3", "5", "12345"):
            env["PYTHONHASHSEED"] = seed
            done = subprocess.run(
                [sys.executable, "-m", "provrefine.cli", "ground", "--rules",
                 str(src)], env=env, capture_output=True, text=True)
            assert (done.returncode, done.stdout, done.stderr) == \
                (code, "", f"error: {src} line 4: {message}\n"), seed

    def test_facts_file_is_merged_into_the_grounding(self, capsys, tmp_path):
        rules, facts = tmp_path / "r.dl", tmp_path / "f.dl"
        rules.write_text("p(1).\nq(X) :- n(X). @r\n")
        facts.write_text("n(2).\np(1).\n")
        assert run(capsys, "ground", "--rules", str(rules), "--facts", str(facts)) == \
            (0, "n(2) <- @ base\np(1) <- @ base\nq(2) <- n(2) @ r\n", "")

    # an error in the facts file names that file and its line, not a line
    # that reads as the rules file's
    @pytest.mark.parametrize("text, code, message", [
        ("q(2).\nn(256).\n", 3, "line 2: n(256): integer 256 outside [0, 255]"),
        ("q(2).\nn(2\n", 2, "line 2: statement must end with '.'"),
        ("q(2).\nn(X) :- q(X). @s\n", 2, "contains rules, not just facts")])
    def test_an_error_in_the_facts_file_names_it(self, capsys, tmp_path,
                                                  text, code, message):
        rules, facts = tmp_path / "r.dl", tmp_path / "f.dl"
        rules.write_text("p(1).\nq(X) :- n(X). @r\n")
        facts.write_text(text)
        assert run(capsys, "ground", "--rules", str(rules), "--facts", str(facts)) == \
            (code, "", f"error: {facts} {message}\n")

    def test_a_missing_facts_file_exits_2(self, capsys, tmp_path):
        rules, facts = tmp_path / "r.dl", tmp_path / "nope.dl"
        rules.write_text("p(1).\n")
        assert run(capsys, "ground", "--rules", str(rules), "--facts", str(facts)) == \
            (2, "", f"error: cannot read {facts}: No such file or directory\n")

    # an overflow while grounding a rule, from its head or from a guard's
    # modulus, names the rules file, the rule and its line, as a guard's
    # type error does
    @pytest.mark.parametrize("rule, message", [
        ("q(Y) :- p(X), Y == X * 100000000000. @r",
         "rule r: q(100000000000): integer 100000000000 outside [0, 255]"),
        ("z(X) :- p(X), X mod 0 == 0. @zero",
         "rule zero: guard 'X mod 0 == 0': modulus is 0")])
    def test_overflow_in_a_rule_names_its_line(self, capsys, tmp_path, rule, message):
        src = tmp_path / "over.dl"
        src.write_text(f"p(1).\n\n{rule}\n")
        assert run(capsys, "ground", "--rules", str(src)) == \
            (3, "", f"error: {src} line 3: {message}\n")

    def test_guard_longer_than_the_nesting_limit_exits_2(self, capsys, tmp_path):
        src = tmp_path / "deep.dl"
        for ones in (3000, (hg.MAX_NESTING - 2) // 2):  # the second: 201 tokens
            src.write_text("n(1).\nout(Y) :- n(X), Y == X" + "+1" * ones + ". @deep\n")
            code, _, err = run(capsys, "ground", "--rules", str(src))
            assert code == 2 and "line 2: guard 'Y == X+1+1" in err
            assert f"has more than {hg.MAX_NESTING} tokens" in err

    # "Y == X" is three tokens and "+1" two, so a well-formed guard has an
    # odd token count: 199 is the most that grounds
    def test_guard_at_the_nesting_limit_grounds(self, capsys, tmp_path):
        ones = (hg.MAX_NESTING - 4) // 2
        src = tmp_path / "deep.dl"
        src.write_text("n(1).\nout(Y) :- n(X), Y == X" + "+1" * ones + ". @deep\n")
        code, out, _ = run(capsys, "ground", "--rules", str(src))
        assert code == 0 and f"out({1 + ones}) <- n(1) @ deep" in out

    @pytest.mark.parametrize("rule", ["p(Y) :- q(X), Y == X * 2. @double",
                                      "p(X) :- q(X), X < 5. @small",
                                      "p(X) :- q(X), X mod 2 == 0. @even"])
    def test_guard_arithmetic_on_a_name_exits_2(self, capsys, tmp_path, rule):
        src = tmp_path / "names.dl"
        src.write_text(f"q(ab).\n{rule}\n")
        code, out, err = run(capsys, "ground", "--rules", str(src))
        assert (code, out) == (2, "")
        assert "line 2: rule " in err and "'ab' is not an integer" in err

    @pytest.mark.parametrize("guard, derived", [("X == 3", ""), ("X != 3", "h(ab)"),
                                                ("3 == X", ""), ("X != 3 * 2", "h(ab)")])
    def test_guard_equality_of_a_name_and_an_integer(self, capsys, tmp_path,
                                                    guard, derived):
        src = tmp_path / "mixed.dl"
        src.write_text(f"q(ab).\nh(X) :- q(X), {guard}. @r1\n")
        code, out, err = run(capsys, "ground", "--rules", str(src))
        assert (code, err) == (0, "")
        assert out == (f"{derived} <- q(ab) @ r1\n" if derived else "") \
            + "q(ab) <- @ base\n"

    def test_guard_names_a_constant(self, capsys, tmp_path):
        src = tmp_path / "const.dl"
        src.write_text("q(ab).\nq(cd).\nh(X) :- q(X), X == cd. @r1\n"
                       "g(Y) :- q(X), X != cd, Y == cd. @r2\n")
        code, out, err = run(capsys, "ground", "--rules", str(src))
        assert (code, err) == (0, "")
        assert out == ("g(cd) <- q(ab) @ r2\nh(cd) <- q(cd) @ r1\n"
                       "q(ab) <- @ base\nq(cd) <- @ base\n")

    @pytest.mark.parametrize("name", ["in", "if", "or", "is", "not", "lambda", "x'"])
    def test_guard_names_a_constant_python_reserves_or_primes(self, capsys, tmp_path,
                                                              name):
        src = tmp_path / "const.dl"
        src.write_text(f"q({name}).\nq(ab).\nh(X) :- q(X), X == {name}. @r1\n"
                       f"g(Y) :- q(ab), Y == {name}. @r2\n")
        code, out, err = run(capsys, "ground", "--rules", str(src))
        assert (code, err) == (0, "")
        assert out == (f"g({name}) <- q(ab) @ r2\nh({name}) <- q({name}) @ r1\n"
                       f"q(ab) <- @ base\nq({name}) <- @ base\n")

    def test_guard_variables_named_like_python_constants(self, capsys, tmp_path):
        src = tmp_path / "vars.dl"
        src.write_text("v(3).\nv(4).\nh(True) :- v(True), True == 3. @r1\n"
                       "g(None) :- v(X), None == X + 1. @r2\n")
        code, out, err = run(capsys, "ground", "--rules", str(src))
        assert (code, err) == (0, "")
        assert out == ("g(4) <- v(3) @ r2\ng(5) <- v(4) @ r2\nh(3) <- v(3) @ r1\n"
                       "v(3) <- @ base\nv(4) <- @ base\n")

    @pytest.mark.parametrize("guard", ["X < cd", "X == cd + 1", "Y == cd mod 2"])
    def test_guard_arithmetic_on_a_name_constant_exits_2(self, capsys, tmp_path,
                                                         guard):
        src = tmp_path / "const.dl"
        src.write_text(f"n(1).\nh(X) :- n(X), {guard}. @r1\n")
        code, out, err = run(capsys, "ground", "--rules", str(src))
        assert (code, out) == (2, "")
        assert "line 2: " in err and "'cd' is not an integer" in err

    def test_guard_reads_a_negative_integer_as_atoms_do(self, capsys, tmp_path):
        src = tmp_path / "neg.dl"
        src.write_text("v(4).\nh(Y) :- v(X), Y == X + -1. @r1\n"
                       "g(X) :- v(X), X > -3, X != -4. @r2\n")
        code, out, err = run(capsys, "ground", "--rules", str(src))
        assert (code, err) == (0, "")
        assert out == "g(4) <- v(4) @ r2\nh(3) <- v(4) @ r1\nv(4) <- @ base\n"

    def test_guard_reads_a_leading_zero_as_atoms_do(self, capsys, tmp_path):
        src = tmp_path / "zero.dl"
        src.write_text("v(03).\nh(X) :- v(X), X == 03. @r1\n"
                       "g(Y) :- v(X), Y == X + 03. @r2\nf(Y) :- v(X), Y == X + 3. @r3\n")
        code, out, err = run(capsys, "ground", "--rules", str(src))
        assert (code, err) == (0, "")
        assert out == ("f(6) <- v(3) @ r3\ng(6) <- v(3) @ r2\nh(3) <- v(3) @ r1\n"
                       "v(3) <- @ base\n")

    @pytest.mark.parametrize("guard", ["X == 0x3", "X == 1_00", "X == 0b11",
                                       "X == - 3", "X == --3", "X == +3",
                                       "X == ~3", "X == -X"])
    def test_guard_integer_atoms_would_reject_exits_2(self, capsys, tmp_path, guard):
        src = tmp_path / "int.dl"
        src.write_text(f"v(3).\nv(100).\nh(X) :- v(X), {guard}. @r1\n")
        code, out, err = run(capsys, "ground", "--rules", str(src))
        assert (code, out) == (2, "")
        assert "line 3: " in err and "guard" in err

    def test_rule_without_body_atoms_exits_2(self, capsys, tmp_path):
        src = tmp_path / "empty.dl"
        src.write_text("n(1).\nq(X) :- X == 3. @r\n")
        code, _, err = run(capsys, "ground", "--rules", str(src))
        assert code == 2 and "line 2" in err

    def test_seeds_are_a_fact_list(self, capsys, tmp_path):
        rules = tmp_path / "p.dl"
        rules.write_text("out(Y,X) :- c(X,Y). @swap\n")
        code, out, _ = run(capsys, "ground", "--rules", str(rules),
                           "--seeds", "c(1,2), c(3, 4) c(5,6)")
        assert code == 0
        assert out.splitlines() == ["out(2,1) <- c(1,2) @ swap",
                                    "out(4,3) <- c(3,4) @ swap",
                                    "out(6,5) <- c(5,6) @ swap"]


@pytest.fixture
def ill_formed_manifest(tmp_path) -> str:
    """The demo manifest without its projection of precise onto cheap
    facts, which breaks condition (v)."""
    m = tmp_path / "ill.manifest"
    save_manifest(datalog.smudge_fixture(), str(m), str(tmp_path / "ill.prov"))
    m.write_text(m.read_text().replace("precise(A0) -> cheap(A0)\n", ""))
    return str(m)


class TestSolve:
    def test_smudge_yes_with_trace(self, capsys):
        code, out, _ = run(capsys, "solve", "--fixture", "smudge")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("iter 1:")
        assert "flips={}" in lines[0]
        assert "chosen={0,4}" in lines[0]
        assert "strategy=pessimistic" in lines[0]
        assert "solver_objective=" in lines[0]
        assert lines[-1] == "answer: yes"

    def test_limit_is_reported_on_the_last_iteration_run(self, capsys):
        code, out, _ = run(capsys, "solve", "--fixture", "smudge",
                           "--max-iters", "1")
        assert code == 4
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("iter 1: flips={} ")
        assert "chosen={0,4}" in lines[0]
        assert lines[0].endswith("answer=limit")
        assert lines[1] == "answer: limit"

    def test_max_iters_zero_is_limit(self, capsys):
        code, out, _ = run(capsys, "solve", "--fixture", "smudge",
                           "--max-iters", "0")
        assert code == 4
        assert out.strip().splitlines()[-1] == "answer: limit"

    @pytest.mark.parametrize("flag, value, field", [
        ("--alpha", "nan", "alpha"), ("--alpha", "inf", "alpha"),
        ("--alpha", "-inf", "alpha"), ("--budget", "nan", "budget"),
        ("--budget", "-1", "budget"), ("--max-iters", "-3", "max_iterations")])
    def test_unusable_parameters_exit_2(self, capsys, flag, value, field):
        code, out, err = run(capsys, "solve", "--fixture", "smudge",
                             "dirty(end,v)", f"{flag}={value}")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and field in err

    def test_zero_and_negative_alpha_still_solve(self, capsys):
        code, out, _ = run(capsys, "solve", "--fixture", "smudge", "--alpha", "0")
        assert code == 0 and "chosen={0,1,2}" in out.splitlines()[0]
        code, out, _ = run(capsys, "solve", "--fixture", "smudge", "--alpha", "-1")
        assert code == 0 and "solver_objective=5.000000" in out.splitlines()[0]

    @pytest.mark.parametrize("command", ["solve", "learn"])
    def test_an_unreadable_manifest_is_named(self, capsys, tmp_path, command):
        missing = tmp_path / "nope.manifest"
        assert run(capsys, command, str(missing)) == \
            (2, "", f"error: cannot read {missing}: No such file or directory\n")
        assert run(capsys, command, str(tmp_path)) == \
            (2, "", f"error: cannot read {tmp_path}: Is a directory\n")

    # an error in a manifest's rules: file names the manifest, its line, the
    # rules file and the line there
    def test_an_error_in_a_rules_file_names_both_files(self, capsys, tmp_path):
        rules, m = tmp_path / "r.dl", tmp_path / "m.manifest"
        m.write_text("params:\n0 encode0=c(0) encode1=p(0)\nrules: r.dl\n"
                     "queries:\nq\n")
        assert run(capsys, "solve", str(m)) == \
            (2, "", f"error: {m} line 3: cannot read {rules}: "
                    "No such file or directory\n")
        rules.write_text("q :- c(0). @r\nq(X :- c(X). @s\n")
        assert run(capsys, "solve", str(m)) == \
            (2, "", f"error: {m} line 3: {rules} line 2: malformed atom 'q(X'\n")

    def test_manifest_solve(self, capsys, tmp_path):
        an = datalog.smudge_fixture()
        m = tmp_path / "s.manifest"
        save_manifest(an, str(m), str(tmp_path / "s.prov"))
        code, out, _ = run(capsys, "solve", str(m), "dirty(end,v)")
        assert code == 0 and out.strip().endswith("answer: yes")

    def test_a_rules_manifest_solves_as_the_fixture_does(self, capsys, tmp_path):
        (tmp_path / "smudge.dl").write_text(datalog.smudge_program_text())
        m = tmp_path / "s.manifest"
        m.write_text(serialize_manifest(datalog.smudge_fixture(), "-").replace(
            "provenance: -", "rules: smudge.dl"))
        fixture = run(capsys, "solve", "--fixture", "smudge")
        assert run(capsys, "solve", str(m)) == fixture
        assert fixture[0] == 0 and "chosen={0,4}" in fixture[1]

    def test_an_alpha_whose_weights_sum_past_the_float_range_exits_2(self, capsys):
        code, out, err = run(capsys, "solve", "--fixture", "smudge",
                             "--alpha", "1e308")
        assert code == 2 and out == "" and err.startswith("error: ")

    def test_fixture_takes_the_query_as_its_positional(self, capsys):
        code, out, _ = run(capsys, "solve", "--fixture", "smudge", "dirty(end,v)")
        assert code == 0 and out.strip().endswith("answer: yes")
        code, _, err = run(capsys, "solve", "--fixture", "smudge", "dirty(end,x)")
        assert code == 2 and "not a declared query" in err
        code, _, err = run(capsys, "solve", "--fixture", "smudge", "a", "b")
        assert code == 2 and "error" in err

    def test_a_manifest_without_a_query_is_named(self, capsys, tmp_path):
        m = tmp_path / "s.manifest"
        an = dataclasses.replace(datalog.smudge_fixture(), queries=frozenset())
        save_manifest(an, str(m), str(tmp_path / "s.prov"))
        assert run(capsys, "solve", str(m)) == \
            (2, "", f"error: {m}: the analysis declares no query\n")

    def test_undeclared_query_exits_2(self, capsys, tmp_path):
        m = tmp_path / "s.manifest"
        save_manifest(datalog.smudge_fixture(), str(m), str(tmp_path / "s.prov"))
        code, _, err = run(capsys, "solve", str(m), "dirty(end,y)")
        assert code == 2 and "not a declared query" in err

    def test_missing_provenance_file_exits_2(self, capsys, tmp_path):
        m = tmp_path / "s.manifest"
        m.write_text("queries:\nq\nprovenance: gone.prov\n")
        code, _, err = run(capsys, "solve", str(m))
        assert code == 2 and "line 3" in err and "gone.prov" in err

    @pytest.mark.parametrize("old, new, line", [
        ("1 encode0=cheap(1)", "0 encode0=cheap(1)", 3),
        ("encode0=cheap(1)", "encode0=cheap(0)", 3),
        ("encode0=cheap(4)", "encode0=precise(2)", 6),
        ("encode0=cheap(3)", "encode0=precise(3)", 5)],
        ids=["name", "encode0", "encode1", "own encode1"])
    def test_a_manifest_reusing_a_parameter_or_encoding_fact_exits_2(
            self, capsys, tmp_path, old, new, line):
        m = tmp_path / "s.manifest"
        save_manifest(datalog.smudge_fixture(), str(m), str(tmp_path / "s.prov"))
        m.write_text(m.read_text().replace(old, new))
        code, out, err = run(capsys, "solve", str(m))
        assert code == 2 and out == "" and f"line {line}" in err

    @pytest.mark.parametrize("after, repeat, line", [
        ("precise(A0) -> cheap(A0)\n", "precise(A0) -> precise(A0)\n", 11),
        ("default identity\n", "default drop\n", 12)],
        ids=["relation", "default"])
    def test_a_repeated_projection_directive_exits_2(
            self, capsys, tmp_path, after, repeat, line):
        m = tmp_path / "s.manifest"
        save_manifest(datalog.smudge_fixture(), str(m), str(tmp_path / "s.prov"))
        m.write_text(m.read_text().replace(after, after + repeat))
        code, out, err = run(capsys, "solve", str(m))
        assert code == 2 and out == "" and f"line {line}" in err

    def test_a_projection_template_longer_than_its_facts_exits_2(
            self, capsys, tmp_path):
        m = tmp_path / "s.manifest"
        save_manifest(datalog.smudge_fixture(), str(m), str(tmp_path / "s.prov"))
        m.write_text(m.read_text().replace("precise(A0) -> cheap(A0)",
                                           "precise(A0,A1) -> cheap(A1)"))
        code, out, err = run(capsys, "solve", str(m))
        assert code == 2 and out == "" and "line 10" in err
        assert "precise(0) has" in err

    def test_an_ill_formed_manifest_exits_2(self, capsys, ill_formed_manifest):
        code, out, err = run(capsys, "solve", ill_formed_manifest)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "not well formed" in err
        assert "(v) projection of precise(0) is not cheap(0)" in err

    def test_probabilistic_with_theta_file(self, capsys, tmp_path):
        theta = tmp_path / "theta.txt"
        save_hyperparams(pm.HyperParams(datalog.smudge_theta()), str(theta))
        code, out, _ = run(capsys, "solve", "--fixture", "smudge",
                           "--strategy", "probabilistic", "--theta", str(theta))
        assert code == 0
        assert "chosen={0,4}" in out.splitlines()[0]

    def test_probabilistic_without_theta_exits_2(self, capsys):
        code, out, err = run(capsys, "solve", "--fixture", "smudge",
                             "--strategy", "probabilistic")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "--theta" in err

    def test_a_missing_or_malformed_theta_file_is_named(self, capsys, tmp_path):
        missing, bad = tmp_path / "nope.txt", tmp_path / "bad.txt"
        bad.write_text("# learned\nbase nope\n")
        solve = ("solve", "--fixture", "smudge", "--strategy", "probabilistic",
                 "--theta")
        assert run(capsys, *solve, str(missing)) == \
            (2, "", f"error: cannot read {missing}: No such file or directory\n")
        assert run(capsys, *solve, str(bad)) == \
            (2, "", f"error: {bad} line 2: malformed theta 'nope'\n")


class TestLearn:
    @pytest.fixture
    def manifests(self, tmp_path):
        rng = random.Random(5)
        paths = []
        for i in range(3):
            smudges = [(lab, rng.choice([2, 3]), "x", "y")
                       for lab in ("a", "b")]
            init = {"x": rng.randrange(30), "y": rng.randrange(30)}
            an = smudge_analysis(smudges, init_values=init)
            m = tmp_path / f"p{i}.manifest"
            save_manifest(an, str(m), str(tmp_path / f"p{i}.prov"))
            paths.append(str(m))
        return paths

    def test_learn_writes_theta_table(self, capsys, tmp_path, manifests):
        out_file = tmp_path / "theta.out"
        code, out, _ = run(capsys, "learn", *manifests, "--n", "6",
                           "--out", str(out_file))
        assert code == 0
        learned = pm.parse_hyperparams(out_file.read_text())
        assert set(learned.theta) >= {"base", "dirty_persist"}
        assert out == out_file.read_text()

    def test_loo_needs_two_programs(self, capsys, manifests):
        assert run(capsys, "learn", manifests[0], "--loo")[0] == 2

    def test_loo_prints_folds(self, capsys, manifests):
        code, out, _ = run(capsys, "learn", *manifests, "--loo", "--n", "4")
        assert code == 0
        assert out.count("# fold") == 3

    def test_an_unwritable_out_file_exits_2(self, capsys, tmp_path, manifests):
        out = tmp_path / "nope" / "theta"
        assert run(capsys, "learn", *manifests, "--n", "4", "--out", str(out)) == \
            (2, "", f"error: cannot write {out}: No such file or directory\n")
        assert run(capsys, "learn", *manifests, "--n", "4", "--loo",
                   "--out", str(out)) == \
            (2, "", f"error: cannot write {out}.fold0: No such file or directory\n")

    def test_a_self_loop_arc_in_a_blueprint_names_the_manifest(
            self, capsys, tmp_path, manifests):
        (tmp_path / "loop.prov").write_text("q <- cheap(0) @ r\nq <- q @ loop\n")
        m = tmp_path / "loop.manifest"
        m.write_text("params:\n0 encode0=cheap(0) encode1=precise(0)\n"
                     "queries:\nq\nprojection:\nprecise(A0) -> cheap(A0)\n"
                     "provenance: loop.prov\n")
        want = (2, "", f"error: {m}: self-loop arc (a head in its own body): "
                       "q <- q @ loop\n")
        assert run(capsys, "learn", str(m), "--n", "2") == want
        assert run(capsys, "learn", manifests[0], str(m), manifests[1],
                   "--n", "2") == want
        assert run(capsys, "learn", manifests[0], str(m), str(m),
                   "--n", "2", "--loo") == want

    def test_a_manifest_without_parameters_exits_2(self, capsys, tmp_path):
        (tmp_path / "q.prov").write_text("q <- @ r\n")
        m = tmp_path / "q.manifest"
        m.write_text("queries:\nq\nprovenance: q.prov\n")
        assert run(capsys, "learn", str(m)) == \
            (2, "", f"error: {m}: the analysis has no parameters to flip\n")

    def test_a_bad_line_names_its_manifest(self, capsys, tmp_path, manifests):
        bad = tmp_path / "bad.manifest"
        bad.write_text("params:\n# encode1 is missing\n0 encode0=cheap(0)\n")
        assert run(capsys, "learn", manifests[0], str(bad)) == \
            (2, "", f"error: {bad} line 3: expected '0 encode0=FACT encode1=FACT'\n")

    def test_an_ill_formed_manifest_exits_2(self, capsys, manifests,
                                            ill_formed_manifest):
        code, out, err = run(capsys, "learn", manifests[0], ill_formed_manifest)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "not well formed" in err
        assert "(v) projection of precise(0) is not cheap(0)" in err


class TestLikelihood:
    @pytest.fixture
    def files(self, tmp_path):
        an = datalog.smudge_fixture()
        bp = hg.Hypergraph(ana.local_provenance(an, frozenset()).arcs)
        obs = likelihood_reference.observations(
            lk.observe(an, [frozenset(["0", "4"])]))
        b = tmp_path / "bp.prov"
        o = tmp_path / "obs.txt"
        t = tmp_path / "theta.txt"
        b.write_text(hg.serialize_provenance(bp))
        o.write_text(likelihood_reference.serialize_observations(obs))
        save_hyperparams(pm.HyperParams(datalog.smudge_theta()), str(t))
        return str(b), str(o), str(t)

    def test_lower_and_upper(self, capsys, files):
        code, lo, _ = run(capsys, "likelihood", *files, "--mode", "lower")
        assert code == 0
        code, up, _ = run(capsys, "likelihood", *files, "--mode", "upper")
        assert code == 0
        assert float(lo) <= float(up)

    def test_exact_prints_the_enumerated_value_within_the_bounds(self, capsys,
                                                                 tmp_path):
        """On an acyclic blueprint of five arcs exact mode prints the sum over
        every arc subset that reproduces the observations, in the order and
        to the digits the library takes it, and equals the upper bound."""
        text = ("b <- a @ r\nc <- a @ s\nd <- b c @ r\nd <- a @ t\n"
                "e <- d @ s\n")
        obs = [Observation(frozenset(hg.parse_facts(t)),
                           frozenset(hg.parse_facts(r)))
               for t, r in (("a", "a b d e"), ("b c", "b c d e"))]
        hp = pm.HyperParams({"r": 0.3, "s": 0.6, "t": 0.2})
        b, o, t = tmp_path / "bp.prov", tmp_path / "obs.txt", tmp_path / "theta.txt"
        b.write_text(text)
        o.write_text(likelihood_reference.serialize_observations(obs))
        save_hyperparams(hp, str(t))
        g = hg.parse_provenance(text)
        p = all_subgraph_probability(g, hp.theta, lambda chosen: all(
            hg.reach(hg.Hypergraph(chosen), x.t) == x.r for x in obs))
        printed = {}
        for mode in ("lower", "upper", "exact"):
            code, out, err = run(capsys, "likelihood", str(b), str(o), str(t),
                                 "--mode", mode)
            assert (code, err) == (0, "")
            printed[mode] = float(out)
        assert out == f"{math.log(p):.9f}\n" and p > 0.0
        assert printed["lower"] <= printed["exact"] <= printed["upper"]
        up = lk.upper_bound(lk.bound_terms(hg.Index(g.arcs),
                                           lk.ObservationBatch.of(obs)), hp)
        assert math.log(p) == pytest.approx(up, abs=1e-9)

    def test_impossible_prints_minus_inf(self, capsys, tmp_path, files):
        b, _, t = files
        o = tmp_path / "bad_obs.txt"
        o.write_text("obs\nT: dirty(end,v)\nR: cheap(0)\n")
        code, out, _ = run(capsys, "likelihood", b, str(o), t)
        assert code == 0 and out.strip() == "-inf"

    def test_a_second_t_line_in_one_observation_exits_2(self, capsys, tmp_path, files):
        b, _, t = files
        o = tmp_path / "dup_obs.txt"
        o.write_text("obs\nT: cheap(0)\nT: cheap(1)\nR: cheap(0) cheap(1)\n")
        code, _, err = run(capsys, "likelihood", b, str(o), t)
        assert code == 2 and "line 3" in err

    def test_a_repeated_rule_type_in_theta_exits_2(self, capsys, tmp_path, files):
        b, o, t = files
        lines = Path(t).read_text().splitlines()
        repeated = tmp_path / "repeated_theta.txt"
        repeated.write_text("\n".join(lines + ["base 0.5"]) + "\n")
        code, out, err = run(capsys, "likelihood", b, o, str(repeated))
        assert code == 2 and out == "" and f"line {len(lines) + 1}" in err

    def test_an_unreadable_blueprint_or_observation_file_exits_2(
            self, capsys, tmp_path, files):
        b, o, t = files
        missing = tmp_path / "nope.prov"
        assert run(capsys, "likelihood", str(missing), o, t) == \
            (2, "", f"error: cannot read {missing}: No such file or directory\n")
        assert run(capsys, "likelihood", b, str(tmp_path), t) == \
            (2, "", f"error: cannot read {tmp_path}: Is a directory\n")

    def test_a_bad_line_names_the_blueprint_or_observation_file(
            self, capsys, tmp_path, files):
        b, o, t = files
        bad_b, bad_o = tmp_path / "bad.prov", tmp_path / "bad_obs.txt"
        bad_b.write_text("x <- @ r\ny <- x\n")
        bad_o.write_text("obs\nT: cheap(0)\nQ: y\n")
        assert run(capsys, "likelihood", str(bad_b), o, t) == \
            (2, "", f"error: {bad_b} line 2: arc missing rule type: 'y <- x'\n")
        assert run(capsys, "likelihood", b, str(bad_o), t) == \
            (2, "", f"error: {bad_o} line 3: unexpected line 'Q: y'\n")

    def test_a_self_loop_arc_names_the_blueprint_file(self, capsys, tmp_path,
                                                      files):
        _, o, t = files
        b = tmp_path / "loop.prov"
        b.write_text(Path(files[0]).read_text() + "cheap(0) <- cheap(0) @ base\n")
        for mode in ("lower", "upper", "exact"):
            assert run(capsys, "likelihood", str(b), o, t, "--mode", mode) == \
                (2, "", f"error: {b}: self-loop arc (a head in its own body): "
                        "cheap(0) <- cheap(0) @ base\n")

    @pytest.mark.hashseed
    def test_a_foreign_fact_names_the_fact_and_the_observation_file(
            self, capsys, tmp_path, files):
        b, o, t = files
        foreign = tmp_path / "foreign_obs.txt"
        foreign.write_text(Path(o).read_text()
                           + "obs\nT: cheap(0)\nR: cheap(0) ghost(2) ghost(1) zz\n")
        for mode in ("lower", "upper", "exact"):
            assert run(capsys, "likelihood", b, str(foreign), t, "--mode", mode) == \
                (2, "", f"error: {foreign}: observation 2 derives ghost(1), "
                        "a fact foreign to the blueprint\n")

    def test_a_missing_or_malformed_theta_file_is_named(self, capsys, tmp_path,
                                                        files):
        b, o, _ = files
        missing, bad = tmp_path / "nope.txt", tmp_path / "bad.txt"
        bad.write_text("nope\n")
        assert run(capsys, "likelihood", b, o, str(missing)) == \
            (2, "", f"error: cannot read {missing}: No such file or directory\n")
        assert run(capsys, "likelihood", b, o, str(bad)) == \
            (2, "", f"error: {bad} line 1: expected 'rule_type theta "
                    "[unconstrained]': 'nope'\n")
        bad.write_text("base nope\n")
        assert run(capsys, "likelihood", b, o, str(bad), "--mode", "exact") == \
            (2, "", f"error: {bad} line 1: malformed theta 'nope'\n")

    def test_theta_missing_a_rule_type_exits_2(self, capsys, tmp_path, files):
        b, o, _ = files
        theta = datalog.smudge_theta()
        del theta["dirty_persist"]
        t = tmp_path / "partial_theta.txt"
        save_hyperparams(pm.HyperParams(theta), str(t))
        for mode in ("lower", "upper", "exact"):
            code, _, err = run(capsys, "likelihood", b, o, str(t), "--mode", mode)
            assert code == 2
            assert err == (f"error: {t}: missing hyperparameters for rule types "
                           "['dirty_persist']\n")

    def test_a_blueprint_too_large_for_exact_mode_is_named(self, capsys, tmp_path):
        b, o, t = tmp_path / "chain.prov", tmp_path / "obs.txt", tmp_path / "theta.txt"
        b.write_text("".join(f"c({i + 1}) <- c({i}) @ r\n" for i in range(16)))
        o.write_text("obs\nT: c(0)\nR: c(0) c(1)\n")
        t.write_text("r 0.5\n")
        assert run(capsys, "likelihood", str(b), str(o), str(t), "--mode", "exact") == \
            (2, "", f"error: {b}: exact likelihood over 16 arcs (limit 15)\n")


class TestMaxsat:
    def test_solve_and_export(self, capsys, tmp_path):
        inst = tmp_path / "i.txt"
        inst.write_text("w a 2.0\nw b -1.0\nhard (or a b)\n")
        code, out, _ = run(capsys, "maxsat", str(inst))
        assert code == 0
        assert "model: a" in out and "objective: 2.000000" in out
        vm = tmp_path / "i.varmap"
        code, out, _ = run(capsys, "maxsat", str(inst), "--export-wcnf",
                           "--varmap", str(vm))
        assert code == 0 and out.startswith("p wcnf")
        assert vm.exists()

    def test_an_unwritable_varmap_exits_2(self, capsys, tmp_path):
        inst = tmp_path / "i.txt"
        inst.write_text("w a 2.0\nhard (or a b)\n")
        vm = tmp_path / "nope" / "i.varmap"
        code, out, err = run(capsys, "maxsat", str(inst), "--export-wcnf",
                             "--varmap", str(vm))
        assert code == 2 and out.startswith("p wcnf")
        assert err == f"error: cannot write {vm}: No such file or directory\n"

    def test_unsat_exits_1(self, capsys, tmp_path):
        inst = tmp_path / "u.txt"
        inst.write_text("hard (and x (not x))\n")
        code, out, _ = run(capsys, "maxsat", str(inst))
        assert code == 1 and out.strip() == "unsat"

    def test_a_variable_named_like_an_auxiliary_solves(self, capsys, tmp_path):
        inst = tmp_path / "i.txt"
        inst.write_text("hard (and (or c _aux5) (not (or a b)))\n")
        code, out, _ = run(capsys, "maxsat", str(inst))
        assert code == 0 and out == "model: c\nobjective: 0.000000\n"

    def test_the_varmap_names_no_two_ids_alike(self, capsys, tmp_path):
        inst = tmp_path / "i.txt"
        inst.write_text("w c 1.0\nhard (and (or c _aux5) (not (or a b)))\n")
        vm = tmp_path / "i.varmap"
        code, out, _ = run(capsys, "maxsat", str(inst), "--export-wcnf",
                           "--varmap", str(vm))
        assert code == 0 and out.startswith("p wcnf 7 ")
        lines = [line.split(" ", 1) for line in vm.read_text().splitlines()]
        assert [int(i) for i, _ in lines] == list(range(1, 8))
        names = [name for _, name in lines]
        assert len(set(names)) == len(names)
        assert names[:4] == ["_aux5", "a", "b", "c"]

    @pytest.mark.parametrize("formula, answer", [
        ("(not (exists (y) y))", "unsat\n"),
        ("(iff x (exists (y) (and y (not y))))", "model: \nobjective: 0.000000\n"),
        ("(and x (exists (x) (not x)))", "model: x\nobjective: 1.000000\n")])
    def test_exists_binds_its_names_where_it_stands(self, capsys, tmp_path,
                                                    formula, answer):
        inst = tmp_path / "i.txt"
        inst.write_text(f"w x 1.0\nhard {formula}\n")
        code, out, _ = run(capsys, "maxsat", str(inst))
        assert (code, out) == (1 if answer == "unsat\n" else 0, answer)

    def test_approx_mode(self, capsys, tmp_path):
        inst = tmp_path / "i.txt"
        inst.write_text("w a 1.0\nhard (implies a a)\n")
        code, out, _ = run(capsys, "maxsat", str(inst), "--solve", "approx")
        assert code == 0 and "model: a" in out

    def test_nan_budget_exits_2(self, capsys, tmp_path):
        inst = tmp_path / "i.txt"
        inst.write_text("w a 2.0\nhard (or a b)\n")
        for mode in ("exact", "approx"):
            for budget in ("nan", "-1"):
                code, out, err = run(capsys, "maxsat", str(inst), "--solve",
                                     mode, f"--budget={budget}")
                assert code == 2 and out == "" and "budget" in err

    @pytest.mark.parametrize("text, line", [
        ("w x 1.0\nhard x\nhard (not x)\n", 3),
        ("w x 1.0\nw y 1.0\nw x 2.0\nhard (or x y)\n", 3)],
        ids=["hard", "weight"])
    def test_a_repeated_hard_or_weight_line_exits_2(self, capsys, tmp_path,
                                                    text, line):
        inst = tmp_path / "i.txt"
        inst.write_text(text)
        for argv in ([], ["--export-wcnf"]):
            code, out, err = run(capsys, "maxsat", str(inst), *argv)
            assert code == 2 and out == "" and f"line {line}" in err

    def test_malformed_instance_exits_2(self, capsys, tmp_path):
        inst = tmp_path / "m.txt"
        for text in ["hard (badop x)\n", "w a inf\nhard a\n", "w a nan\nhard a\n"]:
            inst.write_text(text)
            assert run(capsys, "maxsat", str(inst), "--export-wcnf")[0] == 2
            assert run(capsys, "maxsat", str(inst))[0] == 2

    # a weight line that is not `w NAME VALUE`, or whose value is no number,
    # says what it expects, as a theta line does
    @pytest.mark.parametrize("line, message", [
        ("w x 1 2", "expected 'w NAME VALUE'"),
        ("w x", "expected 'w NAME VALUE'"),
        ("w x abc", "malformed weight 'abc'")])
    def test_a_malformed_weight_line_says_what_it_expects(self, capsys, tmp_path,
                                                          line, message):
        inst = tmp_path / "i.txt"
        inst.write_text(f"{line}\nhard x\n")
        for argv in ([], ["--export-wcnf"]):
            assert run(capsys, "maxsat", str(inst), *argv) == \
                (2, "", f"error: {inst} line 1: {message}\n")

    @pytest.mark.parametrize("formula", [
        "(", "(not)", "(implies a)", "(iff a b c)", "(exists (x", "(exists x a)",
        "(exists (x) a b)", ")", "(and a", "a b"])
    def test_truncated_formulas_exit_2(self, capsys, tmp_path, formula):
        inst = tmp_path / "t.txt"
        inst.write_text(f"w a 1.0\nhard {formula}\n")
        code, _, err = run(capsys, "maxsat", str(inst))
        assert code == 2 and "line 2" in err

    def test_formula_deeper_than_the_nesting_limit_exits_2(self, capsys, tmp_path):
        inst = tmp_path / "deep.txt"
        inst.write_text("w x 1.0\nhard " + "(not " * 3000 + "x" + ")" * 3000 + "\n")
        for extra in ([], ["--export-wcnf"]):
            code, _, err = run(capsys, "maxsat", str(inst), *extra)
            assert code == 2 and "line 2" in err

    def test_formula_at_the_nesting_limit_solves(self, capsys, tmp_path):
        depth = hg.MAX_NESTING - hg.MAX_NESTING % 2  # an even number of nots
        inst = tmp_path / "deep.txt"
        inst.write_text("w x 1.0\nhard " + "(not " * depth + "x" + ")" * depth + "\n")
        code, out, _ = run(capsys, "maxsat", str(inst))
        assert code == 0 and "model: x" in out
        assert run(capsys, "maxsat", str(inst), "--export-wcnf")[0] == 0

    def test_a_long_clause_completes_without_recursing_per_variable(
            self, capsys, tmp_path):
        inst = tmp_path / "i.txt"
        inst.write_text("hard (or " + " ".join(f"x{i}" for i in range(1500)) + ")\n")
        code, out, _ = run(capsys, "maxsat", str(inst))
        assert (code, out) == (0, "model: x999\nobjective: 0.000000\n")

    def test_many_weights_branch_without_recursing_per_weight(self, capsys,
                                                              tmp_path):
        n = 1200
        inst = tmp_path / "i.txt"
        inst.write_text("".join(f"w x{i} -1\n" for i in range(n)) + "hard (or "
                        + " ".join(f"x{i}" for i in range(n)) + ")\n")
        code, out, _ = run(capsys, "maxsat", str(inst), "--solve", "approx",
                           "--budget", "2")
        model, objective = out.splitlines()
        assert code == 0 and objective == "objective: -1.000000"
        assert len(model.split()) == 2 and model.split()[1] in {
            f"x{i}" for i in range(n)}

    def test_a_weight_too_large_to_export_exits_2(self, capsys, tmp_path):
        inst = tmp_path / "i.txt"
        inst.write_text("w x 1e14\nhard (or x y)\n")
        code, out, err = run(capsys, "maxsat", str(inst), "--export-wcnf")
        assert code == 2 and out == ""
        assert err.startswith("error: weight ") and \
            err.endswith(" too large for integral encoding\n")
        # a weight whose scaled value overflows to inf, and no varmap written
        varmap = tmp_path / "v.txt"
        for w, shown in [("1e303", "1e+303"), ("-1e308", "-1e+308")]:
            inst.write_text(f"w x {w}\nhard x\n")
            code, out, err = run(capsys, "maxsat", str(inst), "--export-wcnf",
                                 "--varmap", str(varmap))
            assert (code, out) == (2, "") and not varmap.exists()
            assert err == (f"error: weight {shown} too large for integral "
                           "encoding\n")

    def test_a_hard_clause_weight_past_64_bits_exits_2(self, capsys, tmp_path):
        # each weight fits, but the hard-clause weight, their sum plus one,
        # would exceed 2^63-1, which 64-bit solvers misread
        inst = tmp_path / "i.txt"
        inst.write_text("w x 4e12\nw y 4e12\nw z 4e12\nhard (or x y z)\n")
        code, out, err = run(capsys, "maxsat", str(inst), "--export-wcnf")
        assert code == 2 and out == ""
        assert err == ("error: hard-clause weight 12000000000000000001 exceeds "
                       "2^63-1: the soft weights sum too large for integral "
                       "encoding\n")
        inst.write_text("w x 4.6e12\nw y 4.6e12\nhard (or x y)\n")
        code, out, _ = run(capsys, "maxsat", str(inst), "--export-wcnf")
        assert code == 0 and out.startswith("p wcnf 3 6 9200000000000000001\n")

    @pytest.mark.parametrize("mode", ["exact", "approx"])
    def test_weights_summing_past_the_float_range_exit_2(self, capsys, tmp_path,
                                                         mode):
        inst = tmp_path / "i.txt"
        inst.write_text("w x 1e308\nw y 1e308\nhard (or x y)\n")
        code, out, err = run(capsys, "maxsat", str(inst), "--solve", mode)
        assert code == 2 and out == "" and err.startswith("error: ")
        inst.write_text("w x 1e308\nw y -1e308\nhard (or x y)\n")
        code, out, _ = run(capsys, "maxsat", str(inst), "--solve", mode)
        assert code == 0 and out.startswith("model: x\nobjective: 1")

    def test_a_long_flat_formula_reads_term_by_term(self):
        from provrefine import maxsat as mx

        n = 80_000
        text = "hard (and " + " ".join(f"x{i}" for i in range(n)) + ")\n"
        assert cli.parse_maxsat_instance(text).hard == \
            mx.and_(*(mx.var(f"x{i}") for i in range(n)))

    def test_import_model(self, capsys, tmp_path):
        inst = tmp_path / "i.txt"
        inst.write_text("w a 1.0\nhard a\n")
        from provrefine import maxsat as mx

        cnf = mx.compile_instance(cli.parse_maxsat_instance(inst.read_text()))
        model = tmp_path / "model.txt"
        model.write_text("v " + str({n: i for i, n in cnf.names.items()}["a"]) + "\n")
        code, out, _ = run(capsys, "maxsat", str(inst),
                           "--import-model", str(model))
        assert code == 0 and "model: a" in out

    @pytest.mark.parametrize("word", ["--1", "²", "1²", "-", "+1", "1" * 5000],
                             ids=["double minus", "superscript", "digit and "
                                  "superscript", "minus", "plus", "5000 digits"])
    def test_an_imported_word_that_is_no_ascii_integer_is_skipped(
            self, capsys, tmp_path, word):
        """Ids 1 and 2 are a and b, and id 3 is the or's auxiliary."""
        inst, model = tmp_path / "i.txt", tmp_path / "model.txt"
        inst.write_text("w a 1.0\nhard (or a b)\n")
        model.write_text(f"s OPTIMUM\nv {word} 2 3\n")
        assert run(capsys, "maxsat", str(inst), "--import-model", str(model)) == \
            (0, "model: b\nobjective: 0.000000\n", "")

    def test_an_imported_non_model_names_its_file(self, capsys, tmp_path):
        inst, model = tmp_path / "i.txt", tmp_path / "model.txt"
        inst.write_text("w a 1.0\nhard a\n")
        model.write_text("v -1\n")
        assert run(capsys, "maxsat", str(inst), "--import-model", str(model)) == \
            (2, "", f"error: {model}: external assignment violates the hard "
                    "constraint\n")

    @pytest.mark.parametrize("mode, message", [
        ("exact", "exact solver timed out"),
        ("approx", "no model found within budget")])
    def test_a_budget_of_zero_exits_4(self, capsys, tmp_path, mode, message):
        inst = tmp_path / "i.txt"
        inst.write_text("w a 2.0\nw b -1.0\nhard (or a b)\n")
        assert run(capsys, "maxsat", str(inst), "--solve", mode, "--budget", "0") == \
            (4, "", f"error: {message}\n")

    def test_an_instance_without_a_hard_line_is_named(self, capsys, tmp_path):
        inst = tmp_path / "i.txt"
        inst.write_text("w a 2.0\n")
        assert run(capsys, "maxsat", str(inst)) == \
            (2, "", f"error: {inst}: instance has no hard formula\n")

    def test_an_unreadable_instance_or_model_exits_2(self, capsys, tmp_path):
        inst, missing = tmp_path / "i.txt", tmp_path / "nope.txt"
        inst.write_text("w a 1.0\nhard a\n")
        for argv in ([str(missing)], [str(inst), "--import-model", str(missing)]):
            assert run(capsys, "maxsat", *argv) == \
                (2, "", f"error: cannot read {missing}: No such file or directory\n")


# --- the exit-code contract on arbitrary input -------------------------------

# fragments of every input format, so that generated text reaches past the
# first syntax check more often than uniform random text would
_FRAGMENTS = ["a", "X", "q(1)", "c(1, 2)", "v(-3)", "(", ")", ",", " ", "\n",
              ".", ":-", "@r", "<-", "==", "mod", "0", "1.5", "=", "->", "#",
              "obs", "T:", "R:", "hard", "w", "not", "implies", "exists",
              "params:", "queries:", "projection:", "provenance: s.prov",
              "rules:", "encode0=", "encode1=", "default", "drop", "base",
              "precise(A0,A1) -> cheap(A1)"]
_TEXT = st.one_of(st.text(max_size=80),
                  st.lists(st.sampled_from(_FRAGMENTS), max_size=30).map("".join))
_DOCUMENTED_EXITS = {cli.EXIT_OK, cli.EXIT_NO, cli.EXIT_PARSE, cli.EXIT_OVERFLOW,
                     cli.EXIT_LIMIT}


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory) -> dict:
    d = tmp_path_factory.mktemp("contract")
    an = datalog.smudge_fixture()
    save_manifest(an, str(d / "s.manifest"), str(d / "s.prov"))
    (d / "bp.prov").write_text(
        hg.serialize_provenance(
            hg.Hypergraph(ana.local_provenance(an, frozenset()).arcs)))
    (d / "obs.txt").write_text(likelihood_reference.serialize_observations(
        likelihood_reference.observations(
            lk.observe(an, [frozenset(["0", "4"])]))))
    save_hyperparams(pm.HyperParams(datalog.smudge_theta()), str(d / "theta.txt"))
    names = ("bp.prov", "obs.txt", "theta.txt", "fuzz.txt")
    return {name: str(d / name) for name in names}


# each command with the argument that receives the generated text
_COMMANDS = [
    ["ground", "--rules", "fuzz.txt"],
    ["solve", "fuzz.txt", "--budget", "1"],
    ["learn", "fuzz.txt", "--n", "2"],
    ["likelihood", "fuzz.txt", "obs.txt", "theta.txt"],
    ["likelihood", "bp.prov", "fuzz.txt", "theta.txt"],
    ["likelihood", "bp.prov", "obs.txt", "fuzz.txt"],
    ["maxsat", "fuzz.txt", "--budget", "1"],
]


@given(command=st.sampled_from(_COMMANDS), text=_TEXT)
@settings(max_examples=150, deadline=None)
def test_arbitrary_input_gets_a_documented_exit_code(valid_inputs, command, text):
    # the generated file sits beside s.prov, which a manifest may name
    Path(valid_inputs["fuzz.txt"]).write_text(text)
    argv = [valid_inputs.get(a, a) for a in command]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) in _DOCUMENTED_EXITS


# --- the line rules every input format shares --------------------------------

def _formats(d: Path) -> dict:
    """Per input format: its parser, a key its result compares by, valid
    lines, a line the parser rejects, and the command reading "fuzz.txt"."""
    def same(result):
        return result

    return {
        "program": (datalog.parse_program, same, ["p(1).", "q(X) :- p(X). @r"],
                    "q(X) :- p(X).", ["ground", "--rules", "fuzz.txt"]),
        "provenance": (hg.parse_provenance, same, ["b <- a @ r", "c <- a b @ s"],
                       "c <- a", ["likelihood", "fuzz.txt", "obs.txt", "theta.txt"]),
        "manifest": (lambda text: ana.parse_manifest(text, str(d)),
                     lambda an: serialize_manifest(an, "s.prov"),
                     (d / "s.manifest").read_text().splitlines(), "x",
                     ["solve", "fuzz.txt", "--budget", "1"]),
        "observations": (lk.parse_observations, likelihood_reference.observations,
                         (d / "obs.txt").read_text().splitlines(), "T a",
                         ["likelihood", "bp.prov", "fuzz.txt", "theta.txt"]),
        "theta": (pm.parse_hyperparams, same,
                  (d / "theta.txt").read_text().splitlines(), "base 1.5",
                  ["likelihood", "bp.prov", "obs.txt", "fuzz.txt"]),
        "maxsat": (cli.parse_maxsat_instance, same, ["w a 1.0", "hard (or a b)"],
                   "w a", ["maxsat", "fuzz.txt"]),
    }


@pytest.mark.parametrize("fmt", ["program", "provenance", "manifest",
                                 "observations", "theta", "maxsat"])
def test_every_format_skips_comments_and_blank_lines_and_names_the_bad_line(
        capsys, valid_inputs, fmt):
    parse, key, lines, bad, command = _formats(
        Path(valid_inputs["fuzz.txt"]).parent)[fmt]
    commented = "# a leading comment\n\n" + "".join(
        f"  {line}  # a trailing comment\n" for line in lines)
    assert key(parse(commented)) == key(parse("\n".join(lines) + "\n"))
    bad_line = len(lines) + 3
    text = commented + bad + "  # why\n"
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.line == bad_line
    Path(valid_inputs["fuzz.txt"]).write_text(text)
    code, out, err = run(capsys, *[valid_inputs.get(a, a) for a in command])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {valid_inputs['fuzz.txt']} line {bad_line}: ")
