"""Pinned exit code and stdout of `ground` on guards from a seeded grammar.

`tests/guard_golden.json` holds, for each of about 400 guard texts, the
exit code and stdout of `ground` over a three-fact program whose one rule
has that guard (`program`): its body atom binds X, and its head shows Y
when the guard names Y.  The texts are a few hand-picked guards, then
the seeded output of `random_guard`: a comparison of sums over the
variables X and Y, often a binding `Y == ...`, the names cd, in and x' and the integers 0, 3, -3 and
100, joined by every operator, with parentheses and optional spaces; one
in four has a token replaced, dropped, doubled or inserted, drawn from
the guard tokens and from `<=`, `=` and `-`, which guards do not read.
No integer has a leading zero and no guard nears the token limit:
`test_cli` covers both.  Regenerate the file with

    PYTHONPATH=src:tests python tests/test_guard_golden.py

only when a change to the output is intended.
"""

import contextlib
import io
import json
import random
import re
import tempfile
from pathlib import Path

import pytest

from provrefine import cli

pytestmark = pytest.mark.hashseed

GOLDEN = Path(__file__).resolve().parent / "guard_golden.json"
COUNT = 400
VARIABLES = ("X", "Y")
NAMES = ("cd", "in", "x'")
INTEGERS = ("0", "3", "-3", "100")
ARITHMETIC = ("+", "*", "mod", "%")
COMPARISONS = ("==", "!=", "<", ">")
FOREIGN = ("<=", "=", "-")
# X is bound by the rule's body atom, Y only by a binding guard
LEAVES = ("X",) * 5 + ("Y",) + NAMES + INTEGERS
TOKENS = VARIABLES + NAMES + INTEGERS + ARITHMETIC + COMPARISONS + FOREIGN + ("(", ")")
HAND_PICKED = ["(X == 4)", "((X + 1)) == 5", "X % 2 == 0", "X mod 2 == 0",
               "((X > 3))", "(Y) == X + 1", "(Y == X * 2)", "Y == cd",
               "X == Y", "Y == Y + 1", "Y == X mod (X + -3)", "X < cd"]


def random_sum(rng, depth: int) -> list:
    tokens = []
    for i in range(rng.choice((1, 1, 1, 2, 2, 3))):
        if i:
            tokens.append(rng.choice(ARITHMETIC))
        if depth < 2 and rng.random() < 0.2:
            tokens += ["("] + random_sum(rng, depth + 1) + [")"]
        else:
            tokens.append(rng.choice(LEAVES))
    return tokens


def random_guard(rng) -> str:
    if rng.random() < 0.3:
        tokens = ["Y", "=="] + random_sum(rng, 0)
    else:
        tokens = random_sum(rng, 0) + [rng.choice(COMPARISONS)] + random_sum(rng, 0)
    if rng.random() < 0.1:
        tokens = ["("] + tokens + [")"]
    if rng.random() < 0.25:
        i = rng.randrange(len(tokens))
        mutation = rng.randrange(4)
        if mutation == 0:
            tokens[i] = rng.choice(TOKENS)
        elif mutation == 1:
            del tokens[i]
        elif mutation == 2:
            tokens.insert(i, tokens[i])
        else:
            tokens.insert(i, rng.choice(TOKENS))
    text = tokens[0]
    for tok in tokens[1:]:
        # "0" joined to a digit would spell an integer with a leading zero
        zero = re.search(r"[\w']*$", text).group() == "0" and tok[0].isdigit()
        text += " " + tok if zero or rng.random() < 0.7 else tok
    return text


def program(guard: str) -> str:
    head = "h(X,Y)" if "Y" in guard else "h(X)"
    return f"v(3).\nv(4).\nv(100).\n{head} :- v(X), {guard}. @r\n"


def guards(count: int = COUNT, seed: int = 2020) -> list:
    rng = random.Random(seed)
    return HAND_PICKED + [random_guard(rng) for _ in range(count - len(HAND_PICKED))]


def run_all(texts: list) -> list:
    got = []
    with tempfile.TemporaryDirectory() as d:
        src = Path(d) / "guard.dl"
        for text in texts:
            src.write_text(program(text))
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["ground", "--rules", str(src)])
            got.append({"guard": text, "code": code, "out": out.getvalue()})
    return got


def test_guards_ground_as_pinned():
    golden = json.loads(GOLDEN.read_text())
    assert [g["guard"] for g in golden] == guards()
    got = run_all(guards())
    assert [g for g, p in zip(got, golden) if g != p] == []


def test_pinned_guards_cover_every_outcome():
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == COUNT
    assert {g["code"] for g in golden} == {0, 2, 3}
    derived = [g for g in golden if g["code"] == 0 and "h(" in g["out"]]
    assert len(derived) > COUNT // 10
    assert any(g["guard"].startswith("(") and g["guard"].endswith(")")
               for g in derived)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(run_all(guards()), indent=1) + "\n")
