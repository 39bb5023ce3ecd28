"""Pinned stdout of the `maxsat` command on seeded random formula instances.

`tests/maxsat_golden.json` holds, for each instance, its text, one or
two external models for `--import-model`, and the exit code and stdout
of an exact solve, an approximate solve, a WCNF export (with its
`--varmap` file) and each import.  The instances use every operator, the
constants and zero weights.  Regenerate the file with

    PYTHONPATH=src:tests python tests/test_maxsat_golden.py

only when a change to the output is intended.
"""

import contextlib
import io
import itertools
import json
import random
from pathlib import Path

import pytest

from provrefine import cli

pytestmark = pytest.mark.hashseed

GOLDEN = Path(__file__).resolve().parent / "maxsat_golden.json"
COUNT = 40


def _formula(rng, names, depth, fresh, positive=True):
    """A random formula over names.  An `exists` binds fresh `y<k>` names,
    used only in its body, and stands only where no `not`, antecedent or
    `iff` is above it: the compiled instance treats its variables as free."""
    if depth == 0 or rng.random() < 0.3:
        r = rng.random()
        if r < 0.08:
            return rng.choice(["true", "false"])
        leaf = rng.choice(names)
        return f"(not {leaf})" if r < 0.4 else leaf
    op = rng.choice(["and", "or", "not", "implies", "iff"] + ["exists"] * positive)
    if op in ("and", "or"):
        kids = [_formula(rng, names, depth - 1, fresh, positive)
                for _ in range(rng.randint(0, 3))]
        return f"({op}{''.join(' ' + k for k in kids)})"
    if op == "not":
        return f"(not {_formula(rng, names, depth - 1, fresh, False)})"
    if op == "exists":
        bound = [f"y{next(fresh)}" for _ in range(rng.randint(1, 2))]
        body = _formula(rng, names + bound, depth - 1, fresh, True)
        return f"(exists ({' '.join(bound)}) {body})"
    return (f"({op} {_formula(rng, names, depth - 1, fresh, False)} "
            f"{_formula(rng, names, depth - 1, fresh, positive and op == 'implies')})")


def random_instance_text(rng) -> str:
    names = [f"x{i}" for i in range(rng.randint(1, 6))]
    lines = []
    for name in rng.sample(names, rng.randint(0, len(names))):
        r = rng.random()
        value = rng.choice(["0", "0.0", "-0"]) if r < 0.2 else \
            f"{rng.uniform(-2, 2):.4f}"
        lines.append(f"w {name} {value}")
    lines.append(f"hard {_formula(rng, names, 4, itertools.count())}")
    return "\n".join(lines) + "\n"


def run_maxsat(tmp: Path, text: str, models) -> dict:
    """Exit code and stdout of every `maxsat` mode on one instance."""
    inst, varmap = tmp / "instance.txt", tmp / "instance.varmap"
    inst.write_text(text)

    def run(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["maxsat", str(inst), *argv])
        return [code, out.getvalue()]

    got = {"solve": run(), "approx": run("--solve", "approx"),
           "wcnf": run("--export-wcnf", "--varmap", str(varmap))}
    got["varmap"] = varmap.read_text()
    got["import"] = []
    for i, model in enumerate(models):
        path = tmp / f"model{i}.txt"
        path.write_text(model)
        got["import"].append(run("--import-model", str(path)))
    return got


def _external_models(rng, wcnf: str) -> list:
    """A model of the hard clauses when one is found, and a noisy list.

    The noisy list leaves ids out, repeats one with the other sign, names
    an id above the header's count and carries solver line markers.
    """
    import maxsat_reference as ref

    header, *rows = wcnf.splitlines()
    nvars, top = int(header.split()[2]), header.split()[4]
    hard = [[int(t) for t in row.split()[1:-1]] for row in rows
            if row.split()[0] == top]
    ids = list(range(1, nvars + 1))
    full = None
    for _ in range(20):
        order = rng.sample(ids, len(ids))
        start = {v: rng.random() < 0.5 for v in order[:rng.randint(0, 3)]}
        full = ref.dpll_complete(hard, start, order, float("inf"))
        if full is not None:
            break
    models = []
    if full is not None:
        models.append("v " + " ".join(
            str(v if full.get(v) else -v) for v in ids) + "\n")
    lits = [v if rng.random() < 0.5 else -v for v in ids if rng.random() < 0.8]
    if lits:
        lits.append(-lits[0])
    lits.append(nvars + rng.randint(1, 3))
    models.append("s OPTIMUM FOUND\no 3\nv " + " ".join(map(str, lits)) + " 0\n")
    return models


def generate(count: int = COUNT, seed: int = 1212) -> list:
    import tempfile

    rng = random.Random(seed)
    cases = []
    with tempfile.TemporaryDirectory() as d:
        for _ in range(count):
            text = random_instance_text(rng)
            wcnf = run_maxsat(Path(d), text, [])["wcnf"][1]
            models = _external_models(rng, wcnf)
            cases.append({"instance": text, "models": models,
                          "output": run_maxsat(Path(d), text, models)})
    return cases


def _cases():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("index", range(COUNT))
def test_maxsat_output_is_pinned(tmp_path, index):
    case = _cases()[index]
    assert "_aux" not in case["instance"]
    assert run_maxsat(tmp_path, case["instance"], case["models"]) == case["output"]


def test_pinned_instances_cover_every_construct():
    assert len(_cases()) == COUNT
    text = "".join(c["instance"] for c in _cases())
    for token in ("(and", "(or", "(not", "(implies", "(iff", "(exists",
                  "true", "false", " 0\n", "-0\n"):
        assert token in text, token
    codes = {code for c in _cases() for code, _ in c["output"]["import"]}
    assert codes == {0, 2}  # models accepted and rejected


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(generate(), indent=1) + "\n")
