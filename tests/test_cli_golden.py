"""Pinned stdout of `ground`, `solve` and `learn` on seeded smudge programs.

`tests/cli_golden.json` holds, for each of a few random smudge programs
(its sites and initial values), the text `analysis_reference.save_manifest`
writes for it and the exit code and stdout of `ground` over its program
text and of `solve` under every strategy on its manifest; then the output of
`solve --solver approx` on the demo fixture and of `learn --seed 0` over
all the manifests.  Regenerate the file with

    PYTHONPATH=src:tests python tests/test_cli_golden.py

only when a change to the output is intended.
"""

import contextlib
import io
import json
import random
from pathlib import Path

import pytest

from provrefine import cli, datalog
from provrefine import probmodel as pm

from analysis_reference import save_manifest
from datalog_reference import smudge_analysis, smudge_program_text
from conftest import save_hyperparams

pytestmark = pytest.mark.hashseed

GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"
COUNT = 10
OBJECTS = ("x", "y", "z", "w")


def run(*argv) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return [code, out.getvalue()]


def random_program(rng) -> dict:
    """The sites `(label, k, src, dst)` and initial values of a program.
    Each site smudges from an object an earlier site may have dirtied, so
    the query is derived once every site is precise and the manifest is
    well formed."""
    smudges, dirty = [], ["x"]
    for i in range(rng.randint(2, 7)):
        smudges.append([i, rng.choice((2, 3, 5, 7)), rng.choice(dirty),
                        rng.choice(OBJECTS)])
        dirty = sorted(set(dirty) | {smudges[-1][3]})
    return {"smudges": smudges,
            "init": {o: rng.randrange(10) for o in OBJECTS}}


def run_program(tmp: Path, i: int, program: dict, theta: Path) -> dict:
    """The saved manifest and the `ground` and `solve` outputs of one
    program; leaves its manifest at tmp/p<i>.manifest."""
    smudges = [tuple(s) for s in program["smudges"]]
    rules = tmp / f"p{i}.dl"
    rules.write_text(smudge_program_text(smudges, program["init"]))
    seeds = " ".join(f"{rel}({s[0]})" for s in smudges
                     for rel in ("cheap", "precise"))
    manifest, prov = tmp / f"p{i}.manifest", tmp / f"p{i}.prov"
    save_manifest(smudge_analysis(smudges, program["init"]),
                  str(manifest), str(prov))
    got = {"manifest": manifest.read_text(),
           "ground": run("ground", "--rules", str(rules), "--seeds", seeds)}
    for strategy in ("pessimistic", "optimistic", "probabilistic"):
        got[strategy] = run("solve", str(manifest), "--strategy", strategy,
                            "--theta", str(theta))
    return got


def run_all(tmp: Path, programs: list) -> dict:
    theta = tmp / "theta.txt"
    save_hyperparams(pm.HyperParams(datalog.smudge_theta()), str(theta))
    got = {"programs": [run_program(tmp, i, p, theta)
                        for i, p in enumerate(programs)]}
    got["approx"] = run("solve", "--fixture", "smudge", "--solver", "approx")
    got["learn"] = run("learn", *(str(tmp / f"p{i}.manifest")
                                  for i in range(len(programs))),
                       "--seed", "0")
    return got


def generate(count: int = COUNT, seed: int = 1616) -> dict:
    import tempfile

    rng = random.Random(seed)
    programs = [random_program(rng) for _ in range(count)]
    with tempfile.TemporaryDirectory() as d:
        return {"programs": programs, "output": run_all(Path(d), programs)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def output(golden, tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("cli_golden"), golden["programs"])


@pytest.mark.parametrize("index", range(COUNT))
def test_ground_and_solve_output_is_pinned(golden, output, index):
    assert output["programs"][index] == golden["output"]["programs"][index]


def test_approx_and_learn_output_is_pinned(golden, output):
    assert output["approx"] == golden["output"]["approx"]
    assert output["learn"] == golden["output"]["learn"]


def test_pinned_programs_cover_both_answers(golden):
    assert len(golden["programs"]) == COUNT
    codes = {p[s][0] for p in golden["output"]["programs"]
             for s in ("pessimistic", "optimistic", "probabilistic")}
    assert codes == {0, 1}  # "yes" and "no"
    assert golden["output"]["learn"][0] == 0


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(generate(), indent=1) + "\n")
