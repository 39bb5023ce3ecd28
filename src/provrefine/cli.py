"""Command-line front end.

Subcommands: ground (Datalog -> provenance), solve (refinement loop),
learn (hyperparameter fitting), likelihood (bound/exact evaluation), and
maxsat (solve or export instances).  The one randomized path, learn's
observation sampling, takes --seed (default 0), so identical invocations
produce identical output.

Exit codes: 0 success ("yes" for solve), 1 "no" / unsatisfiable,
2 parse or usage error, 3 integer domain overflow, 4 iteration or
budget limit.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
from itertools import accumulate

from . import __version__
from . import analysis as ana
from . import datalog
from . import hypergraph as hg
from . import learning
from . import likelihood as lk
from . import maxsat as mx
from . import probmodel as pm
from . import refine
from .errors import (BudgetExceeded, DomainOverflow, NotAModel,
                     ObservationOutOfRange, OracleLimitExceeded, ParseError,
                     ProvRefineError, SelfLoopArc)

FORMAT_VERSION = "1"

EXIT_OK = 0
EXIT_NO = 1
EXIT_PARSE = 2
EXIT_OVERFLOW = 3
EXIT_LIMIT = 4


def _write(path: str, text: str) -> None:
    """Write text to path; a file that cannot be written is an error naming
    it (`error: cannot write PATH: ...`, exit 2)."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ProvRefineError(f"cannot write {path}: {exc.strerror}") from exc


def _load_manifest(path: str) -> ana.Analysis:
    base_dir = os.path.dirname(path) or "."
    an = ana.read(path, lambda text: ana.parse_manifest(text, base_dir))
    if violations := ana.check_well_formed(an):
        raise ParseError(0, f"{path} is not well formed: " + "; ".join(violations))
    return an


def _parse_facts_file(text: str) -> tuple:
    """A `--facts` file's program, its facts checked against the domain."""
    rules, facts = datalog.parse_program(text)
    datalog.check_domain(facts)
    return rules, facts


def cmd_ground(args) -> int:
    if args.fixture:
        if (args.rules, args.facts, args.seeds) != (None, None, None):
            raise ParseError(0, "with --fixture, give no --rules, --facts or --seeds")
        graph = datalog.smudge_fixture().global_graph
    else:
        if not args.rules:
            raise ParseError(0, "need --rules or --fixture")
        rules, base = ana.read(args.rules, datalog.parse_program)
        if args.facts:
            extra_rules, extra = ana.read(args.facts, _parse_facts_file)
            if extra_rules:
                raise ParseError(0, f"{args.facts} contains rules, not just facts")
            base |= extra
        seeds = hg.parse_facts(args.seeds) if args.seeds else ()
        graph = ana.ground_program(args.rules, rules, base, seeds)
    text = hg.serialize_provenance(graph)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_solve(args) -> int:
    # with --fixture the one positional argument is the query
    if args.fixture:
        if args.query is not None:
            raise ParseError(0, "with --fixture, give only the query")
        an, query = datalog.smudge_fixture(), args.manifest
    elif args.manifest:
        an, query = _load_manifest(args.manifest), args.query
    else:
        raise ParseError(0, "need a manifest path or --fixture")
    if query is not None:
        query = hg.parse_fact(query)
    elif an.queries:
        query = min(an.queries, key=hg.Fact._key)
    else:
        raise ParseError(0, f"{args.manifest}: the analysis declares no query")
    if args.strategy == "probabilistic" and not args.theta:
        raise ParseError(0, "--strategy probabilistic needs --theta")
    hp = ana.read(args.theta, pm.parse_hyperparams) if args.theta else None
    cfg = refine.RefineConfig(
        strategy=args.strategy,
        alpha=args.alpha,
        hyperparams=hp,
        solver=args.solver,
        max_iterations=args.max_iters,
        solver_budget=args.budget,
    )
    outcome = refine.solve(an, query, cfg)
    for entry in outcome.trace:
        bits = [f"iter {entry['iteration']}:",
                "flips={%s}" % ",".join(entry.get("flips", []))]
        bits.append(f"strategy={args.strategy}")
        if "objective" in entry:
            bits.append(f"solver_objective={entry['objective']:.6f}")
        if "chosen" in entry:
            bits.append("chosen={%s}" % ",".join(entry["chosen"]))
        if "answer" in entry:
            bits.append(f"answer={entry['answer']}")
        print(" ".join(bits))
    print(f"answer: {outcome.answer}")
    return {"yes": EXIT_OK, "no": EXIT_NO, "limit": EXIT_LIMIT}[outcome.answer]


def cmd_learn(args) -> int:
    rng = random.Random(args.seed)
    sets = []
    for path in args.manifests:
        an = _load_manifest(path)
        if not an.params:
            raise ProvRefineError(f"{path}: the analysis has no parameters to flip")
        sets.append(learning.sample_training(an, args.n, args.max_flips, rng))
    if args.loo and len(sets) < 2:
        raise ProvRefineError("--loo needs at least two manifests")
    try:
        fits = (learning.leave_one_out(sets) if args.loo
                else [learning.learn(learning.TrainingSet.merge(sets))])
    except SelfLoopArc as exc:
        # the blueprints are taken in manifest order, so the first that
        # holds the arc is the one refused
        path = next(p for p, ts in zip(args.manifests, sets)
                    if exc.arc in ts.groups[0].blueprint.arcs)
        raise ProvRefineError(f"{path}: {exc}") from exc
    for i, hp in enumerate(fits):
        text = pm.serialize_hyperparams(hp)
        if args.out:
            _write(f"{args.out}.fold{i}" if args.loo else args.out, text)
        if args.loo:
            print(f"# fold {i} (held out: {args.manifests[i]})")
        sys.stdout.write(text)
    return EXIT_OK


def cmd_likelihood(args) -> int:
    index = hg.Index(ana.read(args.blueprint, hg.parse_provenance).arcs)
    obs = ana.read(args.obs, lk.parse_observations)
    hp = ana.read(args.theta, pm.parse_hyperparams)
    try:
        pm.validate_hyperparams(hp, index)
    except ProvRefineError as exc:
        raise ProvRefineError(f"{args.theta}: {exc}") from exc
    try:
        if args.mode == "exact":
            value = lk.exact_likelihood(index, obs, hp)
        else:
            bound = lk.lower_bound if args.mode == "lower" else lk.upper_bound
            value = bound(lk.bound_terms(index, obs), hp)
    except (SelfLoopArc, OracleLimitExceeded, ObservationOutOfRange) as exc:
        path = args.obs if isinstance(exc, ObservationOutOfRange) else args.blueprint
        raise ProvRefineError(f"{path}: {exc}") from exc
    print("-inf" if value == pm.NEG_INF else f"{value:.9f}")
    return EXIT_OK


# --- maxsat instance text format -------------------------------------------
# weight lines:  w NAME VALUE
# hard line:     hard (and (or x1 x2) (not x3))   [prefix notation]


_OPERATORS = {"and": (mx.and_, None), "or": (mx.or_, None), "not": (mx.not_, 1),
              "implies": (mx.implies, 2), "iff": (mx.iff, 2),
              "exists": (mx.exists, 2)}  # name -> (builder, arity or None)


def _pop(tokens: list) -> str:
    if not tokens:
        raise ValueError("unexpected end of formula")
    return tokens.pop()


def _parse_sexpr(tokens: list):
    """Read one formula off `tokens`, which holds the tokens in reverse
    order so that taking the next one is a pop from the end."""
    tok = _pop(tokens)
    if tok == ")":
        raise ValueError("unexpected ')'")
    if tok != "(":
        return {"true": mx.TRUE, "false": mx.FALSE}.get(tok, mx.var(tok))
    op = _pop(tokens)
    if op not in _OPERATORS:
        raise ValueError(f"unknown operator {op!r}")
    build, arity = _OPERATORS[op]
    args = []
    if op == "exists":
        if _pop(tokens) != "(":
            raise ValueError("exists needs a variable list")
        names = []
        while (name := _pop(tokens)) != ")":
            if name == "(":
                raise ValueError("unexpected '(' in a variable list")
            names.append(name)
        args.append(names)
    while tokens and tokens[-1] != ")":
        args.append(_parse_sexpr(tokens))
    _pop(tokens)  # the closing ')'
    if arity is not None and len(args) != arity:
        raise ValueError(f"{op} takes {arity} arguments, got {len(args)}")
    return build(*args)


def parse_maxsat_instance(text: str) -> mx.MaxSatInstance:
    weights = {}
    hard = None

    def entry(_, line):
        nonlocal hard
        if line.startswith("w "):
            parts = line.split()
            if len(parts) != 3:
                raise ValueError("expected 'w NAME VALUE'")
            _, name, value = parts
            if name in weights:
                raise ValueError(f"a second weight for {name!r}")
            try:
                weights[name] = float(value)
            except ValueError:
                raise ValueError(f"malformed weight {value!r}") from None
            if not math.isfinite(weights[name]):
                raise ValueError(f"weight {value!r} is not a finite number")
        elif line.startswith("hard "):
            if hard is not None:
                raise ValueError("a second hard line")
            tokens = line[5:].replace("(", " ( ").replace(")", " ) ").split()
            depths = accumulate((t == "(") - (t == ")") for t in tokens)
            if max(depths, default=0) > hg.MAX_NESTING:
                raise ValueError(f"formula nested deeper than {hg.MAX_NESTING} levels")
            tokens.reverse()
            hard = _parse_sexpr(tokens)
            if tokens:
                raise ValueError("trailing tokens after formula")
        else:
            raise ValueError(f"unexpected line {line!r}")

    hg.read_lines(text, entry)
    if hard is None:
        raise ParseError(0, "instance has no hard formula")
    return mx.MaxSatInstance(hard, weights)


def cmd_maxsat(args) -> int:
    cnf = mx.compile_instance(ana.read(args.instance, parse_maxsat_instance))
    if args.export_wcnf:
        sys.stdout.write(mx.to_wcnf(cnf))
        if args.varmap:
            _write(args.varmap, mx.serialize_varmap(cnf))
        return EXIT_OK
    if args.import_model:
        def decode(text):
            try:
                return mx.decode_external_model(cnf, text)
            except NotAModel as exc:  # an error of the whole file
                raise ParseError(0, str(exc)) from exc

        result = ana.read(args.import_model, decode)
    else:
        solve = mx.solve_approx if args.solve == "approx" else mx.solve_exact
        result = solve(cnf, budget=args.budget)
        if result is None:
            print("unsat")
            return EXIT_NO
    ids, objective = result
    print("model:", " ".join(sorted(cnf.shown(ids))))
    print(f"objective: {objective:.6f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="provrefine",
        description="probabilistic abstraction refinement over provenance hypergraphs")
    parser.add_argument("--version", action="version",
                        version=f"provrefine {__version__} (formats v{FORMAT_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ground", help="ground a Datalog program into provenance")
    p.add_argument("--rules")
    p.add_argument("--facts")
    p.add_argument("--seeds", help="facts, separated by commas or spaces, that rule "
                   "bodies may use but that get no arc")
    p.add_argument("--fixture", choices=["smudge"])
    p.add_argument("--out")
    p.set_defaults(func=cmd_ground)

    p = sub.add_parser("solve", help="run the refinement loop on a query")
    p.add_argument("manifest", nargs="?", help="manifest path; with --fixture, the query")
    p.add_argument("query", nargs="?")
    p.add_argument("--fixture", choices=["smudge"])
    p.add_argument("--strategy", default="pessimistic",
                   choices=refine.STRATEGIES)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--theta", help="hyperparameter file")
    p.add_argument("--solver", default="exact", choices=refine.SOLVERS)
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--budget", type=float, default=60.0)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("learn", help="fit hyperparameters from sampled runs")
    p.add_argument("manifests", nargs="+")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--max-flips", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--loo", action="store_true",
                   help="leave-one-program-out: one hyperparameter set per fold")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("likelihood", help="evaluate observation likelihood")
    p.add_argument("blueprint")
    p.add_argument("obs")
    p.add_argument("theta")
    p.add_argument("--mode", default="lower", choices=["lower", "upper", "exact"])
    p.set_defaults(func=cmd_likelihood)

    p = sub.add_parser("maxsat", help="solve or export a weighted instance")
    p.add_argument("instance")
    p.add_argument("--export-wcnf", action="store_true")
    p.add_argument("--varmap", help="where to write the variable map sidecar")
    p.add_argument("--import-model", help="decode an external solver's literals")
    p.add_argument("--solve", default="exact", choices=["exact", "approx"])
    p.add_argument("--budget", type=float, default=60.0)
    p.set_defaults(func=cmd_maxsat)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ProvRefineError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, DomainOverflow):
            return EXIT_OVERFLOW
        if isinstance(exc, BudgetExceeded):
            return EXIT_LIMIT
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
