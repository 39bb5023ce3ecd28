import itertools
import math
import random

import pytest

from provrefine import datalog
from provrefine import maxsat as mx
from provrefine import probmodel as pm
from provrefine import refine
from provrefine.errors import BudgetExceeded, NotAModel, ProvRefineError

import maxsat_reference as ref
from conftest import formula_objective, solve_formula


def _eval(f, assignment):
    kind = f[0]
    if kind == "const":
        return f[1]
    if kind == "var":
        return assignment[f[1]]
    if kind == "not":
        return not _eval(f[1], assignment)
    if kind == "and":
        return all(_eval(g, assignment) for g in f[1])
    if kind == "or":
        return any(_eval(g, assignment) for g in f[1])
    if kind == "implies":
        return (not _eval(f[1], assignment)) or _eval(f[2], assignment)
    if kind == "iff":
        return _eval(f[1], assignment) == _eval(f[2], assignment)
    if kind == "exists":
        names = sorted(f[1])
        for bits in itertools.product([False, True], repeat=len(names)):
            trial = dict(assignment)
            trial.update(zip(names, bits))
            if _eval(f[2], trial):
                return True
        return False
    raise ValueError(kind)


def brute_force_optimum(inst: mx.MaxSatInstance):
    """Best objective over all assignments to the visible variables."""
    names = sorted(set(inst.weights) | mx.formula_vars(inst.hard))
    best = None
    for bits in itertools.product([False, True], repeat=len(names)):
        assignment = dict(zip(names, bits))
        if not _eval(inst.hard, assignment):
            continue
        value = sum(w for v, w in inst.weights.items() if assignment.get(v))
        if best is None or value > best:
            best = value
    return best


def random_instance(rng, max_vars=6):
    """Names are `x<i>` or, now and then, `_aux<k>`, the form the Tseytin
    auxiliaries are named in.  An `exists` may stand anywhere: under a
    `not`, in an antecedent, on either side of an `iff`.  It binds one or
    two names, each a fresh `y<k>` or a name already in scope, free or
    bound further out, which it then shadows."""
    n = rng.randint(1, max_vars)
    names = sorted({f"_aux{rng.randint(1, 12)}" if rng.random() < 0.15
                    else f"x{i}" for i in range(n)})
    fresh = itertools.count()

    def go(depth, scope):
        if depth == 0 or rng.random() < 0.4:
            v = mx.var(rng.choice(scope))
            return mx.not_(v) if rng.random() < 0.5 else v
        op = rng.choice(["and", "or", "not", "implies", "iff", "exists"])
        if op == "exists":
            bound = {f"y{next(fresh)}" if rng.random() < 0.5
                     else rng.choice(scope) for _ in range(rng.randint(1, 2))}
            return mx.exists(bound, go(depth - 1, sorted(set(scope) | bound)))
        if op == "not":
            return mx.not_(go(depth - 1, scope))
        pair = (go(depth - 1, scope), go(depth - 1, scope))
        return {"and": mx.and_, "or": mx.or_, "implies": mx.implies,
                "iff": mx.iff}[op](*pair)

    hard = go(3, names)
    weights = {v: rng.uniform(-2, 2)
               for v in rng.sample(names, rng.randint(0, len(names)))}
    return mx.MaxSatInstance(hard, weights)


def test_random_instances_bind_names_everywhere():
    """The generator reaches every case the scoped compilation handles."""
    seen = set()

    def walk(f, polarity, scope, free):
        kind = f[0]
        if kind == "exists":
            seen.add(("polarity", polarity))
            if f[1] & free:
                seen.add("shadows a free name")
            if f[1] & scope:
                seen.add("shadows a bound name")
            walk(f[2], polarity, scope | f[1], free)
        elif kind == "not":
            walk(f[1], -polarity, scope, free)
        elif kind in ("and", "or"):
            for g in f[1]:
                walk(g, polarity, scope, free)
        elif kind == "implies":
            walk(f[1], -polarity, scope, free)
            walk(f[2], polarity, scope, free)
        elif kind == "iff":
            walk(f[1], 0, scope, free)
            walk(f[2], 0, scope, free)

    rng = random.Random(13)
    for _ in range(120):
        inst = random_instance(rng)
        walk(inst.hard, 1, frozenset(), mx.formula_vars(inst.hard))
    assert seen == {("polarity", 1), ("polarity", -1), ("polarity", 0),
                    "shadows a free name", "shadows a bound name"}


def test_exists_is_scoped_and_quantified_where_it_stands():
    x, y = mx.var("x"), mx.var("y")
    cases = [
        # nothing satisfies y, so its negation holds for no model
        (mx.not_(mx.exists(["y"], y)), {}, None),
        (mx.implies(mx.exists(["y"], y), x), {"x": -1.0}, -1.0),
        (mx.iff(mx.exists(["y"], mx.and_(y, mx.not_(y))), x), {"x": 1.0}, 0.0),
        # the bound x is not the free, weighted one
        (mx.and_(mx.exists(["x"], mx.not_(x)), x), {"x": 1.0}, 1.0),
        (mx.and_(mx.exists(["x"], x), mx.exists(["x"], mx.not_(x))),
         {"x": -1.0}, 0.0),
        (mx.not_(mx.exists(["x"], mx.and_(x, mx.not_(mx.exists(["x"], x))))),
         {}, 0.0),
    ]
    for hard, weights, expect in cases:
        inst = mx.MaxSatInstance(hard, weights)
        assert brute_force_optimum(inst) == expect
        got = solve_formula(mx.solve_exact, inst)
        assert (got if got is None else got[1]) == expect, hard


def test_compiled_names_are_distinct():
    """A hidden id named like another id gets `@<id>` appended; the
    variables of the formula keep their names."""
    a, b, c, aux5 = (mx.var(n) for n in ("a", "b", "c", "_aux5"))
    cnf = mx.compile_instance(mx.MaxSatInstance(
        mx.and_(mx.or_(c, aux5), mx.not_(mx.or_(a, b))), {"c": 1.0}))
    assert cnf.names[1] == "_aux5" and cnf.names[5] == "_aux5@5"
    rng = random.Random(5)
    for _ in range(200):
        inst = random_instance(rng)
        cnf = mx.compile_instance(inst)
        assert len(set(cnf.names.values())) == len(cnf.names)
        shown = {cnf.names[i] for i in cnf.names if i not in cnf.hidden}
        assert shown == set(inst.weights) | mx.formula_vars(inst.hard)


def test_expanding_exists_is_bounded():
    ys = [f"y{i}" for i in range(13)]
    hard = mx.not_(mx.exists(ys, mx.and_(*map(mx.var, ys))))
    with pytest.raises(ValueError, match="exists"):
        mx.compile_instance(mx.MaxSatInstance(hard, {}))
    ys = ys[:12]  # 4096 copies of a small body still compile
    hard = mx.not_(mx.exists(ys, mx.and_(*map(mx.var, ys))))
    assert solve_formula(mx.solve_exact, mx.MaxSatInstance(hard, {})) is None


def test_formula_constructors_flatten_and_simplify():
    a, b = mx.var("a"), mx.var("b")
    assert _eval(mx.and_(), {}) is True
    assert _eval(mx.or_(), {}) is False
    f = mx.and_(a, mx.and_(b, a))
    assert mx.formula_vars(f) == {"a", "b"}


def test_exact_matches_brute_force():
    rng = random.Random(13)
    for _ in range(120):
        inst = random_instance(rng)
        expect = brute_force_optimum(inst)
        got = solve_formula(mx.solve_exact, inst)
        if expect is None:
            assert got is None
        else:
            model, objective = got
            assert objective == pytest.approx(expect, abs=1e-9)
            assert objective == pytest.approx(formula_objective(inst, model), abs=1e-9)


def test_exact_handles_unsat():
    x = mx.var("x")
    assert mx.solve_exact(mx.compile_instance(
        mx.MaxSatInstance(mx.and_(x, mx.not_(x)), {}))) is None


def test_exact_prefers_earlier_weighted_variables_on_ties():
    # two disjoint ways to earn the same weight: pick the first by name
    a, b = mx.var("a"), mx.var("b")
    inst = mx.MaxSatInstance(mx.or_(a, b), {"a": 1.0, "b": 1.0})
    model, objective = solve_formula(mx.solve_exact, inst)
    assert objective == pytest.approx(2.0)  # both can be true here
    inst = mx.MaxSatInstance(
        mx.and_(mx.or_(a, b), mx.not_(mx.and_(a, b))), {"a": 1.0, "b": 1.0})
    model, _ = solve_formula(mx.solve_exact, inst)
    assert "a" in model and "b" not in model


def test_exact_is_deterministic():
    rng = random.Random(4)
    for _ in range(20):
        cnf = mx.compile_instance(random_instance(rng))
        assert mx.solve_exact(cnf) == mx.solve_exact(cnf)


def test_exists_hides_auxiliary_variables():
    a, y = mx.var("a"), mx.var("y")
    inst = mx.MaxSatInstance(mx.exists(["y"], mx.iff(y, a)), {"a": 1.0})
    model, objective = solve_formula(mx.solve_exact, inst)
    assert objective == pytest.approx(1.0)
    assert "y" not in model


def test_approx_returns_valid_models():
    rng = random.Random(77)
    for i in range(60):
        inst = random_instance(rng)
        got = solve_formula(mx.solve_approx, inst, budget=5.0)
        expect = brute_force_optimum(inst)
        if expect is None:
            assert got is None
        else:
            model, objective = got
            assert objective == pytest.approx(formula_objective(inst, model), abs=1e-9)
            assert objective <= expect + 1e-9


def test_budget_exceeded_raises():
    rng = random.Random(1)
    cnf = mx.compile_instance(random_instance(rng, max_vars=6))
    with pytest.raises(BudgetExceeded):
        mx.solve_exact(cnf, budget=0.0)


@pytest.mark.parametrize("solve", [mx.solve_exact, mx.solve_approx])
def test_nan_budget_is_rejected(solve):
    # monotonic() > nan is never true, so the search would never time out;
    # a negative budget is rejected alike
    cnf = mx.compile_instance(random_instance(random.Random(1), max_vars=6))
    for budget in (float("nan"), -1.0):
        with pytest.raises(ValueError, match="budget"):
            solve(cnf, budget=budget)
        with pytest.raises(ValueError, match="budget"):
            solve(mx.ClauseInstance(1, [(1,)], {1: 1.0}, {1: "x"}),
                  budget=budget)


def _independent_sets(n=60, seed=3):
    """Maximum-weight independent set on a random graph: B&B needs many nodes."""
    rng = random.Random(seed)
    xs = [mx.var(f"x{i:02d}") for i in range(n)]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.1]
    hard = mx.and_(*[mx.not_(mx.and_(xs[i], xs[j])) for i, j in edges])
    return mx.MaxSatInstance(hard, {f"x{i:02d}": rng.uniform(1, 2) for i in range(n)})


def test_anytime_on_an_instance_too_hard_for_the_budget():
    cnf = mx.compile_instance(_independent_sets())
    with pytest.raises(BudgetExceeded):
        mx.solve_exact(cnf, budget=0.05)
    try:
        model, objective = mx.solve_approx(cnf, budget=0.05)
    except BudgetExceeded:
        return
    assert objective == cnf.objective(model)
    # the model satisfies every clause, read back as an external solver's
    text = " ".join(str(v) for v in sorted(model))
    assert mx.decode_external_model(cnf, text) == (model, objective)


def test_approx_is_exact_when_the_budget_suffices():
    rng = random.Random(8)
    for _ in range(40):
        cnf = mx.compile_instance(random_instance(rng))
        assert mx.solve_approx(cnf) == mx.solve_exact(cnf)


def test_objective_sum_is_exact():
    cnf = mx.compile_instance(
        mx.MaxSatInstance(mx.TRUE, {"a": 1e16, "b": 1.0, "c": -1e16}))
    assert cnf.objective([1, 2, 3]) == 1.0  # a plain sum gives 0.0


@pytest.mark.hashseed
def test_objective_is_the_same_in_every_build_order_of_the_model():
    """`fsum` overflows mid-way when 1e308 and 9e307 come before -1e308,
    and which comes first follows the order the model's frozenset was
    built in; the sum itself, 9e307, is in range.  A sum outside the
    range still raises."""
    inst = mx.ClauseInstance(9, [], {1: 1e308, 5: 9e307, 9: -1e308},
                             {v: f"x{v}" for v in range(1, 10)})
    for order in itertools.permutations([1, 5, 9]):
        assert inst.objective(frozenset(order)) == 9e307, order
    with pytest.raises(ProvRefineError, match="float range"):
        inst.objective(frozenset([1, 5]))


def test_exact_matches_reference_solver():
    rng = random.Random(2024)
    for i in range(400):
        cnf = mx.compile_instance(
            random_instance(rng, max_vars=12 if i % 4 == 0 else 6))
        assert mx.solve_exact(cnf) == ref.solve_exact(cnf)


def test_exact_matches_reference_on_smudge_queries(monkeypatch):
    an = datalog.smudge_fixture()
    query = next(iter(sorted(an.queries)))
    theta = pm.HyperParams(datalog.smudge_theta())
    solve_exact = mx.solve_exact
    seen = []

    def recording(inst, budget=60.0):
        seen.append(inst)
        return solve_exact(inst, budget)

    monkeypatch.setattr(mx, "solve_exact", recording)
    for strategy in ("pessimistic", "optimistic", "probabilistic"):
        refine.solve(an, query, refine.RefineConfig(strategy=strategy,
                                                    hyperparams=theta))
    assert len(seen) >= 5
    for inst in seen:
        assert solve_exact(inst) == ref.solve_exact(inst)


# weight palettes whose sums depend on the order they are added in
_NEAR_TIE_PALETTES = {
    "equal": lambda rng: [rng.choice([1, -1]) * rng.choice([0.1, 1 / 3, 0.7])
                          * rng.choice([1.0, 1e3, 1e5])],
    "decimal": lambda rng: [x * rng.choice([1.0, 1e4, 1e5])
                            for x in (0.1, 0.2, 0.3, -0.1, -0.2, -0.3)],
    "cancel": lambda rng: [1e16, -1e16, 1.0, -1.0, 2.0, 3.0],
    "overflow": lambda rng: [1e308, -1e308, 9e307, 1.0, -1.0],
}


def _near_tie_instance(rng, palette):
    """A binary-heavy CNF with weights drawn from a palette, stored in an
    order other than id order, so that running sums and in-order sums
    add the same weights in different orders."""
    nvars = rng.randint(3, 10)
    clauses = _random_cnf(rng, nvars, sizes=(2, 2, 2, 3))
    values = _NEAR_TIE_PALETTES[palette](rng)
    ids = rng.sample(range(1, nvars + 1), rng.randint(1, nvars))
    weights = {v: rng.choice(values) for v in ids}
    return mx.ClauseInstance(nvars, clauses, weights,
                             {v: f"x{v}" for v in range(1, nvars + 1)})


def _outcome(solve, inst):
    try:
        return solve(inst)
    except ProvRefineError as exc:
        if "float range" not in str(exc):
            raise
        return "overflow"


@pytest.mark.parametrize("palette", sorted(_NEAR_TIE_PALETTES))
def test_exact_matches_reference_where_sums_depend_on_their_order(palette):
    """The search decides on running sums only where they clear a threshold
    by far more than their rounding error; near a tie the in-order sums
    decide, as in the reference solver."""
    rng = random.Random(f"near-tie:{palette}")
    order_dependent = 0
    for _ in range(150):
        inst = _near_tie_instance(rng, palette)
        got = _outcome(mx.solve_exact, inst)
        assert got == _outcome(ref.solve_exact, inst)
        ws = list(inst.weights.values())
        try:
            order_dependent += not abs(
                ref.sum_in_order(ws) - math.fsum(ws)) <= 1e-12
        except OverflowError:  # fsum overflows where some order does not
            order_dependent += 1
    assert order_dependent  # the palette does reach order-dependent sums


@pytest.mark.parametrize("solve", [mx.solve_exact, mx.solve_approx,
                                   ref.solve_exact])
def test_the_in_order_sums_add_left_to_right(solve):
    """The search adds weights left to right in their stored order on every
    Python version: 1e16 + 1.0 - 1e16 is 0.0 so, where a compensated sum,
    as `sum` takes of floats from Python 3.12 on, gives 1.0.  So x4 alone
    (0.5) beats x1, x2 and x3 together, which an exact sum would prefer."""
    weights = {1: 1e16, 2: 1.0, 3: -1e16, 4: 0.5}
    # x1, x2 and x3 all or none, and exactly one of x1 and x4
    clauses = [(-1, 2), (-2, 3), (-3, 1), (1, 4), (-1, -4)]
    inst = mx.ClauseInstance(4, clauses, weights,
                             {v: f"x{v}" for v in weights})
    assert ref.sum_in_order([1e16, 1.0, -1e16]) == 0.0
    assert math.fsum([1e16, 1.0, -1e16]) == 1.0
    assert solve(inst) == (frozenset({4}), 0.5)


# weight pools under which the bound refutes many children: equal weights,
# two levels, mixed signs, near-ties of both signs, weights below `tol`
_REFUTING_POOLS = {
    "unit": [-1.0],
    "two levels": [-1.0, -2.0],
    "mixed signs": [-1.0, 1.0],
    "decimal": [0.1, 0.2, 0.3, -0.1, -0.2, -0.3],
    "below tol": [1e-13, -1e-13],
}


@pytest.mark.parametrize("pool", sorted(_REFUTING_POOLS))
def test_refuting_search_matches_reference(pool):
    """Forcing and skipping leave out only children that the bound prunes
    on entry, so the search keeps the reference's leaves, its incumbents
    and its set-lex tie-break: 400 instances per pool, 2 000 in all."""
    rng = random.Random(f"refuted:{pool}")
    values = _REFUTING_POOLS[pool]
    ties = 0
    for _ in range(400):
        nvars = rng.randint(2, 10)
        clauses = _random_cnf(rng, nvars, sizes=(1, 2, 2, 3, 3, 4))
        ids = rng.sample(range(1, nvars + 1), rng.randint(1, nvars))
        weights = {v: rng.choice(values) for v in ids}
        # names in an order other than id order, so the tie-break matters
        labels = rng.sample(range(nvars), nvars)
        names = {v: f"x{labels[v - 1]}" for v in range(1, nvars + 1)}
        inst = mx.ClauseInstance(nvars, clauses, weights, names)
        got = mx.solve_exact(inst)
        assert got == ref.solve_exact(inst), (pool, inst)
        ties += got is not None and len(set(weights.values())) < len(weights)
    assert ties  # the pool does reach optima among equal weights


def test_a_bound_past_the_float_range_refutes_nothing():
    """Past 1e300 the running sums may overflow to inf or NaN, and every
    decision takes the in-order sums.  Forcing and skipping then compare
    against a bar less an infinite margin, which nothing falls below.  On
    this instance, found by random search, a NaN bound read as refuting
    forced the better values of ids that the optimum holds at their worse."""
    clauses = [(-3, 7, 8, 7), (-5, -5, -5, 1), (-6, -1), (-8, -8, 7), (4, 4),
               (7, -4, -7), (5, 7, 5), (3, -3, 1), (4, -4), (8, 3)]
    weights = {7: -1.0, 1: 9e307, 4: -1.0, 6: 1e308, 3: -1.0, 2: -1.0}
    inst = mx.ClauseInstance(8, clauses, weights,
                             {v: f"x{v}" for v in range(1, 9)})
    assert mx.solve_exact(inst) == ref.solve_exact(inst) == (
        frozenset({2, 3, 4, 6, 7}), 1e308)


def _count_propagations(monkeypatch) -> list:
    calls = []
    propagate = mx._Engine.propagate

    def counting(self):
        calls.append(None)
        return propagate(self)

    monkeypatch.setattr(mx._Engine, "propagate", counting)
    return calls


@pytest.mark.parametrize("n", [10, 20, 40])
def test_forcing_keeps_a_tie_search_linear(monkeypatch, n):
    """n ids of weight -1 under (x1 or ... or xn): every leaf with one true
    id ties the incumbent, and each smaller set-lex key beats it, so the
    search visits n leaves.  Below each, the bound refutes every other
    id's True value, which forcing assigns False in one step: linear in n,
    where entering each refuted child is quadratic (n = 40: 1 639
    propagations, against 118)."""
    calls = _count_propagations(monkeypatch)
    names = {v: f"x{v:02d}" for v in range(1, n + 1)}
    inst = mx.ClauseInstance(n, [tuple(range(1, n + 1))],
                             {v: -1.0 for v in names}, names)
    assert mx.solve_exact(inst) == (frozenset({1}), -1.0)
    assert len(calls) <= 4 * n


def test_skipping_never_enters_a_child_a_later_incumbent_refutes(
        monkeypatch):
    """With no clause, the first leaf (every id False) is the optimum.
    Each frame on its path was pushed before any incumbent, and its True
    value costs 1 below that leaf: skipped on the way back, it is never
    assigned, so the search propagates once at the root and once a step."""
    n = 12
    calls = _count_propagations(monkeypatch)
    names = {v: f"x{v:02d}" for v in range(1, n + 1)}
    inst = mx.ClauseInstance(n, [], {v: -1.0 for v in names}, names)
    assert mx.solve_exact(inst) == (frozenset(), 0.0)
    assert len(calls) == n + 1


def _random_cnf(rng, nvars, sizes=(1, 2, 2, 3, 3, 4)):
    """Clauses including units, repeated literals and tautologies."""
    clauses = []
    for _ in range(rng.randint(1, 3 * nvars)):
        k = rng.choice(sizes)
        clause = [rng.choice([-1, 1]) * rng.randint(1, nvars) for _ in range(k)]
        if rng.random() < 0.15:
            clause.append(clause[0])
        if rng.random() < 0.1:
            clause.append(-clause[0])
        rng.shuffle(clause)
        clauses.append(tuple(clause))
    return clauses


def _binary_cnf(rng, nvars):
    """Units and two-literal clauses only: `(a, a)`, `(a, -a)` and repeats
    of earlier clauses among them."""
    clauses = []
    for _ in range(rng.randint(1, 3 * nvars)):
        a = rng.choice([-1, 1]) * rng.randint(1, nvars)
        roll = rng.random()
        if roll < 0.1:
            clauses.append((a,))
        elif roll < 0.2:
            clauses.append((a, a))
        elif roll < 0.3:
            clauses.append((a, -a))
        elif roll < 0.4 and clauses:
            clauses.append(rng.choice(clauses))
        else:
            clauses.append((a, rng.choice([-1, 1]) * rng.randint(1, nvars)))
    return clauses


def _engine_assignment(engine, nvars):
    return {v: engine.val[v] > 0 for v in range(1, nvars + 1) if engine.val[v]}


def _binary_heavy_cnf(rng, nvars):
    return _random_cnf(rng, nvars, sizes=(1, 2, 2, 2, 2, 2, 2, 3))


def test_engine_propagation_matches_full_scan():
    """Mixed, binary-only and binary-heavy CNFs: binary clauses propagate
    through implication lists, longer ones through watched positions."""
    for make_cnf in (_random_cnf, _binary_cnf, _binary_heavy_cnf):
        assert _engine_against_full_scan(make_cnf) == {
            "root conflict", "conflict after assignments", "(a, a)",
            "(a, -a)", "repeated clause"}, make_cnf.__name__


def _engine_against_full_scan(make_cnf) -> set:
    """Check the engine against full-scan propagation on 500 CNFs; the
    cases they reached."""
    rng = random.Random(99)
    seen = set()
    for _ in range(500):
        nvars = rng.randint(1, 8)
        clauses = make_cnf(rng, nvars)
        engine = mx._Engine(nvars, clauses)
        expect = {}
        ok = ref.propagate(clauses, expect)
        assert engine.ok == ok
        if not ok:
            seen.add("root conflict")
            continue
        assert _engine_assignment(engine, nvars) == expect
        lits, marks = [], []
        for v in rng.sample(range(1, nvars + 1), nvars):
            if v in expect:
                continue
            lit = v if rng.random() < 0.5 else -v
            marks.append((engine.mark(), dict(expect)))
            lits.append(lit)
            expect[v] = lit > 0
            ok = ref.propagate(clauses, expect)
            assert (engine.assign(lit) and engine.propagate()) == ok
            if not ok:
                seen.add("conflict after assignments")
                break
            assert _engine_assignment(engine, nvars) == expect
        # undo restores every earlier fixpoint, and propagation still agrees
        for mark, before in reversed(marks):
            engine.undo(mark)
            assert _engine_assignment(engine, nvars) == before
            assert engine.propagate()
            assert _engine_assignment(engine, nvars) == before
        # and so does undoing from the deepest point straight to each mark
        for mark, before in marks:
            for lit in lits:
                if not (engine.assign(lit) and engine.propagate()):
                    break
            engine.undo(mark)
            assert _engine_assignment(engine, nvars) == before
            assert engine.propagate()
            assert _engine_assignment(engine, nvars) == before
        for clause in clauses:
            if len(clause) == 2 and clause[0] == clause[1]:
                seen.add("(a, a)")
            elif len(clause) == 2 and clause[0] == -clause[1]:
                seen.add("(a, -a)")
        if len(set(clauses)) < len(clauses):
            seen.add("repeated clause")
    return seen


def _extend(clauses, assign, all_vars):
    """Complete a partial assignment to satisfy every clause, if possible."""
    for clause in clauses:
        vals = [assign.get(abs(l), None) if l > 0 else
                (None if assign.get(abs(l)) is None else not assign[abs(l)])
                for l in clause]
        if any(v is True for v in vals):
            continue
        if all(v is False for v in vals):
            return None
    free = [v for v in all_vars if v not in assign]
    if not free:
        return assign
    v = free[0]
    for value in (False, True):
        trial = dict(assign)
        trial[v] = value
        done = _extend(clauses, trial, all_vars)
        if done is not None:
            return done
    return None


def test_wcnf_round_trip_preserves_optimum(tmp_path):
    rng = random.Random(31)
    for _ in range(30):
        inst = random_instance(rng)
        cnf = mx.compile_instance(inst)
        wcnf = mx.to_wcnf(cnf)
        assert wcnf.startswith("p wcnf ")
        back = {int(i): name for i, name in map(
            str.split, mx.serialize_varmap(cnf).splitlines())}
        assert back == cnf.names
        expect = brute_force_optimum(inst)
        if expect is None:
            continue
        # pretend an external solver returned our own exact model: fix the
        # shown variables and search for matching hidden values
        model, objective = mx.solve_exact(cnf)
        cnf_vars = sorted(cnf.names)
        visible = {v: v in model for v in cnf_vars if v not in cnf.hidden}
        clauses = [
            [int(tok) for tok in line.split()[1:-1]]
            for line in wcnf.splitlines()[1:]
            if line.split()[0] == wcnf.split()[4]]
        full = _extend(clauses, dict(visible), cnf_vars)
        assert full is not None
        lits = " ".join(str(vid if full.get(vid) else -vid)
                        for vid in cnf_vars)
        decoded, value = mx.decode_external_model(cnf, "v " + lits)
        assert value == pytest.approx(objective, abs=1e-6)


def test_decode_external_model_rejects_hard_violations():
    x = mx.var("x")
    cnf = mx.compile_instance(mx.MaxSatInstance(x, {"x": 1.0}))
    xid = {name: i for i, name in cnf.names.items()}["x"]
    with pytest.raises(NotAModel):
        mx.decode_external_model(cnf, f"v -{xid}")
