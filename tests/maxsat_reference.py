"""Reference MaxSAT solver: full-scan propagation and dict-copying search.

The straightforward version of `provrefine.maxsat`'s branch and bound, kept
as the oracle its propagation engine and running sums are checked against:
it re-sums the objective in weight order, left to right, at every node.  It
visits the same search tree, so both must return identical models.
"""

import time
from typing import Optional

from provrefine import maxsat as mx
from provrefine.errors import BudgetExceeded


def propagate(clauses, assign: dict):
    """Unit propagation; returns False on conflict, else True.

    `assign` maps var id -> bool and is extended in place.
    """
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            unassigned = None
            satisfied = False
            count = 0
            for lit in clause:
                v = abs(lit)
                want = lit > 0
                if v in assign:
                    if assign[v] == want:
                        satisfied = True
                        break
                else:
                    unassigned = lit
                    count += 1
            if satisfied:
                continue
            if count == 0:
                return False
            if count == 1:
                v = abs(unassigned)
                assign[v] = unassigned > 0
                changed = True
    return True


def dpll_complete(clauses, assign: dict, order: list,
                  deadline: float) -> Optional[dict]:
    """Deterministic satisfiability search; branches False first."""
    assign = dict(assign)
    if not propagate(clauses, assign):
        return None
    for v in order:
        if v not in assign:
            if time.monotonic() > deadline:
                raise BudgetExceeded("satisfiability completion timed out")
            for value in (False, True):
                trial = dict(assign)
                trial[v] = value
                result = dpll_complete(clauses, trial, order, deadline)
                if result is not None:
                    return result
            return None
    return assign


def sum_in_order(values) -> float:
    """values added left to right, as `sum` adds them before Python 3.12,
    which compensates float sums."""
    total = 0
    for x in values:
        total += x
    return total


def _weighted_set_key(names: dict, model_ids: set, weighted: list) -> tuple:
    index = {v: i for i, v in enumerate(sorted(weighted, key=lambda v: names[v]))}
    return tuple(sorted(index[v] for v in model_ids if v in index))


def solve_exact(inst: mx.ClauseInstance, budget: float = 60.0):
    """Optimal (true ids, objective), or None when unsatisfiable."""
    deadline = time.monotonic() + budget
    clauses, weights, names = inst.clauses, inst.weights, inst.names
    ids = range(1, inst.nvars + 1)
    weighted = sorted(weights, key=lambda v: (-abs(weights[v]), names[v]))
    others = sorted(v for v in ids if v not in weights)
    tol = 1e-12

    best = {"objective": None, "key": None, "assign": None}

    def record(assign: dict, objective: float) -> None:
        model_ids = {v for v, val in assign.items() if val}
        key = _weighted_set_key(names, model_ids, weighted)
        if (best["objective"] is None
                or objective > best["objective"] + tol
                or (abs(objective - best["objective"]) <= tol
                    and key < best["key"])):
            best["objective"] = objective
            best["key"] = key
            best["assign"] = assign

    def search(assign: dict) -> None:
        if time.monotonic() > deadline:
            raise BudgetExceeded("exact solver timed out")
        assign = dict(assign)
        if not propagate(clauses, assign):
            return
        objective = sum_in_order(
            w for v, w in weights.items() if assign.get(v, False))
        slack = sum_in_order(
            max(0.0, w) for v, w in weights.items() if v not in assign)
        if best["objective"] is not None and objective + slack < best["objective"] - tol:
            return
        pending = [v for v in weighted if v not in assign]
        if not pending:
            if best["objective"] is not None:
                if objective < best["objective"] - tol:
                    return
                if abs(objective - best["objective"]) <= tol:
                    model_ids = {v for v in weights if assign.get(v, False)}
                    if _weighted_set_key(names, model_ids, weighted) >= best["key"]:
                        return
            completion = dpll_complete(clauses, assign, others, deadline)
            if completion is not None:
                for v in ids:
                    completion.setdefault(v, False)
                record(completion, objective)
            return
        v = pending[0]
        first = weights[v] > 0
        for value in (first, not first):
            trial = dict(assign)
            trial[v] = value
            search(trial)

    search({})
    if best["assign"] is None:
        return None
    model = frozenset(v for v, val in best["assign"].items() if val)
    return model, inst.objective(model)
