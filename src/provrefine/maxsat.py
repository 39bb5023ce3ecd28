"""MaxSAT with per-variable real weights over a CNF of integer ids.

The task: among models of a hard constraint, maximize the summed weight
of the true variables.  The one instance form is a `ClauseInstance`, a
CNF over ids 1..n that a caller such as the refinement encoding emits
directly.  A `MaxSatInstance`, a hard formula over named variables, is
compiled to one once by `compile_instance` (the Tseytin transformation);
its auxiliary and existentially quantified variables carry weight zero
and are hidden from the names a model shows.  An `exists` binds its names
in its body alone, to fresh ids where it occurs only positively, and is
expanded over their values elsewhere.  One deterministic branch
and bound serves both entry points: `solve_exact` returns a proven
optimum or raises BudgetExceeded, and `solve_approx` returns the best
model found when the budget runs out.  Both return sets of true ids.
Its propagation engine keeps binary clauses as implication lists and
longer ones on two watched literals, with a trail that undoes by slice;
the search carries each node's bound and branch position on its frames,
so a node costs what it assigns, not a pass over the instance.  Once it
has an incumbent, the search never enters a child that the bound would
prune on entry (node consistency, as in weighted CSP): it assigns in
one step the better values of the ids whose worse value alone takes the
bound below the incumbent (forcing), and on the way back it skips a
worse value that an incumbent found since refutes (skipping).  Its tree
is the plain search's tree less those children, so it examines the same
leaves in the same order.  A DIMACS WCNF bridge hands instances to
external solvers and reads their models back.
"""

from __future__ import annotations

import itertools
import math
import re
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import BudgetExceeded, NotAModel, ProvRefineError

# ---------------------------------------------------------------------------
# formulas

TRUE = ("const", True)
FALSE = ("const", False)


def var(name: str):
    return ("var", name)


def not_(f):
    return ("not", f)


def and_(*fs):
    return ("and", tuple(fs))


def or_(*fs):
    return ("or", tuple(fs))


def implies(a, b):
    return ("implies", a, b)


def iff(a, b):
    return ("iff", a, b)


def exists(names: Iterable[str], f):
    return ("exists", frozenset(names), f)


def formula_vars(f) -> set:
    kind = f[0]
    if kind == "var":
        return {f[1]}
    if kind == "const":
        return set()
    if kind == "not":
        return formula_vars(f[1])
    if kind in ("and", "or"):
        out = set()
        for g in f[1]:
            out |= formula_vars(g)
        return out
    if kind in ("implies", "iff"):
        return formula_vars(f[1]) | formula_vars(f[2])
    if kind == "exists":
        return formula_vars(f[2]) - f[1]
    raise ValueError(f"unknown formula node {kind!r}")


@dataclass
class MaxSatInstance:
    hard: object  # BoolFormula tree
    weights: dict = field(default_factory=dict)


@dataclass
class ClauseInstance:
    """A hard CNF over ids 1..nvars, with real weights on some ids.

    `clauses` are tuples of nonzero ints, -v meaning "v is false".
    `weights` holds the nonzero weights, in the order the search sums
    them, left to right; `names` names every weighted id, for the branching
    order and the set-lex tie-break, and a compiled formula names every
    id.  Models are sets of true ids, auxiliaries included; `shown` gives
    the names of a model's ids that are not `hidden`.
    """

    nvars: int
    clauses: list
    weights: dict
    names: dict
    hidden: frozenset = frozenset()

    def objective(self, model: Iterable[int]) -> float:
        """The weights' correctly rounded sum, in any order of the ids: taken
        exactly where a partial sum of `fsum` leaves the float range."""
        ws = [self.weights.get(v, 0.0) for v in model]
        try:
            return math.fsum(ws)
        except OverflowError:
            from fractions import Fraction
            try:
                return float(sum(map(Fraction, ws)))
            except OverflowError:
                raise ProvRefineError(
                    "the weights of the model sum past the float range") from None

    def shown(self, ids: Iterable[int]) -> frozenset:
        return frozenset(self.names[i] for i in ids if i not in self.hidden)


# ---------------------------------------------------------------------------
# Tseytin compilation


# the most copies of one subformula that expanding `exists` under a
# negation may make: its names are then universally quantified, and a CNF
# can only state each of their values in a copy of its own
MAX_EXPANSION = 1 << 12


class _CNF:
    """Clauses under construction: ids count up from 1, each named in
    `names`; `hidden` holds the ids a model does not show."""

    def __init__(self):
        self.names = {}  # id -> name, `_aux<id>` for an auxiliary
        self.hidden = set()  # ids not reported in models (aux + exists)
        self.clauses = []
        self.true = None  # a literal fixed true, made at its first use

    def new_var(self, name: Optional[str] = None, hidden: bool = True) -> int:
        i = len(self.names) + 1
        self.names[i] = f"_aux{i}" if name is None else name
        if hidden:
            self.hidden.add(i)
        return i

    def constant(self, value: bool) -> int:
        if self.true is None:
            self.true = self.new_var()
            self.add(self.true)
        return self.true if value else -self.true

    def add(self, *lits: int) -> None:
        self.clauses.append(tuple(lits))

    def gate(self, kind: str, lits: list) -> int:
        """A new id equivalent to the and/or of lits."""
        out = self.new_var()
        if kind == "and":
            for l in lits:
                self.add(-out, l)
            self.add(out, *[-l for l in lits])
        else:
            for l in lits:
                self.add(-l, out)
            self.add(-out, *lits)
        return out


def _tseytin(f, cnf: _CNF, scope: dict, polarity: int, copies: int) -> int:
    """Return a literal equivalent to f, adding definitional clauses.

    `scope` maps each name in scope to a one-element list holding its id,
    or None for a name an `exists` binds until its first use.  `polarity`
    is 1 where f occurs only positively, -1 only negatively and 0 both
    ways; `copies` counts the copies of f that expansion has made.  An
    `exists` that occurs only positively binds each name to a fresh hidden
    id; elsewhere it is expanded into the `or` of its body under every
    value of its names."""
    kind = f[0]
    if kind == "const":
        lit = cnf.new_var()
        cnf.add(lit if f[1] else -lit)
        return lit
    if kind == "var":
        cell = scope[f[1]]
        if cell[0] is None:  # bound by an `exists`: its id comes at first use
            cell[0] = cnf.new_var(f[1])
        return cell[0]
    if kind == "not":
        return -_tseytin(f[1], cnf, scope, -polarity, copies)
    if kind == "and" or kind == "or":
        return cnf.gate(kind, [_tseytin(g, cnf, scope, polarity, copies)
                               for g in f[1]])
    if kind == "implies":
        a = _tseytin(f[1], cnf, scope, -polarity, copies)
        b = _tseytin(f[2], cnf, scope, polarity, copies)
        out = cnf.new_var()
        cnf.add(-out, -a, b)
        cnf.add(out, a)
        cnf.add(out, -b)
        return out
    if kind == "iff":
        a = _tseytin(f[1], cnf, scope, 0, copies)
        b = _tseytin(f[2], cnf, scope, 0, copies)
        out = cnf.new_var()
        cnf.add(-out, -a, b)
        cnf.add(-out, a, -b)
        cnf.add(out, a, b)
        cnf.add(out, -a, -b)
        return out
    if kind == "exists":
        names = sorted(f[1])
        outer = {n: scope.get(n) for n in names}
        if polarity == 1:
            scope.update((n, [None]) for n in names)
            lit = _tseytin(f[2], cnf, scope, polarity, copies)
        else:
            copies <<= len(names)
            if copies > MAX_EXPANSION:
                raise ValueError(
                    f"an exists under a negation or iff expands to more than "
                    f"{MAX_EXPANSION} copies of a subformula")
            lits = []
            for values in itertools.product((False, True), repeat=len(names)):
                scope.update((n, [cnf.constant(v)])
                             for n, v in zip(names, values))
                lits.append(_tseytin(f[2], cnf, scope, polarity, copies))
            lit = cnf.gate("or", lits)
        for n, cell in outer.items():
            if cell is None:
                del scope[n]
            else:
                scope[n] = cell
        return lit
    raise ValueError(f"unknown formula node {kind!r}")


def compile_instance(inst: MaxSatInstance) -> ClauseInstance:
    """The formula's clauses, its nonzero weights in `inst.weights` order,
    and a distinct name for every id.

    The formula's free names and the weighted ones come first, in name
    order.  A hidden id whose name a shown id or a lower hidden id already
    has (an auxiliary `_aux<id>` beside a variable of that name, a name an
    `exists` binds beside its free or other bound uses) gets `@<id>`
    appended until its name is new."""
    cnf = _CNF()
    free = sorted(set(inst.weights) | formula_vars(inst.hard))
    scope = {name: [cnf.new_var(name, hidden=False)] for name in free}
    cnf.add(_tseytin(inst.hard, cnf, scope, 1, 1))
    names = cnf.names
    taken = set(free)
    for i in sorted(cnf.hidden):
        while names[i] in taken:
            names[i] += f"@{i}"
        taken.add(names[i])
    weights = {scope[n][0]: w for n, w in inst.weights.items() if w != 0.0}
    return ClauseInstance(len(names), cnf.clauses, weights, names,
                          frozenset(cnf.hidden))


# ---------------------------------------------------------------------------
# propagation engine


class _Engine:
    """Unit propagation with a trail: binary clauses as implication lists,
    longer ones over two watched positions.

    `val`, `implied` and `watches` are indexed by literal: in a list of
    length 2n+1, literal -v lands at index 2n+1-v, clear of the positive
    literals 1..n.  `implied[l]` holds the other literal of each binary
    clause that holds -l, made true once l is.  A clause is unit when all
    but one of its positions are false, so a repeated literal counts once
    per position, as in a full clause scan: `(a, a)` forces nothing until
    a is false, and then conflicts.  Unit and empty clauses are settled at
    the root; `ok` is False when the root propagation conflicts.
    """

    def __init__(self, nvars: int, clauses):
        size = 2 * nvars + 1
        self.val = [0] * size  # 1 true, -1 false, 0 unassigned
        self.implied = implied = [[] for _ in range(size)]
        self.watches = watches = [[] for _ in range(size)]
        self.trail = []
        self.head = 0  # trail[:head] has been propagated
        root_ok = True
        for clause in clauses:
            if len(clause) == 2:
                a, b = clause
                implied[-a].append(b)
                implied[-b].append(a)
            elif len(clause) > 2:
                c = list(clause)
                watches[c[0]].append(c)
                watches[c[1]].append(c)
            elif not clause or not self.assign(clause[0]):
                root_ok = False
        self.ok = root_ok and self.propagate()

    def mark(self) -> int:
        return len(self.trail)

    def undo(self, mark: int) -> None:
        val, trail = self.val, self.trail
        for lit in trail[mark:]:
            val[lit] = val[-lit] = 0
        del trail[mark:]
        self.head = mark

    def assign(self, lit: int) -> bool:
        """Make lit true; False when it is already false."""
        if self.val[lit]:
            return self.val[lit] > 0
        self.val[lit] = 1
        self.val[-lit] = -1
        self.trail.append(lit)
        return True

    def propagate(self) -> bool:
        """Extend the trail to the unit fixpoint; False on conflict, after
        which the caller undoes the trail."""
        val, implied, watches = self.val, self.implied, self.watches
        trail = self.trail
        push = trail.append
        # the iterator also yields the literals pushed while it runs
        for true_lit in itertools.islice(trail, self.head, None):
            for lit in implied[true_lit]:
                if not val[lit]:
                    val[lit] = 1
                    val[-lit] = -1
                    push(lit)
                elif val[lit] < 0:
                    return False
            false_lit = -true_lit
            ws = watches[false_lit]
            if not ws:
                continue
            i = j = 0
            while i < len(ws):
                c = ws[i]
                i += 1
                if c[0] == false_lit:
                    c[0], c[1] = c[1], false_lit
                first = c[0]
                if val[first] == 1:  # satisfied: keep watching
                    ws[j] = c
                    j += 1
                    continue
                for k in range(2, len(c)):
                    lit = c[k]
                    if val[lit] != -1:  # move the watch to position k
                        c[1], c[k] = lit, false_lit
                        watches[lit].append(c)
                        break
                else:  # every other position is false
                    ws[j] = c
                    j += 1
                    if val[first] == -1:
                        del ws[j:i]  # keep the watchers not yet visited
                        return False
                    val[first] = 1
                    val[-first] = -1
                    push(first)
            del ws[j:]
        self.head = len(trail)
        return True


def _check_values(clauses, val: list) -> bool:
    """Every clause has a true literal under an `_Engine` value array."""
    n = len(val) // 2
    true = {lit for lit in range(-n, n + 1) if val[lit] == 1}
    return not any(map(true.isdisjoint, clauses))


# ---------------------------------------------------------------------------
# branch and bound


def _branch_and_bound(inst: ClauseInstance, budget: float):
    """Best model found within the budget, and whether it is proven optimal.

    Returns ((frozenset of true ids, objective) or None, proven).
    Branches on weighted ids by descending |weight| (names break ties),
    better value first, prunes on an optimistic bound, and among optimal
    models keeps the one whose weighted part is smallest in set-lex order:
    the sorted tuple of indices, in name order, of its true weighted ids.
    Each leaf is completed by a False-first search over the remaining ids
    in id order, which setting all of them False at once settles unless
    that conflicts.  The incumbent is checked against every clause before it
    is returned.  A NaN budget, which would never run out, or a negative
    one raises ValueError.

    A node's bound (objective plus slack) never rises below it, and an
    id's worse value takes |w| off it.  The bar, incumbent - `tol`, only
    rises.  So once an incumbent exists, two rules leave out children
    that the plain search would prune at their first step, before any
    leaf:
    - forcing: when the bound less the branch id's |w| falls below the
      bar, so does every node below that gives the id its worse value.
      `weighted` sorts by |w|, so the ids with this property form a run
      from the branch position, and every leaf the plain search examines
      below the node holds the better values of the whole run.  They are
      assigned in one step, with one propagation and no literal left to
      try;
    - skipping: on the way back, a frame's worse value is not tried when
      the frame's bound less |w| falls below the bar of an incumbent found
      since.
    The tree is the plain search's tree less those children, with the
    same leaves in the same order, and so the same incumbents.

    A node's bound is a running sum, carried on the search frames: it
    starts from the root's in-order objective plus slack, and each step
    takes off it the |w| of each worse literal on its trail segment.  It
    rounds differently from the in-order sums that define the search, so
    it decides a prune only when it clears the bar by `margin` = 1e-9 *
    sum(|w|), far above its rounding error (under 4n * 2**-53 * sum(|w|)
    for n weighted ids); otherwise the in-order sums decide.  A leaf the
    bound does not prune is accepted or rejected on its in-order objective
    alone, so the incumbent always holds its in-order objective.  Forcing
    and skipping refute a child only when its bound falls below the bar by
    more than `margin`, so the child's own prune test, on the running or
    the in-order sums, would have pruned it.  Past 1e300 the margin is
    infinite, and nothing falls below the bar less it, not even a NaN
    bound.
    """
    if not budget >= 0:
        raise ValueError(f"solver budget must be a number >= 0, not {budget!r}")
    deadline = time.monotonic() + budget
    weights, names = inst.weights, inst.names
    witems = list(weights.items())
    # only a positive weight can still raise the objective: the rest add
    # max(0, w) = 0.0 to the slack, which leaves a partial sum unchanged
    positive = [(v, w) for v, w in witems if w > 0]
    weighted = sorted(weights, key=lambda v: (-abs(weights[v]), names[v]))
    # what the worse value of weighted[i] takes off the bound
    costs = [abs(weights[v]) for v in weighted]
    by_name = sorted(weighted, key=lambda v: names[v])
    others = [v for v in range(1, inst.nvars + 1) if v not in weights]
    tol = 1e-12
    total = sum(abs(w) for _, w in witems)
    # past 1e300 a running sum might overflow where an in-order one does
    # not, so every decision takes the in-order sums, and nothing is refuted
    margin = 1e-9 * total if total < 1e300 else math.inf
    engine = _Engine(inst.nvars, inst.clauses)
    val, trail = engine.val, engine.trail
    # by literal: what its truth takes off the bound, -|w| on the worse
    # literal of a weighted id and 0 elsewhere
    loss = [0.0] * len(val)
    for v, w in witems:
        loss[-v if w > 0 else v] = -abs(w)
    best = {"objective": None, "key": None, "val": None}

    def tick() -> None:
        if time.monotonic() > deadline:
            raise BudgetExceeded("MaxSAT solver budget exhausted")

    def backtrack(frames: list, refuted=None):
        """Undo to the deepest frame with a literal left to try, unless
        `refuted(frame)`, and assign it: that frame and whether the literal
        propagates, or None once every frame is spent.  A frame is a list
        [trail mark, literal left to try, ...]."""
        while frames:
            frame = frames[-1]
            engine.undo(frame[0])
            lit = frame[1]
            if lit and not (refuted and refuted(frame)):
                frame[1] = 0
                return frame, engine.assign(lit) and engine.propagate()
            frames.pop()
        return None

    def complete() -> bool:
        # every open id False in one step.  Without a conflict that is a
        # model, and the id-by-id search below ends there too: every
        # literal it assigns or propagates is true in that model, so it
        # never conflicts.  Only a conflict needs the search
        mark = engine.mark()
        for v in others:
            if not val[v]:
                engine.assign(-v)
        if len(trail) == mark or engine.propagate():
            return True
        engine.undo(mark)
        frames = []  # [trail mark, literal left to try, index in others]
        i, ok = 0, True
        while True:
            if ok:
                while i < len(others) and val[others[i]]:
                    i += 1
                if i == len(others):
                    return True
                tick()
                frames.append([engine.mark(), others[i], i])
                ok = engine.assign(-others[i]) and engine.propagate()
            elif (step := backtrack(frames)) is None:
                return False
            else:
                frame, ok = step
                i = frame[2]
            i += 1

    # the in-order sums add left to right in explicit loops: from Python
    # 3.12 on, sum() compensates float sums, which would change the models
    def objective_in_order() -> float:
        total = 0
        for v, w in witems:
            if val[v] == 1:
                total += w
        return total

    def slack_in_order() -> float:
        total = 0
        for v, w in positive:
            if not val[v]:
                total += w
        return total

    def better(v: int) -> int:
        return v if weights[v] > 0 else -v

    def branch(bound: float, i: int):
        """A node's next step: the literals it assigns, the literal left to
        try after them (0 for none), and the index in `weighted` of the
        first unassigned id from i.  No literals at a leaf or a prune."""
        incumbent = best["objective"]
        if incumbent is not None:
            # the running bound decides unless it is near the bar
            bar = incumbent - tol
            if (bound < bar if abs(bound - bar) > margin
                    else objective_in_order() + slack_in_order() < bar):
                return (), 0, i
        while i < len(weighted) and val[weighted[i]]:
            i += 1
        if i < len(weighted):
            if incumbent is not None and bound - costs[i] < bar - margin:
                # forcing: the worse values of weighted[i:j] are refuted
                j = i + 1
                while j < len(weighted) and bound - costs[j] < bar - margin:
                    j += 1
                return [better(v) for v in weighted[i:j] if not val[v]], 0, i
            first = better(weighted[i])
            return (first,), -first, i
        # a leaf: its in-order objective decides (one below the bar was
        # pruned above, since a leaf's slack is 0 up to rounding)
        objective = objective_in_order()
        key = tuple(j for j, u in enumerate(by_name) if val[u] == 1)
        if incumbent is not None and not (
                objective > incumbent + tol
                or (abs(objective - incumbent) <= tol and key < best["key"])):
            return (), 0, i
        mark = engine.mark()
        if complete():
            best.update(objective=objective, key=key, val=val[:])
        engine.undo(mark)
        return (), 0, i

    def refuted(frame: list) -> bool:
        """Whether a search frame's literal left to try would be pruned on
        entry under the current incumbent."""
        incumbent = best["objective"]
        return (incumbent is not None
                and frame[2] - costs[frame[3]] < incumbent - tol - margin)

    def search() -> None:
        # [trail mark, literal left to try (0 after forcing), bound,
        #  branch index]
        frames = []
        bound, i = objective_in_order() + slack_in_order(), 0
        ok = engine.ok
        while True:
            tick()
            lits = ()
            if ok:
                lits, left, i = branch(bound, i)
            if lits:
                frame = [engine.mark(), left, bound, i]
                frames.append(frame)
                ok = all(map(engine.assign, lits)) and engine.propagate()
            elif (step := backtrack(frames, refuted)) is None:
                return
            else:
                frame, ok = step
                _, _, bound, i = frame
            if ok:  # the step's trail segment moves the running bound
                bound += sum(map(loss.__getitem__, trail[frame[0]:]))

    try:
        search()
        proven = True
    except BudgetExceeded:
        proven = False
    found = best["val"]
    if found is None:
        return None, proven
    if not _check_values(inst.clauses, found):
        raise NotAModel("solver produced a non-model")
    ids = frozenset(v for v in range(1, inst.nvars + 1) if found[v] == 1)
    return (ids, inst.objective(ids)), proven


def solve_exact(inst: ClauseInstance, budget: float = 60.0):
    """Optimal (true ids, objective), or None when unsatisfiable.

    Raises BudgetExceeded when optimality is not proven within the budget.
    """
    result, proven = _branch_and_bound(inst, budget)
    if not proven:
        raise BudgetExceeded("exact solver timed out")
    return result


def solve_approx(inst: ClauseInstance, budget: float = 60.0):
    """Anytime variant: the best model found within the budget.

    Returns None only when the formula is proven unsatisfiable; raises
    BudgetExceeded when the budget runs out before any model is found.
    """
    result, proven = _branch_and_bound(inst, budget)
    if result is None and not proven:
        raise BudgetExceeded("no model found within budget")
    return result


# ---------------------------------------------------------------------------
# WCNF bridge

WEIGHT_SCALE = 10 ** 6


def to_wcnf(cnf: ClauseInstance) -> str:
    """DIMACS WCNF text: every clause hard, then one soft unit clause per
    weighted id, in id order."""
    softs = []
    for v, w in sorted(cnf.weights.items()):
        # compared before rounding, which cannot round an infinite product;
        # past 2**53 every float is an integer, so the test is the same
        scaled = abs(w) * WEIGHT_SCALE
        if scaled > 2 ** 62:
            raise ProvRefineError(f"weight {w} too large for integral encoding")
        scaled = round(scaled)
        if scaled == 0:
            continue
        softs.append((scaled, v if w > 0 else -v))
    top = sum(s for s, _ in softs) + 1
    if top > 2 ** 63 - 1:
        raise ProvRefineError(
            f"hard-clause weight {top} exceeds 2^63-1: the soft weights sum "
            f"too large for integral encoding")
    lines = [f"p wcnf {cnf.nvars} {len(cnf.clauses) + len(softs)} {top}\n"]
    for clause in cnf.clauses:
        lines.append(f"{top} " + " ".join(str(l) for l in clause) + " 0\n")
    for scaled, lit in softs:
        lines.append(f"{scaled} {lit} 0\n")
    return "".join(lines)


def serialize_varmap(cnf: ClauseInstance) -> str:
    """One `id name` line per named id, in id order."""
    return "".join(f"{i} {name}\n" for i, name in sorted(cnf.names.items()))


# a literal of an external model: its sign and its digits past leading
# zeros, of which more than 18 name no id
_LITERAL = re.compile(r"(-?)0*([0-9]{1,18})")


def decode_external_model(cnf: ClauseInstance, text: str):
    """(true ids, objective) of an external solver's literal list.

    The last literal given for an id wins, an id not given is false, and
    ids above `cnf.nvars` are ignored, and so are words other than ASCII
    integers, such as a solver's `v` and `s` lines' leading letters.
    """
    n = cnf.nvars
    val = [0] + [-1] * n + [1] * n  # as in `_Engine`: every id false
    for tok in text.split():
        m = _LITERAL.fullmatch(tok)
        if m and 0 < (v := int(m[2])) <= n:
            lit = -v if m[1] else v
            val[lit], val[-lit] = 1, -1
    if not _check_values(cnf.clauses, val):
        raise NotAModel("external assignment violates the hard constraint")
    ids = frozenset(v for v in range(1, n + 1) if val[v] == 1)
    return ids, cnf.objective(ids)
