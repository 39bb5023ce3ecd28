"""Seeded smudge-program generator and the concrete interpreter that checks it.

A program is a straight line of smudge sites over the objects x, y, z, w.
Site L with modulus k passes dirt from object A to object B.  Under the
precise semantics it does so iff (value(A) + value(B)) mod k == 0; under the
cheap semantics it always does.  Values are set once at the start and never
change, so the interpreter is a single pass over the sites.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

OBJECTS = ("x", "y", "z", "w")
MODULI = (2, 3, 5, 7)
SOURCE = "x"

RULES_TEXT = """\
dirty(L2,B) :- cheap(L), dirty(L,A), flow(L,L2), smudge2(L,A,B). @cheap_smudge2
dirty(L2,B) :- cheap(L), dirty(L,A), flow(L,L2), smudge3(L,A,B). @cheap_smudge3
dirty(L2,B) :- cheap(L), dirty(L,A), flow(L,L2), smudge5(L,A,B). @cheap_smudge5
dirty(L2,B) :- cheap(L), dirty(L,A), flow(L,L2), smudge7(L,A,B). @cheap_smudge7
dirty(L2,B) :- precise(L), dirty(L,A), flow(L,L2), smudge2(L,A,B), value(L,A,VA), value(L,B,VB), (VA + VB) mod 2 == 0. @precise_smudge2
dirty(L2,B) :- precise(L), dirty(L,A), flow(L,L2), smudge3(L,A,B), value(L,A,VA), value(L,B,VB), (VA + VB) mod 3 == 0. @precise_smudge3
dirty(L2,B) :- precise(L), dirty(L,A), flow(L,L2), smudge5(L,A,B), value(L,A,VA), value(L,B,VB), (VA + VB) mod 5 == 0. @precise_smudge5
dirty(L2,B) :- precise(L), dirty(L,A), flow(L,L2), smudge7(L,A,B), value(L,A,VA), value(L,B,VB), (VA + VB) mod 7 == 0. @precise_smudge7
dirty(L2,A) :- dirty(L,A), flow(L,L2). @dirty_persist
value(L2,A,N) :- value(L,A,N), keep(L,A), flow(L,L2). @value_persist
"""


def hand_theta() -> dict:
    """The hand-written survival probabilities: 1/k per cheap smudge, else 1."""
    theta = {f"cheap_smudge{k}": 1.0 / k for k in MODULI}
    theta.update({f"precise_smudge{k}": 1.0 for k in MODULI})
    theta.update(base=1.0, dirty_persist=1.0, value_persist=1.0)
    return theta


@dataclass(frozen=True)
class Program:
    """sites: (label, k, src, dst) in program order; values: (object, int) pairs."""

    sites: tuple
    values: tuple

    @property
    def labels(self) -> list:
        return [lbl for lbl, _, _, _ in self.sites]

    def text(self) -> str:
        """The Datalog text of the program (rules plus extensional facts)."""
        points = ["s0"] + self.labels + ["end"]
        lines = [RULES_TEXT]
        lines += [f"flow({a},{b})." for a, b in zip(points, points[1:])]
        lines += [f"smudge{k}({lbl},{a},{b})." for lbl, k, a, b in self.sites]
        lines.append(f"dirty(s0,{SOURCE}).")
        lines += [f"value(s0,{o},{v})." for o, v in self.values]
        lines += [f"keep({p},{o})." for p in points[:-1] for o in OBJECTS]
        return "\n".join(lines) + "\n"

    def dirty_at_end(self, precise_sites) -> frozenset:
        """Concrete run: sites in `precise_sites` test the guard, others do not."""
        val = dict(self.values)
        dirty = {SOURCE}
        for lbl, k, a, b in self.sites:
            if a in dirty and (lbl not in precise_sites
                               or (val[a] + val[b]) % k == 0):
                dirty.add(b)
        return frozenset(dirty)

    def answer(self, obj) -> str:
        """The verdict `solve` must give for dirty(end, obj): no iff it is dirty."""
        return "no" if obj in self.dirty_at_end(frozenset(self.labels)) else "yes"

    def cone(self, obj) -> int:
        """Sites on some cheap-semantics dirt path into obj at the end."""
        before = []
        dirty = {SOURCE}
        for _, _, a, b in self.sites:
            before.append(a in dirty)
            if a in dirty:
                dirty.add(b)
        need = {obj}
        size = 0
        for active, (_, _, a, b) in zip(reversed(before), reversed(self.sites)):
            if active and b in need:
                size += 1
                need.add(a)
        return size

    def queries(self) -> list:
        """Objects other than the source that the cheap run dirties."""
        cheap = self.dirty_at_end(())
        return [o for o in OBJECTS if o != SOURCE and o in cheap]


def random_program(rng: random.Random, n_sites: int) -> Program:
    sites = []
    dirty = {SOURCE}
    for lbl in range(n_sites):
        # every site moves dirt under the cheap semantics, so a program's
        # cost follows its size rather than how early the dirt spreads
        a = rng.choice(sorted(dirty))
        b = rng.choice([o for o in OBJECTS if o != a])
        dirty.add(b)
        sites.append((lbl, rng.choice(MODULI), a, b))
    values = tuple((o, rng.randrange(0, 100)) for o in OBJECTS)
    return Program(tuple(sites), values)


def stratified_query(rng: random.Random, cell: tuple):
    """A (program, query object) pair in `cell` = (sites, cone, answer).

    A query's cost follows mostly the program's size, the query's dirt cone
    and its verdict; drawing every pair in a fixed cell keeps one seed's mix
    of queries comparable with another's.
    """
    sites, cone, answer = cell
    while True:
        prog = random_program(rng, sites)
        hits = [o for o in prog.queries()
                if prog.cone(o) == cone and prog.answer(o) == answer]
        if hits:
            return prog, rng.choice(hits)


def demo_dirty_at_end() -> frozenset:
    """Concrete run of the library's five-site demo program, fully precise."""
    val = {"x": 0, "y": 0, "z": 0, "v": 0}
    dirty = {"x"}

    def smudge(k, a, b):
        if a in dirty and (val[a] + val[b]) % k == 0:
            dirty.add(b)

    val["x"] = 10
    smudge(2, "x", "y")
    val["y"] += 2 * val["x"]
    smudge(3, "y", "z")
    if "z" in dirty and val["y"] > 5:
        val["v"] = val["x"] + val["y"]
    smudge(3, "z", "v")
    smudge(5, "x", "y")
    smudge(7, "y", "v")
    return frozenset(dirty)
