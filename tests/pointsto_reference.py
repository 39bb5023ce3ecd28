"""A hand-written client with cyclic provenance: a 1-call-site-sensitive
points-to analysis with Downcast queries.

The program has three methods and one parameter per method, `cheap(M)`
or `precise(M)`.  A cheap method's variables point to heap objects in one
context-free relation, `ptc(V,H)`; a precise method's, in
`pt(V,C,H)`, once per context C: the call site that called it, or `root`
for `main`, which a base fact `entry(main,root)` gives.  `ctx(M,C)` is
derived only under `precise(M)`, and the projection drops it and maps
`pt(A0,A1,A2)` to `ptc(A0,A2)`, so every rule under `precise` projects
onto its rule under `cheap` (conditions (i) and (ii) of
`check_well_formed`).  Each value flow has one rule per pair of modes it
joins, 16 rules in all.

    main:  x1 = new A;  x2 = new B
           a = id(x1)      @ i1
           b = id(x2)      @ i2
           c = id(x1)      @ i4
           c = fwd(c)      @ i3
           (A) a  q1;   (A) b  q2;   (A) c  q3
    id(p):  u = p; return p or u
    fwd(s): t = s; return t

`c = fwd(c)` is a copy cycle over `main` and `fwd`: `ptc(c,H)` feeds
`ptc(s,H)`, which feeds `ptc(t,H)`, which feeds `ptc(c,H)` back, and
that last arc is not forward from the seeds.  Nor is a return of `u`,
one copy farther from the seeds than `p`; as both returns of `id` are
derived together, each such head's upper-bound clauses hold an arc that
its lower-bound clauses lack, and the bounds differ once the learned
theta of the return rule is below 1.  A cast fails when its variable may
point to an object whose type is incompatible with the cast's
(`incompat(T2,T)`), since the engine has no negation.  With `id` cheap,
`a` and `c` may point to the B object and q1 and q3 fail; with `id`
precise the return at each call site carries only that site's argument,
so they are safe.  q2 fails under every abstraction.

`all_precise_verdicts` is the oracle of every `refine.solve` answer: the
all-precise program, grounded by the reference grounder with every
`precise(M)` fact seeded, derives `castfail(Q)` iff Q's answer is `no`.
"""

from provrefine import datalog
from provrefine.analysis import Analysis, Projection
from provrefine.hypergraph import Fact

import datalog_reference

RULES_TEXT = """
# allocation
ptc(V,H) :- new(V,H,M), cheap(M). @new_c
pt(V,C,H) :- new(V,H,M), ctx(M,C). @new_p

# copies within a method
ptc(V2,H) :- assign(V2,V1), ptc(V1,H). @assign_c
pt(V2,C,H) :- assign(V2,V1), pt(V1,C,H). @assign_p

# argument to formal at call site I, by the modes of caller and callee
ptc(P,H) :- call(I,M2,M1), actual(I,V), formal(M2,P), ptc(V,H), cheap(M2). @arg_cc
ptc(P,H) :- call(I,M2,M1), actual(I,V), formal(M2,P), pt(V,C,H), cheap(M2). @arg_pc
pt(P,I,H) :- call(I,M2,M1), actual(I,V), formal(M2,P), ptc(V,H), ctx(M2,I). @arg_cp
pt(P,I,H) :- call(I,M2,M1), actual(I,V), formal(M2,P), pt(V,C,H), ctx(M2,I). @arg_pp

# return value to the result at call site I: a precise callee returns
# only what it computed in the context of I
ptc(V,H) :- callret(I,V), call(I,M2,M1), ret(M2,R), ptc(R,H), cheap(M1). @ret_cc
ptc(V,H) :- callret(I,V), call(I,M2,M1), ret(M2,R), pt(R,I,H), cheap(M1). @ret_pc
pt(V,C,H) :- callret(I,V), call(I,M2,M1), ret(M2,R), ptc(R,H), ctx(M1,C). @ret_cp
pt(V,C,H) :- callret(I,V), call(I,M2,M1), ret(M2,R), pt(R,I,H), ctx(M1,C). @ret_pp

# contexts, only for precise methods
ctx(M,C) :- entry(M,C), precise(M). @ctx_entry
ctx(M2,I) :- call(I,M2,M1), precise(M2). @ctx_call

# Downcast: the cast may fail
castfail(Q) :- cast(Q,V,T), ptc(V,H), htype(H,T2), incompat(T2,T). @cast_c
castfail(Q) :- cast(Q,V,T), pt(V,C,H), htype(H,T2), incompat(T2,T). @cast_p
"""

PROGRAM_TEXT = """
entry(main,root).
new(x1,ha,main).
new(x2,hb,main).
htype(ha,ta).
htype(hb,tb).
incompat(tb,ta).
call(i1,id,main).
actual(i1,x1).
callret(i1,a).
call(i2,id,main).
actual(i2,x2).
callret(i2,b).
call(i4,id,main).
actual(i4,x1).
callret(i4,c).
call(i3,fwd,main).
actual(i3,c).
callret(i3,c).
formal(id,p).
assign(u,p).
ret(id,p).
ret(id,u).
formal(fwd,s).
assign(t,s).
ret(fwd,t).
cast(q1,a,ta).
cast(q2,b,ta).
cast(q3,c,ta).
"""

METHODS = ("fwd", "id", "main")
QUERIES = tuple(Fact("castfail", (q,)) for q in ("q1", "q2", "q3"))


def program():
    """The rules and base facts, as `datalog.parse_program` reads them."""
    return datalog.parse_program(RULES_TEXT + PROGRAM_TEXT)


def pointsto_analysis() -> Analysis:
    """The analysis, one parameter per method; the queries are the casts."""
    rules, base = program()
    cheap = {m: Fact("cheap", (m,)) for m in METHODS}
    precise = {m: Fact("precise", (m,)) for m in METHODS}
    return Analysis(
        global_graph=datalog.ground(rules, base,
                                    seeds=[*cheap.values(), *precise.values()]),
        queries=frozenset(QUERIES),
        params=METHODS,
        encode0=cheap,
        encode1=precise,
        projection=Projection({"precise": ("cheap", (0,)),
                               "pt": ("ptc", (0, 2)), "ctx": "drop"}),
    )


def all_precise_verdicts() -> dict:
    """Query -> `no` if the all-precise program derives it, else `yes`."""
    rules, base = program()
    g = datalog_reference.ground(
        rules, base, seeds=[Fact("precise", (m,)) for m in METHODS])
    derived = {arc.head for arc in g.arcs}
    return {q: "no" if q in derived else "yes" for q in QUERIES}
