"""Outside-in tracing: wrap the library's public functions, record spans.

Every module-level binding of a traced function is replaced, including the
copies made by `from .analysis import derive`, so calls are seen whichever
name the caller uses.  `remove` restores the originals, which leaves the
untraced run untouched.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = {
    "datalog": ("parse_program", "ground"),
    "hypergraph": ("reach", "distances", "forward_arcs", "induced",
                   "serialize_provenance"),
    "analysis": ("derive", "local_provenance"),
    "refine": ("solve", "forward_restrict", "slice_to_query", "build_phi",
               "decode_model", "choose_optimistic"),
    "maxsat": ("compile_instance", "solve_exact", "solve_approx"),
    "likelihood": ("observe", "bound_terms"),
    "learning": ("sample_training", "learn", "line_search"),
}

# size counters read from return values: span name -> (counter, extractor)
COUNTERS = {
    "datalog.ground": [("datalog.ground.arcs", lambda g: len(g.arcs))],
    "analysis.local_provenance": [
        ("analysis.local_provenance.arcs", lambda g: len(g.arcs))],
    "refine.solve": [("refine.iterations", lambda out: out.iterations)],
    "refine.slice_to_query": [("refine.slice_to_query.arcs", lambda g: len(g.arcs))],
    "maxsat.compile_instance": [
        ("maxsat.compile_instance.vars", lambda cnf: len(cnf.names)),
        ("maxsat.compile_instance.clauses", lambda cnf: len(cnf.clauses))],
    "likelihood.bound_terms": [
        ("likelihood.bound_terms.heads", lambda bf: len(bf.per_head)),
        ("likelihood.bound_terms.lower_clauses",
         lambda bf: sum(len(ph.lower_clauses) for ph in bf.per_head.values()))],
}
BUDGET_COUNTER = "maxsat.budget_exceeded"
SOLVERS = ("maxsat.solve_exact", "maxsat.solve_approx")


def layer_metric_names() -> list:
    """Every per-layer metric the traced run reports, with unit and direction."""
    out = []
    for mod, fns in LAYERS.items():
        for fn in fns:
            out += [(f"{mod}.{fn}.s", "s/op"), (f"{mod}.{fn}.self_s", "s/op"),
                    (f"{mod}.{fn}.calls", "calls/op")]
    for counters in COUNTERS.values():
        out += [(name, "count/op") for name, _ in counters]
    out += [(BUDGET_COUNTER, "count/op"), ("trace.overhead_s", "s"),
            ("trace.ops", "count")]
    return out


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.spans = []  # (name, start, end, parent index, op id)
        self.stack = []
        self.counters = defaultdict(float)
        self.op = None  # the round that every new span belongs to
        self._saved = []

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "provrefine" or n.startswith("provrefine.")]
        for mod_name, fns in LAYERS.items():
            for fn in fns:
                original = getattr(getattr(self.lib, mod_name), fn)
                wrapper = self._wrap(f"{mod_name}.{fn}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._saved.append((mod, attr, original))

    def remove(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self.stack, self.counters
        extractors = COUNTERS.get(name, ())
        budget_error = self.lib.errors.BudgetExceeded

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except budget_error:
                if name in SOLVERS:
                    counters[BUDGET_COUNTER] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            for counter, extract in extractors:
                counters[counter] += extract(result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__wrapped__ = fn
        return wrapper

    def layer_metrics(self, ops: int) -> dict:
        """Inclusive time, self time and calls per function, per operation."""
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            self_time[name] += end - start
            calls[name] += 1
            if parent >= 0:
                self_time[self.spans[parent][0]] -= end - start
        counters = {c for cs in COUNTERS.values() for c, _ in cs} | {BUDGET_COUNTER}
        per_kind = {"s": total, "self_s": self_time, "calls": calls}
        out = {}
        for metric, _ in layer_metric_names():
            base, _, kind = metric.rpartition(".")
            if metric in counters:
                out[metric] = self.counters[metric] / ops
            elif kind in per_kind:
                out[metric] = per_kind[kind][base] / ops
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "op"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
