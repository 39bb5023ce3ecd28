"""The benchmark's tracer wraps library functions by name and reads size
counters off their return values; each function must exist, and each
counter must read a number off what its function really returns."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from provrefine import analysis as ana
from provrefine import datalog
from provrefine import hypergraph as hg
from provrefine import likelihood as lk
from provrefine import maxsat as mx
from provrefine import refine

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    """perfbench/tracer.py as a module, loaded without writing bytecode."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


tracer = _tracer()


@pytest.mark.parametrize("module, fn", [
    (mod, fn) for mod, fns in tracer.LAYERS.items() for fn in fns])
def test_every_traced_function_exists(module, fn):
    mod = importlib.import_module(f"provrefine.{module}")
    assert callable(getattr(mod, fn, None)), f"provrefine.{module}.{fn}"


def _smudge_returns() -> dict:
    """The return value of each counted function on a tiny input."""
    an = datalog.smudge_fixture()
    query = next(iter(an.queries))
    a = frozenset()
    rules, base = datalog.parse_program(datalog.smudge_program_text())
    g_a = ana.local_provenance(an, a)
    x = mx.var("x")
    return {
        "datalog.ground": datalog.ground(rules, base),
        "analysis.local_provenance": g_a,
        "refine.solve": refine.solve(an, query, refine.RefineConfig()),
        "refine.slice_to_query": refine.slice_to_query(hg.Hypergraph(g_a.arcs),
                                                       query),
        "maxsat.compile_instance": mx.compile_instance(mx.MaxSatInstance(
            mx.exists(["y"], mx.or_(x, mx.var("y"))), {"x": 1.0})),
        "likelihood.bound_terms": lk.bound_terms(g_a, lk.observe(an, [a])),
    }


def test_every_counter_reads_a_count_off_its_function():
    returns = _smudge_returns()
    assert set(tracer.COUNTERS) <= set(returns)
    for span, counters in tracer.COUNTERS.items():
        for counter, extract in counters:
            value = extract(returns[span])
            assert isinstance(value, int) and value > 0, counter
    cnf = returns["maxsat.compile_instance"]
    (_, nvars), (_, nclauses) = tracer.COUNTERS["maxsat.compile_instance"]
    assert (nvars(cnf), nclauses(cnf)) == (cnf.nvars, len(cnf.clauses))
