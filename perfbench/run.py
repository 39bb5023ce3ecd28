"""provrefine benchmark: one seeded workload per process.

    python3 perfbench/run.py --workload refine-deep --seed 1 --seconds 14 --trace 0

Run from the repository root.  The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, operation times in ref_s (wall seconds
scaled by the host speed measured around each operation, see refclock.py);
with --trace 1 the same rounds are run again with every public library
function wrapped, and the metrics are the per-layer ones.  The line before
it, starting "record ", holds the run context, raw wall times and the
output fingerprints.  Exit code 1 means an output failed
its oracle; 2 means the library could not be found.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import types
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODULES = ("errors", "hypergraph", "analysis", "datalog", "probmodel",
           "maxsat", "refine", "likelihood", "learning")
SETUP_REPS = 3
LIMIT_FACTOR = 1.25  # a run stops early after this many times --seconds
CALIBRATION_LOOP = 10_000_000


def import_library():
    """Fresh import of the library, so each set-up pays the import."""
    for name in [n for n in sys.modules if n == "provrefine" or n.startswith("provrefine.")]:
        del sys.modules[name]
    return types.SimpleNamespace(**{
        m: importlib.import_module(f"provrefine.{m}") for m in MODULES})


def calibrate() -> dict:
    """A fixed pure-Python loop; a slow-CPU moment shows up here."""
    wall, cpu = perf_counter(), process_time()
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc += i & 7
    return {"wall_s": perf_counter() - wall, "cpu_s": process_time() - cpu}


def commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "provrefine").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_rounds(wl, rounds: int, limit: float, tracer=None) -> tuple:
    """Run rounds 0 .. rounds-1, inputs built untimed before each.  After the
    pinned rounds, stop early only once `limit` seconds have passed, which
    takes a host or a program well slower than the one the rates were set on.
    The collector freezes each round's inputs, so it never rescans the
    benchmark's inputs during an operation.  Returns (ops, rounds run)."""
    ops = []
    start = perf_counter()
    for r in range(rounds):
        if r == wl.pinned:
            start = perf_counter()
        elif r > wl.pinned and perf_counter() - start > limit:
            return ops, r
        wl.prepare(r)
        gc.collect()
        gc.freeze()
        if tracer is not None:
            tracer.op = r
        ops.extend(wl.run_round(r))
    return ops, rounds


def percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "provrefine" / "__init__.py").is_file():
        print(f"perfbench: no library under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import refclock
    import workloads
    import tracer as tracing

    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {', '.join(workloads.WORKLOADS)}")
    make, rate = workloads.WORKLOADS[args.workload]

    calibration = [calibrate()]
    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        lib = import_library()
        wl = make(lib, args.seed)
        wl.setup()
        setup_times.append(perf_counter() - t0)

    limit = LIMIT_FACTOR * args.seconds
    with refclock.RefClock() as clock:
        ops, rounds = run_rounds(wl, wl.pinned + max(1, round(rate * args.seconds)), limit)
    times = [op.seconds for op in ops]
    net = [clock.net(op.start, op.seconds) for op in ops]
    ref_times = [clock.ref_seconds(op.start, op.seconds) for op in ops]
    layers = None
    traced_ops = []
    if args.trace:
        tr = tracing.Tracer(lib)
        tr.install()
        try:
            traced_ops, _ = run_rounds(wl, rounds, float("inf"), tr)
        finally:
            tr.remove()
        layers = tr.layer_metrics(len(traced_ops))
        layers["trace.overhead_s"] = (sum(op.seconds for op in traced_ops) - sum(net))
        layers["trace.ops"] = len(traced_ops)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tr.write(str(spans_path))
    calibration.append(calibrate())

    failures = []
    attempted = 0
    for what, problem in wl.checks():
        attempted += 1
        if problem:
            failures.append(f"{args.workload} seed {args.seed} {what}: {problem}")
    # oracle checks and determinism: a repeated (or traced) key must reproduce
    # the fingerprint of its first run
    first = {}
    for op in ops + traced_ops:
        attempted += 1
        if op.key not in first:
            first[op.key] = op.fingerprint
            problem = op.verify()
        elif op.fingerprint != first[op.key]:
            problem = f"fingerprint {op.fingerprint} differs from first run {first[op.key]}"
        else:
            problem = None
        if problem:
            failures.append(f"{args.workload} seed {args.seed} {op.key}: {problem}")

    slowest = max(zip(times, ops), key=lambda t: t[0])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if layers is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "op_p50": (statistics.median(ref_times), "ref_s"),
            "throughput": (len(ref_times) / sum(ref_times), "1/ref_s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        units = dict(tracing.layer_metric_names())
        metrics = {k: (v, units[k]) for k, v in layers.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit(), "source_sha256": source_digest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "calibration": calibration, "setup_s": setup_times,
        "ops": len(ops), "rounds": rounds, "op_s_total": sum(times),
        "wall": {"op_s_p50": statistics.median(times),
                 "op_s_p90": percentile(times, 90),
                 "ops_per_s": len(times) / sum(times)},
        "op_p90": percentile(ref_times, 90),
        "reference_slices": {"count": len(clock.slices),
                             "median_s": statistics.median(clock.slices),
                             "min_s": min(clock.slices),
                             "max_s": max(clock.slices),
                             "nominal_s": refclock.NOMINAL_S},
        "slowest": {"key": slowest[1].key, "seconds": slowest[0]},
        "op_ref_s": {op.key: t for op, t in zip(ops, ref_times)},
        "fingerprints": first, "failures": failures,
    }
    print("record " + json.dumps(record, sort_keys=True))
    for line in failures:
        print("FAIL " + line, file=sys.stderr)
    failed = len(failures)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
