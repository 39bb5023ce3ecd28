"""Reference clock: host speed sampled while the operations run.

The benchmark runs on shared hosts whose speed drifts by a factor of up to
two within seconds: a fixed pure-Python loop read from 0.06 to 0.09 s per
million iterations in 8-second windows back to back, and 0.16 to 0.29 s in
consecutive 0.2-second samples.  Raw wall times of separate runs then
differ by more than any change worth detecting.

So while operations run, an interval timer interrupts the process every
PERIOD_S and runs one reference slice: a fixed piece of pure-Python work
like the library's (tuples, sets, dicts, a naive fixpoint, string
formatting, scattered reads of a table larger than the core's private
caches) that no library code touches.  An operation's net time is its
wall time minus the slices that ran inside it, and

    ref_s = net_s * NOMINAL_S / (median slice time around the operation)

`NOMINAL_S` is a slice's usual time on the reference host (2-core AMD
EPYC, Python 3.11), so ref_s reads roughly as seconds there.  A slice of
compute alone tracked the library's `ground` but over-corrected its
`approx` solves when the host ran fast; with the table reads added, the
coefficient of variation of single operations, over minutes of host
drift, fell from 0.14 (raw) to 0.07 for a 100-site `ground` and from 0.07
to 0.06 for a demo `approx` solve.  Raw wall times are kept
in the run record.  The timer uses SIGALRM and starts no thread or process.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

PERIOD_S = 0.02
NOMINAL_S = 0.0006  # one slice on the reference host at its usual speed
WINDOW_S = 0.1  # slices this close to an operation rate its speed
MIN_SLICES = 9  # else the nearest slices are taken

_NODES = 48
_EDGES = tuple(((i * 7 + 3) % _NODES, (i * 11 + 5) % _NODES) for i in range(96))
# a table well beyond the core's private caches, read at scattered keys, so
# the slice also feels the memory latency the library's large heaps do
_TABLE = {(i * 2654435761) % 1000003: i for i in range(1 << 15)}
_PROBES = tuple((i * 40503) % 1000003 for i in range(1200))


def reference_work() -> int:
    """A fixed amount of dict/set/tuple/str work: a naive reachability
    fixpoint, then scattered reads of a large table."""
    known = {(a, b) for a, b in _EDGES}
    succ = {}
    for a, b in _EDGES:
        succ.setdefault(a, []).append(b)
    changed = True
    while changed:
        changed = False
        for a, b in list(known):
            for c in succ.get(b, ()):
                if (a, c) not in known:
                    known.add((a, c))
                    changed = True
    names = sorted(f"n{a}:{b}" for a, b in known)
    hits = sum(1 for k in _PROBES if _TABLE.get(k) is not None)
    return len(known) + len(names[0]) + hits


class RefClock:
    """Context manager: samples reference slices while it is entered."""

    def __init__(self):
        self.starts = []  # slice start times, ascending
        self.slices = []  # slice durations
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        reference_work()
        self.starts.append(start)
        self.slices.append(perf_counter() - start)

    def __enter__(self) -> "RefClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def net(self, start: float, seconds: float) -> float:
        """Wall time of [start, start + seconds] without the slices inside it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, start + seconds)
        return seconds - sum(self.slices[lo:hi])

    def local(self, start: float, end: float) -> float:
        """Median slice time around the interval [start, end]."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if hi - lo >= MIN_SLICES:
            return statistics.median(self.slices[lo:hi])
        mid = (start + end) / 2
        at = bisect.bisect_left(self.starts, mid)
        around = range(max(0, at - MIN_SLICES), min(len(self.starts), at + MIN_SLICES))
        nearest = sorted(around, key=lambda i: abs(self.starts[i] - mid))[:MIN_SLICES]
        return statistics.median(self.slices[i] for i in nearest)

    def ref_seconds(self, start: float, seconds: float) -> float:
        return self.net(start, seconds) * NOMINAL_S / self.local(start, start + seconds)
