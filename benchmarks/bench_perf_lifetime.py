"""Graph lifetime bench: what explored graphs cost once they are dropped.

One entry in ``BENCH_perf.json`` — ``graph_lifetime_algorithm2`` — that
runs the explore request for Algorithm 2 at n=5 on every one of the 32
input assignments, in one process, the way a batch of cold requests
does (n=3 over 8 inputs for the CI smoke). Each request builds an
explorer, its kernel and its tables, and drops them when it returns.
Per sweep it records:

* **wall time** of the whole sweep (median of ``repeats``, best-of
  rides along);
* **GC time** — seconds spent inside the cycle collector during the
  sweep, summed from ``gc.callbacks`` start/stop pairs, with the number
  of collections and of unreachable objects they found. An acyclic
  engine leaves the collector nothing to find
  (``docs/performance.md``, "Graph lifetime");
* **tracemalloc peak** of one sweep (a separate, untimed pass:
  tracing allocations slows the sweep several-fold).

``cpu_count`` and the kernel backend ride along: these are
single-process numbers.
"""

import gc
import itertools
import multiprocessing
import statistics
import time
import tracemalloc

from _perf_report import perf_scale, record, timed
from repro import api
from repro.analysis.kernel import select


def _sweep_n():
    return 3 if perf_scale() == "tiny" else 5


class _CollectorClock:
    """Seconds, collections and unreachable objects of the cycle
    collector while installed (``gc.callbacks``)."""

    def __init__(self):
        self.seconds = 0.0
        self.collections = 0
        self.collected = 0
        self._started = None

    def __call__(self, phase, info):
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.seconds += time.perf_counter() - self._started
            self.collections += 1
            self.collected += info["collected"]
            self._started = None

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc_info):
        gc.callbacks.remove(self)


def _sweep(n, assignments):
    total = 0
    for inputs in assignments:
        report = api.explore(n=n, inputs=inputs)
        assert report.ok
        total += report.data["configurations"]
    return total


class TestGraphLifetime:
    def test_bench_graph_lifetime_algorithm2(self, benchmark):
        n = _sweep_n()
        assignments = list(itertools.product((0, 1), repeat=n))
        repeats = 3 if perf_scale() == "tiny" else 7

        clocks = []

        def measured():
            # Every sweep starts from an empty collector, so each one
            # pays for exactly the garbage it makes.
            gc.collect()
            with _CollectorClock() as clock:
                configurations = _sweep(n, assignments)
            clocks.append(clock)
            return configurations

        timing = timed(measured, repeats=repeats)
        configurations = timing.result

        gc.collect()
        tracemalloc.start()
        try:
            _sweep(n, assignments)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

        record(
            "graph_lifetime_algorithm2",
            n=n,
            inputs=len(assignments),
            configurations=configurations,
            kernel=select(),
            cpu_count=multiprocessing.cpu_count(),
            repeats=repeats,
            wall_seconds=round(timing.median, 6),
            best_wall_seconds=round(timing.best, 6),
            gc_seconds=round(
                statistics.median(clock.seconds for clock in clocks), 6
            ),
            gc_collections=max(clock.collections for clock in clocks),
            gc_unreachable=max(clock.collected for clock in clocks),
            tracemalloc_peak_mb=round(peak / (1 << 20), 3),
        )
        assert benchmark.pedantic(
            _sweep, args=(n, assignments), rounds=1, iterations=1
        ) == configurations
