"""Graph lifetime bench: what explored graphs cost once they are dropped.

One entry in ``BENCH_perf.json`` — ``graph_lifetime_algorithm2`` — that
runs the explore request for Algorithm 2 at n=5 on every one of the 32
input assignments, whole and symmetry-reduced, then one reduced verify
request at n=4, in one process, the way a batch of cold requests does
(n=3 over 8 inputs and a verify at n=2 for the CI smoke). Each request
builds an explorer, its kernel and its tables, and drops them when it
returns.
It runs once per available kernel backend (``python``, and
``compiled`` when the extension is built), each field prefixed by the
backend. Per backend it records:

* **wall time** of the whole sweep (median of ``repeats``, best-of
  rides along);
* **GC time** — seconds spent inside the cycle collector during the
  sweep, summed from ``gc.callbacks`` start/stop pairs, with the number
  of collections and of unreachable objects they found. An acyclic
  engine leaves the collector nothing to find
  (``docs/performance.md``, "Graph lifetime");
* **tracemalloc peak** of one sweep (a separate, untimed pass:
  tracing allocations slows the sweep several-fold);
* **retained** — the bytes still traced after that pass and a
  collection. The pass runs over input values no earlier sweep in the
  process used, so any table that outlives its request (a process-wide
  memo of object transitions, say) holds new entries and shows here.
  The bench fails when ``retained_kb`` exceeds :data:`RETAINED_LIMIT_KB`
  — at both scales, so the CI smoke catches such a memo coming back.

``cpu_count`` rides along: these are single-process numbers.
"""

import gc
import itertools
import multiprocessing
import statistics
import time
import tracemalloc

from _perf_report import perf_scale, record, timed
from repro.api import ExploreRequest, VerifyRequest, execute
from repro.analysis import kernel as kernel_mod
from repro.analysis.kernel import compiled_available

#: The most one sweep may leave traced once it returned: tracemalloc's
#: own bookkeeping (under 1 KiB) with room to spare. A response memo
#: for the n=3 smoke alone holds about 250 KiB.
RETAINED_LIMIT_KB = 64


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
    """(full, reduced) configurations: each input explored whole and
    symmetry-reduced, then one reduced verify at ``n - 1``."""
    total = reduced = 0
    for inputs in assignments:
        report = execute(ExploreRequest(n=n, inputs=inputs))
        assert report.ok
        total += report.data["configurations"]
        report = execute(ExploreRequest(n=n, inputs=inputs, symmetry=True))
        assert report.ok
        reduced += report.data["configurations"]
    assert execute(VerifyRequest(n=n - 1, symmetry=True)).ok
    return total, reduced


def _traced_sweep(n, assignments):
    """(tracemalloc peak, bytes still traced after a collection) of one
    sweep."""
    gc.collect()
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        _sweep(n, assignments)
        gc.collect()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, after - before


class TestGraphLifetime:
    def test_bench_graph_lifetime_algorithm2(self, benchmark, monkeypatch):
        n = _sweep_n()
        assignments = list(itertools.product((0, 1), repeat=n))
        repeats = 3 if perf_scale() == "tiny" else 7
        backends = ["python"]
        if compiled_available():
            backends.append("compiled")

        fields = {
            "n": n,
            "inputs": len(assignments),
            "backends": list(backends),
            "cpu_count": multiprocessing.cpu_count(),
            "repeats": repeats,
            "retained_kb_limit": RETAINED_LIMIT_KB,
        }
        retained = {}
        for index, kernel in enumerate(backends):
            # The same seam the graph-lifetime tests use: requests take
            # their backend from ``select``.
            monkeypatch.setattr(
                kernel_mod, "select", lambda kernel=kernel: kernel
            )
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
            configurations, reduced_configurations = timing.result
            # Values no earlier sweep in this process used (the graphs
            # have the same shape as over {0, 1}).
            low = 2 + 2 * index
            unseen = [
                tuple(low + bit for bit in inputs) for inputs in assignments
            ]
            peak, kept = _traced_sweep(n, unseen)
            retained[kernel] = kept / 1024
            fields.update(
                {
                    "configurations": configurations,
                    "reduced_configurations": reduced_configurations,
                    f"{kernel}_wall_seconds": round(timing.median, 6),
                    f"{kernel}_best_wall_seconds": round(timing.best, 6),
                    f"{kernel}_gc_seconds": round(
                        statistics.median(clock.seconds for clock in clocks), 6
                    ),
                    f"{kernel}_gc_collections": max(
                        clock.collections for clock in clocks
                    ),
                    f"{kernel}_gc_unreachable": max(
                        clock.collected for clock in clocks
                    ),
                    f"{kernel}_tracemalloc_peak_mb": round(peak / (1 << 20), 3),
                    f"{kernel}_retained_kb": round(retained[kernel], 2),
                }
            )

        record("graph_lifetime_algorithm2", **fields)
        held = {
            kernel: kb
            for kernel, kb in retained.items()
            if kb > RETAINED_LIMIT_KB
        }
        assert not held, (
            f"a sweep left more than {RETAINED_LIMIT_KB} KiB traced after it "
            f"returned: {held}"
        )
        assert benchmark.pedantic(
            _sweep, args=(n, assignments), rounds=1, iterations=1
        ) == (configurations, reduced_configurations)
