"""Performance benches for the scale-out substrate.

Two entries in ``BENCH_perf.json``:

* ``parallel_sweep_algorithm2`` — the Theorem 4.1 input sweep run
  serially vs fanned over a 4-worker :class:`VerificationPool`, with
  the per-instance verdicts asserted identical. ``cpu_count`` is
  recorded alongside the speedup. On a single-core runner a sub-1× pooled "speedup" measures process
  overhead, not parallelism — the entry is then *skipped* with its
  reason printed, rather than written into the tracked baseline.
* ``cache_cold_warm_algorithm2`` — the same sweep through a fresh
  :class:`ExplorationCache` (cold: every instance explored and stored)
  and again (warm: every instance a content-addressed hit, zero
  exploration), with hit/miss counts and the warm-over-cold speedup.

``REPRO_PERF_SCALE=tiny`` drops the sweep from n=5 (32 assignments)
to n=3 (8 assignments) for the CI smoke job.
"""

import multiprocessing

import pytest

from _perf_report import perf_scale, record, timed
from repro.analysis.cache import ExplorationCache
from repro.analysis.parallel import VerificationPool, WorkItem
from repro.api.execute import algorithm2_instance_check
from repro.protocols.tasks import DacDecisionTask


def _sweep_items(n):
    task = DacDecisionTask(n)
    return [
        WorkItem(
            key=tuple(inputs),
            fn=algorithm2_instance_check,
            args=(n, tuple(inputs)),
        )
        for inputs in task.input_assignments()
    ]


def _sweep_n():
    return 3 if perf_scale() == "tiny" else 5


class TestParallelSweep:
    def test_bench_serial_vs_pooled(self, benchmark):
        n = _sweep_n()
        items = _sweep_items(n)
        serial_pool = VerificationPool(jobs=1)
        pooled = VerificationPool(jobs=4)

        serial_timing = timed(lambda: serial_pool.run(items), repeats=3)
        pooled_timing = timed(lambda: pooled.run(items), repeats=3)

        serial_values = [result.value for result in serial_timing.result]
        pooled_values = [result.value for result in pooled_timing.result]
        assert serial_values == pooled_values

        cpu_count = multiprocessing.cpu_count()
        speedup = serial_timing.median / pooled_timing.median
        if cpu_count < 2 and speedup < 1.0:
            # A single-core runner pays process overhead for zero
            # parallelism: the sub-1× "speedup" measures the runner,
            # not the pool. Recording it would poison the baseline
            # trajectory, so the entry is skipped with its reason on
            # record instead of silently written.
            print(
                f"bench parallel_sweep_algorithm2: NOT RECORDED — "
                f"cpu_count={cpu_count} measured speedup {speedup:.2f}x; "
                f"a single-core pooled sweep benches process overhead, "
                f"not parallelism"
            )
        else:
            record(
                "parallel_sweep_algorithm2",
                n=n,
                work_items=len(items),
                jobs=4,
                # The pool is a ProcessPoolExecutor (fork-preferred),
                # not a thread pool.
                mode="process",
                cpu_count=cpu_count,
                serial_wall_seconds=serial_timing.median,
                serial_best_wall_seconds=serial_timing.best,
                parallel_wall_seconds=pooled_timing.median,
                parallel_best_wall_seconds=pooled_timing.best,
                repeats=serial_timing.repeats,
                speedup=speedup,
                verdicts_identical=serial_values == pooled_values,
            )

        results = benchmark(lambda: pooled.run(items))
        assert all(result.ok for result in results)


class TestCacheColdWarm:
    def test_bench_cold_then_warm(self, tmp_path, benchmark):
        n = _sweep_n()
        items = _sweep_items(n)
        cache = ExplorationCache(tmp_path / "bench-cache")

        def sweep():
            return [
                cache.get_or_compute(
                    {
                        "bench": "cache_cold_warm",
                        "n": n,
                        "inputs": item.key,
                        "max_configurations": 400_000,
                    },
                    lambda item=item: item.fn(*item.args),
                )[0]
                for item in items
            ]

        cold_timing = timed(sweep, repeats=1)
        assert cache.misses == len(items) and cache.hits == 0

        warm_timing = timed(sweep, repeats=3)
        assert cache.misses == len(items)
        assert cache.hits == 3 * len(items)
        assert warm_timing.result == cold_timing.result

        record(
            "cache_cold_warm_algorithm2",
            n=n,
            work_items=len(items),
            cold_wall_seconds=cold_timing.median,
            cold_best_wall_seconds=cold_timing.best,
            warm_wall_seconds=warm_timing.median,
            warm_best_wall_seconds=warm_timing.best,
            repeats=warm_timing.repeats,
            warm_speedup=cold_timing.median / warm_timing.median,
            cold_misses=len(items),
            warm_hits_per_run=len(items),
            verdicts_identical=warm_timing.result == cold_timing.result,
        )

        verdicts = benchmark(sweep)
        assert all(entry["ok"] for entry in verdicts)
