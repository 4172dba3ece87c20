"""Packed-kernel backend bench: python vs compiled, cold and warm.

One entry in ``BENCH_perf.json`` — ``kernel_configs_per_second`` — that
runs the same exhaustive Algorithm 2 exploration (n=6 at full scale,
the largest instance the repo model-checks end to end; n=3 for the CI
smoke) through every available kernel backend and records, per backend:

* **cold** — a fresh explorer per run: every transition goes through
  the Python protocol callbacks once (the Amdahl bound both backends
  share, see docs/performance.md), then through the backend's own
  interning and BFS machinery;
* **warm** — re-running the BFS on the already-expanded graph: pure
  backend replay with zero callbacks, the regime where the backends'
  raw loop speed is actually visible;
* **cold misses** — the ``compute_deltas`` callbacks of one cold walk,
  i.e. the kernel's delta-table misses. The kernel keys a step on the
  object code bits its operation touches, so at n=6 they must stay
  under a tenth of the configurations.

The discovery orders are asserted identical across backends before
anything is recorded — the speedup is never bought with a result
change (``orders_identical``). ``cpu_count`` rides along because these are
single-process numbers: they compose with (not compete against) the
pool speedup.

When the compiled extension is not built the entry honestly records
``compiled_available: false`` and only the python numbers; the bench
never fails over a missing optional accelerator.
"""

import multiprocessing

from _perf_report import perf_scale, record, timed
from repro.analysis.explorer import Explorer, _CodeSpace
from repro.analysis.kernel import compiled_available
from repro.core.pac import NPacSpec
from repro.protocols.dac_from_pac import algorithm2_processes
from repro.protocols.tasks import DacDecisionTask

_BUDGET = 2_000_000


def _kernel_n():
    return 3 if perf_scale() == "tiny" else 6


def _protocol(n, inputs):
    return {"PAC": NPacSpec(n)}, algorithm2_processes(inputs)


def _make_explorer(n, inputs, kernel):
    objects, processes = _protocol(n, inputs)
    return Explorer(objects, processes, kernel=kernel)


def _cold_misses(n, inputs, kernel):
    """``(compute_deltas calls, configurations)`` of one cold walk."""
    calls = 0
    compute = _CodeSpace.compute_delta_codes

    def counting(self, *args):
        nonlocal calls
        calls += 1
        return compute(self, *args)

    _CodeSpace.compute_delta_codes = counting
    try:
        result = _make_explorer(n, inputs, kernel).explore(
            max_configurations=_BUDGET
        )
    finally:
        _CodeSpace.compute_delta_codes = compute
    return calls, len(result.order_ids)


class TestKernelBackends:
    def test_bench_kernel_configs_per_second(self, benchmark):
        n = _kernel_n()
        inputs = DacDecisionTask.paper_initial_inputs(n)
        repeats = 3 if perf_scale() == "tiny" else 5
        backends = ["python"]
        if compiled_available():
            backends.append("compiled")

        fields = {
            "n": n,
            "inputs": list(inputs),
            "cpu_count": multiprocessing.cpu_count(),
            "backends": list(backends),
            "compiled_available": compiled_available(),
            "repeats": repeats,
        }
        orders = {}
        for kernel in backends:
            def cold(kernel=kernel):
                return _make_explorer(n, inputs, kernel).explore(
                    max_configurations=_BUDGET
                )

            cold_timing = timed(cold, repeats=repeats)
            result = cold_timing.result
            assert result.complete
            orders[kernel] = result.order_ids
            configs = len(result.order_ids)

            warm_explorer = _make_explorer(n, inputs, kernel)
            warm_explorer.explore(max_configurations=_BUDGET)  # populate

            def warm(explorer=warm_explorer):
                return explorer.explore(max_configurations=_BUDGET)

            warm_timing = timed(warm, repeats=repeats)
            assert warm_timing.result.order_ids == result.order_ids

            misses, miss_configs = _cold_misses(n, inputs, kernel)
            assert miss_configs == configs
            if n >= 6:
                assert misses * 10 < configs, (kernel, misses, configs)

            fields.update(
                {
                    "configurations": configs,
                    f"{kernel}_cold_wall_seconds": cold_timing.median,
                    f"{kernel}_cold_best_wall_seconds": cold_timing.best,
                    f"{kernel}_cold_configs_per_sec": (
                        configs / cold_timing.median
                    ),
                    f"{kernel}_warm_wall_seconds": warm_timing.median,
                    f"{kernel}_warm_best_wall_seconds": warm_timing.best,
                    f"{kernel}_warm_configs_per_sec": (
                        configs / warm_timing.median
                    ),
                    f"{kernel}_cold_compute_deltas_calls": misses,
                }
            )

        if "compiled" in backends:
            # The headline cross-backend claim: identical graphs, in
            # identical discovery order, out of both implementations.
            assert orders["compiled"] == orders["python"]
            fields["compiled_cold_speedup"] = (
                fields["python_cold_wall_seconds"]
                / fields["compiled_cold_wall_seconds"]
            )
            fields["compiled_warm_speedup"] = (
                fields["python_warm_wall_seconds"]
                / fields["compiled_warm_wall_seconds"]
            )
            fields["orders_identical"] = True

        record("kernel_configs_per_second", **fields)

        fastest = backends[-1]
        graph = benchmark(
            lambda: _make_explorer(n, inputs, fastest).explore(
                max_configurations=_BUDGET
            )
        )
        assert graph.complete
