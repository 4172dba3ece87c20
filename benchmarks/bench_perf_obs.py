"""Observability overhead bench: what does repro.obs cost the hot path?

One entry in ``BENCH_perf.json`` — ``obs_overhead_exploration`` — that
times the *same* exploration workload (a fresh Algorithm 2 explorer per
run, as in ``bench_perf_core.py``) under three observation regimes:

* ``baseline`` — no session at all: every ``obs.*`` helper in the
  engines is one truthiness check on the empty session stack;
* ``metrics`` — a session without a tracer (the ``repro.api`` default):
  counters land in a registry, spans and events are shared no-ops;
* ``tracing`` — a session with a JSONL tracer: spans, per-level
  frontier events, and the metrics snapshot are all written out.

The ratios are *recorded, not asserted* — the committed baseline
records them against the <5% tracing-off budget in
``docs/observability.md``, while CI keeps this bench runnable at
``REPRO_PERF_SCALE=tiny``.
"""

import pytest

from _perf_report import perf_scale, record, timed
from repro import obs
from repro.analysis.explorer import Explorer
from repro.core.pac import NPacSpec
from repro.protocols.dac_from_pac import algorithm2_processes
from repro.protocols.tasks import DacDecisionTask


class TestObsOverhead:
    def test_bench_observation_regimes(self, tmp_path, benchmark):
        n = 3 if perf_scale() == "tiny" else 4
        inputs = DacDecisionTask.paper_initial_inputs(n)

        def explore():
            explorer = Explorer(
                {"PAC": NPacSpec(n)}, algorithm2_processes(inputs)
            )
            return explorer.explore()

        def with_metrics():
            with obs.session(reuse=False):
                return explore()

        def with_tracing():
            with obs.session(
                trace_path=tmp_path / "bench-trace.jsonl", reuse=False
            ):
                return explore()

        # Overhead ratios divide two ~millisecond medians, so they need
        # more samples than the wall-time benches to be stable.
        repeats = 5 if perf_scale() == "tiny" else 15
        assert not obs.enabled()  # the baseline really is session-free
        baseline = timed(explore, repeats=repeats)
        metrics = timed(with_metrics, repeats=repeats)
        tracing = timed(with_tracing, repeats=repeats)
        assert len(baseline.result) == len(metrics.result)
        assert len(baseline.result) == len(tracing.result)

        record(
            "obs_overhead_exploration",
            n=n,
            configurations=len(baseline.result),
            baseline_wall_seconds=baseline.median,
            metrics_wall_seconds=metrics.median,
            tracing_wall_seconds=tracing.median,
            baseline_best_wall_seconds=baseline.best,
            metrics_best_wall_seconds=metrics.best,
            tracing_best_wall_seconds=tracing.best,
            repeats=baseline.repeats,
            metrics_overhead_ratio=metrics.median / baseline.median,
            tracing_overhead_ratio=tracing.median / baseline.median,
        )

        graph = benchmark(explore)
        assert graph.complete
