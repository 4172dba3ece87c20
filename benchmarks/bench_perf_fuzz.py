"""Performance benches for the fuzz engine.

Two entries in ``BENCH_perf.json``:

* ``fuzz_executions_per_second`` — raw gene-interpretation throughput
  on a *correct* target (the queue-backed 2-consensus control), so
  every execution runs to quiescence and no finding short-circuits the
  campaign. Campaigns are seed-pinned, so coverage and corpus growth
  are asserted identical across the timing repeats.
* ``fuzz_time_to_first_violation`` — median wall time (via ``timed``)
  for a fresh campaign against the strong-2-SA doomed candidate to
  find, shrink, and strictly replay its first safety violation.
* ``fuzz_request_cold`` — whole ``repro.api.execute`` fuzz requests,
  each on a seed the process has not run: one candidate (budget 100,
  default shards) and Algorithm 2 at ``n = 2``. Per workload: the
  median request wall, the explorers and candidate suites one request
  builds, and a layer split of an instrumented pass (per-request means
  of target build, gene mutation, executions, shrink + replay, render
  and the rest: pool, merge, report) that sums to that pass's mean
  request.

``REPRO_PERF_SCALE=tiny`` shrinks the throughput budget for the CI
smoke job.
"""

import os
import statistics
import time
from collections import defaultdict

from _perf_report import perf_scale, record, timed
from repro.analysis import render as render_mod
from repro.analysis.explorer import Explorer
from repro.api.execute import execute
from repro.api.requests import FuzzRequest
from repro.fuzz import engine as engine_mod
from repro.fuzz import target as target_mod
from repro.fuzz.engine import fuzz_campaign
from repro.fuzz.executor import FuzzExecutor
from repro.protocols import candidates as candidates_mod

_CLEAN = ("candidate", 6)  # 2-consensus from queue + registers
_DOOMED = ("candidate", 1)  # 2-consensus from one strong 2-SA


def _throughput_budget():
    return 100 if perf_scale() == "tiny" else 600


class TestFuzzThroughput:
    def test_bench_executions_per_second(self, benchmark):
        budget = _throughput_budget()

        def campaign():
            return fuzz_campaign(_CLEAN, seed=1234, budget=budget)

        timing = timed(campaign, repeats=3)
        report = timing.result
        assert report.findings == ()
        assert report.executions == budget

        record(
            "fuzz_executions_per_second",
            target=list(_CLEAN),
            budget=budget,
            wall_seconds=timing.median,
            best_wall_seconds=timing.best,
            repeats=timing.repeats,
            executions_per_second=budget / timing.median,
            coverage=report.coverage,
            corpus_added=report.corpus_added,
        )

        result = benchmark(campaign)
        assert result.executions == budget

    def test_bench_time_to_first_violation(self, benchmark):
        def campaign():
            return fuzz_campaign(_DOOMED, seed=1234, budget=300)

        timing = timed(campaign, repeats=5)
        report = timing.result
        assert report.findings
        finding = report.findings[0]
        assert finding.replay_matches is True

        record(
            "fuzz_time_to_first_violation",
            target=list(_DOOMED),
            budget=300,
            wall_seconds=timing.median,
            best_wall_seconds=timing.best,
            repeats=timing.repeats,
            first_finding_execution=report.first_finding_execution,
            shrunk_steps=len(finding.shrunk_schedule),
            replay_matches=finding.replay_matches,
        )

        result = benchmark(campaign)
        assert result.findings


#: (workload, request fields) of ``fuzz_request_cold``.
_COLD_WORKLOADS = (
    ("candidate", {"candidate": "one 2-SA", "budget": 100}),
    ("algorithm2", {"algorithm2_n": 2, "budget": 100}),
)
_LAYERS = (
    "target_build",
    "mutation",
    "executions",
    "shrink_replay",
    "render",
    "other",
)


class _LayerClock:
    """Exclusive wall time per layer: entering a wrapped call charges
    the time so far to the enclosing layer. Executions the shrinker and
    the replay make stay in ``shrink_replay``."""

    def __init__(self):
        self.totals = defaultdict(float)
        self.stack = []

    def wrap(self, layer, fn):
        clock = self

        def wrapper(*args, **kwargs):
            stack = clock.stack
            if stack and stack[-1][0] == "shrink_replay":
                return fn(*args, **kwargs)
            now = time.perf_counter()
            if stack:
                clock.totals[stack[-1][0]] += now - stack[-1][1]
            stack.append([layer, now])
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                done, since = stack.pop()
                clock.totals[done] += end - since
                if stack:
                    stack[-1][1] = end

        return wrapper


def _patched(monkeypatch, clock, counts):
    """Route the fuzz layers through ``clock`` and count explorers and
    candidate suites (the same seams exist in every fuzz engine shape
    the ledger has recorded)."""
    init = Explorer.__init__
    build_suite = candidates_mod.all_candidates

    def counting_init(self, *args, **kwargs):
        counts["explorers"] += 1
        init(self, *args, **kwargs)

    def counting_suite():
        counts["suites"] += 1
        return build_suite()

    monkeypatch.setattr(Explorer, "__init__", counting_init)
    monkeypatch.setattr(candidates_mod, "all_candidates", counting_suite)
    for owner, name in (
        (FuzzExecutor, "__init__"),
        (target_mod, "target_from_spec"),
        (engine_mod, "target_from_spec"),
        (candidates_mod, "all_candidates"),
    ):
        monkeypatch.setattr(
            owner, name, clock.wrap("target_build", getattr(owner, name))
        )
    monkeypatch.setattr(
        FuzzExecutor, "execute", clock.wrap("executions", FuzzExecutor.execute)
    )
    monkeypatch.setattr(
        engine_mod, "mutate", clock.wrap("mutation", engine_mod.mutate)
    )
    for name in ("shrink_genes", "replay_shrunk"):
        monkeypatch.setattr(
            engine_mod,
            name,
            clock.wrap("shrink_replay", getattr(engine_mod, name)),
        )
    monkeypatch.setattr(
        render_mod,
        "render_schedule",
        clock.wrap("render", render_mod.render_schedule),
    )


class TestFuzzRequestCold:
    def test_bench_fuzz_request_cold(self, monkeypatch):
        requests = 10 if perf_scale() == "tiny" else 40
        fields = {}
        for workload, request in _COLD_WORKLOADS:
            # One request pays the lazy imports before the timed ones.
            first = time.perf_counter()
            assert execute(FuzzRequest(seed=1, **request)).ok
            first = time.perf_counter() - first
            seeds = range(2, 2 + requests)
            samples = []
            for seed in seeds:
                started = time.perf_counter()
                report = execute(FuzzRequest(seed=seed, **request))
                samples.append(time.perf_counter() - started)
                assert report.ok
            clock = _LayerClock()
            counts = defaultdict(int)
            with monkeypatch.context() as patch:
                _patched(patch, clock, counts)
                instrumented = 0.0
                for seed in seeds:
                    started = time.perf_counter()
                    execute(FuzzRequest(seed=seed, **request))
                    instrumented += time.perf_counter() - started
            layers = {
                layer: clock.totals[layer] / requests * 1e3
                for layer in _LAYERS[:-1]
            }
            layers["other"] = instrumented / requests * 1e3 - sum(
                layers.values()
            )
            fields.update(
                {
                    f"{workload}_request": request,
                    f"{workload}_wall_seconds": statistics.median(samples),
                    f"{workload}_best_wall_seconds": min(samples),
                    f"{workload}_first_request_seconds": first,
                    f"{workload}_explorers_per_request": (
                        counts["explorers"] / requests
                    ),
                    f"{workload}_suites_per_request": (
                        counts["suites"] / requests
                    ),
                    f"{workload}_layers_ms": {
                        layer: round(layers[layer], 4) for layer in _LAYERS
                    },
                    f"{workload}_instrumented_ms": round(
                        instrumented / requests * 1e3, 4
                    ),
                }
            )
        record(
            "fuzz_request_cold",
            repeats=requests,
            cpu_count=os.cpu_count(),
            **fields,
        )
