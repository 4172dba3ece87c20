"""Ablation benches for the design decisions DESIGN.md calls out.

A1 — **whole-graph valency vs. per-configuration classification**: the
paper's proof access pattern classifies every configuration; the
memoized :class:`ValencyAnalyzer` does one exploration + one fixpoint,
versus re-exploring the reachable subgraph per query.

A3 — **helping in the universal construction**: with helping an
operation lands within O(n) slots of its announcement under *any*
schedule; without helping an adversarial scheduler defers the victim's
operation until the favored process runs out of work — we measure the
victim's base-step count under the same adversarial schedule.
"""

import pytest

from repro.analysis.explorer import Explorer
from repro.analysis.linearizability import LinearizabilityChecker
from repro.analysis.valency import classify
from repro.analysis.valency_analyzer import ValencyAnalyzer
from repro.objects.classic import QueueSpec
from repro.objects.consensus import MConsensusSpec
from repro.protocols.dac_from_pac import algorithm2_processes
from repro.protocols.implementation import run_clients
from repro.protocols.universal import UniversalConstruction
from repro.core.pac import NPacSpec
from repro.runtime.scheduler import ScriptedScheduler
from repro.types import op

from _report import emit_rows


# -- A1: valency ------------------------------------------------------------


def make_explorer():
    return Explorer({"PAC": NPacSpec(2)}, algorithm2_processes((1, 0)))


def classify_everything_naive(explorer):
    graph = explorer.explore()
    return {
        config: classify(explorer, config).label
        for config in graph.configurations
    }


def classify_everything_memoized(explorer):
    analyzer = ValencyAnalyzer(explorer)
    return {
        config: analyzer.label(config)
        for config in analyzer.graph.configurations
    }


def test_a1_results_agree(benchmark):
    benchmark.pedantic(_a1_results_agree, rounds=1, iterations=1)


def _a1_results_agree():
    explorer = make_explorer()
    naive = classify_everything_naive(explorer)
    memoized = classify_everything_memoized(explorer)
    assert naive == memoized
    emit_rows(
        "A1",
        "Whole-graph valency analyzer agrees with per-config "
        "classification on every configuration",
        ["graph", "configurations", "agreement"],
        [("Algorithm 2 @ n=2", len(naive), "100%")],
    )


def test_a1_bench_naive(benchmark):
    explorer = make_explorer()
    labels = benchmark(lambda: classify_everything_naive(explorer))
    assert labels


def test_a1_bench_memoized(benchmark):
    explorer = make_explorer()
    labels = benchmark(lambda: classify_everything_memoized(explorer))
    assert labels


# -- A3: helping in the universal construction --------------------------------


def victim_steps(helping: bool):
    """Run 2 processes under a p0-favoring schedule; return p1's base
    steps until its single operation completes."""
    workloads = {
        0: [op("enqueue", f"a{i}") for i in range(6)],
        1: [op("enqueue", "victim")],
    }
    impl = UniversalConstruction(
        QueueSpec(), n=2, max_operations=16, helping=helping
    )
    # Adversary: p1 gets exactly one step (its announce), then p0 runs
    # long bursts so it reaches every fresh slot first; p1 gets one
    # step between bursts and keeps losing slot races.
    schedule = [1]  # p1 announces
    for _burst in range(40):
        schedule.extend([0] * 6 + [1])
    scheduler = ScriptedScheduler(schedule, strict=False)
    result = run_clients(impl, workloads, scheduler=scheduler, max_steps=3000)
    return result.run.steps_by_pid.get(1, 0), result


def test_a3_helping_bounds_victim_steps(benchmark):
    benchmark.pedantic(_a3_helping_bounds_victim_steps, rounds=1, iterations=1)


def _a3_helping_bounds_victim_steps():
    with_helping, result_help = victim_steps(helping=True)
    without_helping, result_nohelp = victim_steps(helping=False)
    emit_rows(
        "A3",
        "Universal construction: helping bounds the victim's cost under "
        "a favoritism adversary",
        ["variant", "victim base steps", "note"],
        [
            ("helping ON", with_helping, "lands within O(n) slots"),
            (
                "helping OFF",
                without_helping,
                "deferred until the favored process runs dry",
            ),
        ],
    )
    assert with_helping < without_helping
    # Both remain linearizable — helping is about liveness, not safety.
    checker = LinearizabilityChecker(QueueSpec())
    assert checker.check(result_help.history).ok
    assert checker.check(result_nohelp.history).ok


def test_a3_bench_with_helping(benchmark):
    steps, _result = benchmark(lambda: victim_steps(helping=True))
    assert steps > 0
