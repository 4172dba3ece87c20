"""E3 — Theorem 4.1: Algorithm 2 solves n-DAC from a single n-PAC.

Paper claim: for all n >= 2 the n-DAC problem is solved by one n-PAC.
Regenerated rows: per n, the exhaustive model-checking verdict (small
n) and randomized-adversary audit (larger n).
"""

import pytest

from repro.analysis.explorer import Explorer
from repro.analysis.properties import audit_dac_run
from repro.core.pac import NPacSpec
from repro.protocols.dac_from_pac import algorithm2_processes
from repro.protocols.tasks import DacDecisionTask
from repro.runtime.scheduler import SeededScheduler
from repro.runtime.system import System

from _report import emit_rows


def model_check(n):
    task = DacDecisionTask(n)
    configs = 0
    for inputs in task.input_assignments():
        explorer = Explorer({"PAC": NPacSpec(n)}, algorithm2_processes(inputs))
        result = explorer.explore()
        assert explorer.check_safety(task, inputs, exploration=result) is None
        configs += len(result)
        for pid in range(n):
            assert explorer.solo_termination(pid)
    return configs


def simulate(n, seeds):
    task = DacDecisionTask(n)
    inputs = DacDecisionTask.paper_initial_inputs(n)
    failures = 0
    for seed in range(seeds):
        system = System({"PAC": NPacSpec(n)}, algorithm2_processes(inputs))
        history = system.run(SeededScheduler(seed), max_steps=4000)
        if not audit_dac_run(task, inputs, history).ok:
            failures += 1
    return failures


def test_e03_report(benchmark):
    benchmark.pedantic(_e03_report, rounds=1, iterations=1)


def _e03_report():
    rows = []
    for n in (2, 3):
        configs = model_check(n)
        rows.append(
            (f"n={n}", "exhaustive (all inputs/schedules)",
             f"{configs} configs", "solved ✓", "solvable (Thm 4.1)")
        )
    for n in (4, 6, 8):
        failures = simulate(n, seeds=30)
        rows.append(
            (f"n={n}", "randomized (30 adversaries)",
             "4000-step runs", "0 failures" if failures == 0 else f"{failures} FAILURES",
             "solvable (Thm 4.1)")
        )
        assert failures == 0
    emit_rows(
        "E3",
        "Theorem 4.1: n-DAC solvable with a single n-PAC object",
        ["n", "method", "scale", "measured", "paper"],
        rows,
    )


def test_e03_bench_model_check_n3(benchmark):
    def run():
        return model_check(3)

    configs = benchmark(run)
    assert configs > 0


def test_e03_bench_simulation_n6(benchmark):
    def run():
        return simulate(6, seeds=5)

    failures = benchmark(run)
    assert failures == 0
