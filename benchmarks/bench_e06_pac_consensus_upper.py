"""E6 — Theorem 5.3 (upper half): (n, m)-PAC solves m-consensus.

Paper claim: the (n, m)-PAC object is at level >= m — its consensus
face solves consensus among m processes. Regenerated rows: per (n, m),
the exhaustive verdict over all binary inputs and all schedules.
"""

import pytest

from repro.analysis.explorer import Explorer
from repro.core.combined import CombinedPacSpec
from repro.protocols.consensus import CombinedPacConsensusProcess
from repro.protocols.tasks import ConsensusTask

from _report import emit_rows


def check(n, m):
    task = ConsensusTask(m)
    configs = 0
    for inputs in task.input_assignments():
        processes = [
            CombinedPacConsensusProcess(pid, value)
            for pid, value in enumerate(inputs)
        ]
        explorer = Explorer({"NMPAC": CombinedPacSpec(n, m)}, processes)
        exploration = explorer.explore()
        assert explorer.check_safety(task, inputs, exploration=exploration) is None
        assert explorer.find_livelock(exploration=exploration) is None
        configs += len(exploration)
    return configs


def test_e06_report(benchmark):
    benchmark.pedantic(_e06_report, rounds=1, iterations=1)


def _e06_report():
    rows = []
    for n, m in [(2, 2), (3, 2), (5, 2), (4, 3), (5, 4)]:
        configs = check(n, m)
        rows.append(
            (
                f"({n},{m})-PAC",
                f"{m}-consensus",
                f"{configs} configs, all schedules",
                "solved ✓",
                "solvable (Thm 5.3 / Obs 5.1(c))",
            )
        )
    emit_rows(
        "E6",
        "(n, m)-PAC solves m-consensus (level >= m)",
        ["object", "task", "scale", "measured", "paper"],
        rows,
    )


def test_e06_bench_check(benchmark):
    configs = benchmark(lambda: check(4, 3))
    assert configs > 0
