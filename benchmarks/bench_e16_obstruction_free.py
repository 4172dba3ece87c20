"""E16 — the liveness boundary: obstruction-free consensus from registers.

Context row for the hierarchy: registers cannot solve *wait-free*
consensus (level 1), but round-based adopt-commit gives them
*obstruction-free* consensus — precisely the solo-run liveness class of
the n-DAC Termination (b) clause. Regenerated rows: safety over all
schedules, solo-termination (the obstruction-freedom guarantee), and
reachability of round exhaustion (the non-wait-freedom witness).
"""

import pytest

from repro.analysis.explorer import Explorer
from repro.protocols.obstruction_free import (
    adopt_commit_round_objects,
    obstruction_free_processes,
)
from repro.protocols.tasks import ConsensusTask

from _report import emit_rows


def analyze(inputs, max_rounds):
    explorer = Explorer(
        adopt_commit_round_objects(len(inputs), max_rounds),
        obstruction_free_processes(inputs, max_rounds=max_rounds),
    )
    graph = explorer.explore(max_configurations=600_000)
    safe = (
        explorer.check_safety(
            ConsensusTask(len(inputs)), inputs, exploration=graph
        )
        is None
    )
    solo = all(explorer.solo_termination(pid) for pid in range(len(inputs)))
    exhausted = sum(
        1
        for config in graph.configurations
        if any(status[0] == "halted" for status in config.statuses)
    )
    return safe, solo, exhausted, len(graph)


def test_e16_report(benchmark):
    benchmark.pedantic(_e16_report, rounds=1, iterations=1)


def _e16_report():
    rows = []
    for inputs, max_rounds in [((0, 1), 2), ((0, 1), 3), ((0, 1, 1), 1)]:
        safe, solo, exhausted, configs = analyze(inputs, max_rounds)
        rows.append(
            (
                f"n={len(inputs)}, {max_rounds} round(s)",
                f"{configs} configs",
                "safe ✓" if safe else "UNSAFE",
                "solo-decides ✓" if solo else "SOLO STUCK",
                f"{exhausted} exhaustion configs"
                + (" (adversary wins rounds)" if exhausted else ""),
            )
        )
        assert safe and solo
    emit_rows(
        "E16",
        "Registers: obstruction-free consensus ✓ (solo runs decide), "
        "wait-free ✗ (round exhaustion reachable) — the Termination (b) "
        "liveness class, isolated",
        ["instance", "scale", "safety", "obstruction-freedom",
         "wait-freedom counterevidence"],
        rows,
    )


def test_e16_bench_analysis(benchmark):
    safe, solo, _exhausted, _configs = benchmark(
        lambda: analyze((0, 1), 2)
    )
    assert safe and solo
