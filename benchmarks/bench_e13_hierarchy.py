"""E13 — the consensus hierarchy tour (the paper's ambient structure).

Regenerated rows: the solvability grid object × process-count, with
constructive cells model-checked and separation cells refuted on the
natural candidates. The figure-equivalent of Herlihy's hierarchy table
restricted to our catalog.
"""

import pytest

from repro.analysis.explorer import Explorer
from repro.objects.classic import CompareAndSwapSpec, TestAndSetSpec
from repro.objects.consensus import MConsensusSpec
from repro.objects.register import RegisterSpec
from repro.protocols.candidates import (
    consensus_via_exhausted_consensus,
    consensus_via_strong_sa,
)
from repro.protocols.consensus import (
    CasConsensusProcess,
    TestAndSetConsensusProcess,
    one_shot_consensus_processes,
)
from repro.protocols.tasks import ConsensusTask

from _report import emit_rows


def solves(objects, processes, count):
    inputs = tuple(pid % 2 for pid in range(count))
    explorer = Explorer(objects, processes(inputs))
    return explorer.find_violation(ConsensusTask(count), inputs)[0] == "none"


def grid():
    rows = []
    # m-consensus rows
    for m in (2, 3):
        cells = []
        for count in (2, 3):
            if count <= m:
                ok = solves(
                    {"CONS": MConsensusSpec(m)},
                    lambda i: one_shot_consensus_processes(list(i)),
                    count,
                )
                cells.append("✓" if ok else "✗!")
            else:
                candidate = consensus_via_exhausted_consensus(m)
                explorer = Explorer(candidate.objects, candidate.processes)
                refuted = explorer.check_safety(
                    candidate.task, candidate.inputs
                )
                cells.append("✗" if refuted is not None else "?")
        rows.append((f"{m}-consensus", cells[0], cells[1], f"level {m}"))
    # test-and-set
    ok = solves(
        {"TAS": TestAndSetSpec(), "R0": RegisterSpec(), "R1": RegisterSpec()},
        lambda i: [
            TestAndSetConsensusProcess(pid, v) for pid, v in enumerate(i)
        ],
        2,
    )
    rows.append(("test-and-set", "✓" if ok else "✗!", "✗*", "level 2"))
    # CAS
    cells = [
        "✓" if solves(
            {"CAS": CompareAndSwapSpec()},
            lambda i: [CasConsensusProcess(pid, v) for pid, v in enumerate(i)],
            count,
        ) else "✗!"
        for count in (2, 3)
    ]
    rows.append(("compare-and-swap", cells[0], cells[1], "level ∞"))
    # 2-SA
    cells = []
    for count in (2, 3):
        candidate = consensus_via_strong_sa(count)
        explorer = Explorer(candidate.objects, candidate.processes)
        refuted = explorer.check_safety(candidate.task, candidate.inputs)
        cells.append("✗" if refuted is not None else "?")
    rows.append(("strong 2-SA", cells[0], cells[1], "level 1"))
    return rows


def test_e13_report(benchmark):
    benchmark.pedantic(_e13_report, rounds=1, iterations=1)


def _e13_report():
    rows = [
        (name, c2, c3, level) for name, c2, c3, level in grid()
    ]
    emit_rows(
        "E13",
        "Consensus hierarchy grid (✓ model-checked; ✗ candidate refuted; "
        "✗* classical result taken as known)",
        ["object", "consensus n=2", "consensus n=3", "hierarchy level"],
        rows,
    )
    # Sanity on the expected pattern:
    table = {name: (c2, c3) for name, c2, c3, _level in rows}
    assert table["2-consensus"] == ("✓", "✗")
    assert table["3-consensus"] == ("✓", "✓")
    assert table["strong 2-SA"] == ("✗", "✗")
    assert table["compare-and-swap"] == ("✓", "✓")


def test_e13_bench_grid(benchmark):
    rows = benchmark(grid)
    assert len(rows) >= 5
