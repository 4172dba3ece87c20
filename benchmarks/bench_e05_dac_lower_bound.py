"""E5 — Theorem 4.2/4.3: no (n+1)-DAC from n-consensus + registers + 2-SA.

Paper claim: the task is unsolvable over that object family (hence the
(n+1)-PAC is unimplementable from it). Quantification over all
algorithms is not testable; the regenerated evidence is the candidate
suite: every natural algorithm fails with a concrete witness — a
violating schedule (safety) or an adversarial starvation loop
(liveness), exactly the two weapons the proof uses.
"""

import pytest

from repro.analysis.explorer import Explorer
from repro.protocols.candidates import (
    dac_via_consensus,
    dac_via_sa_arbiter,
)

from _report import emit_rows


def candidates():
    return [
        dac_via_consensus(2, fallback="own"),
        dac_via_consensus(2, fallback="spin"),
        dac_via_sa_arbiter(2),
        dac_via_consensus(3, fallback="own"),
        dac_via_sa_arbiter(3),
    ]


def refute(candidate):
    explorer = Explorer(candidate.objects, candidate.processes)
    outcome, witness = explorer.find_violation(candidate.task, candidate.inputs)
    if outcome == "safety":
        return (
            "safety",
            f"schedule {' '.join(f'p{e.pid}' for e in witness.schedule)}",
        )
    if outcome == "liveness":
        return (
            "liveness",
            f"loop of {len(witness.cycle)} steps starving "
            f"{sorted(witness.moving)}",
        )
    return ("none", "-")


def test_e05_report(benchmark):
    benchmark.pedantic(_e05_report, rounds=1, iterations=1)


def _e05_report():
    rows = []
    for candidate in candidates():
        outcome, witness = refute(candidate)
        rows.append(
            (candidate.name, outcome, witness, "must fail (Thm 4.2)")
        )
        assert outcome == candidate.expected_failure
    emit_rows(
        "E5",
        "Theorem 4.2: every candidate (n+1)-DAC algorithm over "
        "{n-consensus, registers, 2-SA} is refuted with a concrete witness",
        ["candidate", "failure mode", "witness", "paper"],
        rows,
    )


def test_e05_bench_refutation(benchmark):
    def run():
        return refute(dac_via_consensus(2, fallback="own"))

    outcome, _witness = benchmark(run)
    assert outcome == "safety"
