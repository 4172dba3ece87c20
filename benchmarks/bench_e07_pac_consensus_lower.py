"""E7 — Theorem 5.2: no (m+1)-consensus from (n, m)-PAC + registers.

Paper claim: the combined object tops out at level m. Regenerated
evidence: the (m+1)-consensus candidates over (n, m)-PAC objects fail —
the PAC-retry candidate livelocks via the Claim 5.2.7 upset-flooding
mechanism (the PAC is upset inside the starvation loop), and the
consensus-face candidate violates agreement on the ⊥ path.
"""

import pytest

from repro.analysis.explorer import Explorer
from repro.core.pac import PacState
from repro.protocols.candidates import (
    consensus_via_exhausted_consensus,
    consensus_via_pac_retry,
)

from _report import emit_rows


def refute_retry(n, m):
    candidate = consensus_via_pac_retry(n, m)
    explorer = Explorer(candidate.objects, candidate.processes)
    outcome, livelock = explorer.find_violation(candidate.task, candidate.inputs)
    assert outcome == "liveness"
    combined_state = livelock.entry.object_states[0]
    pac_upset = isinstance(combined_state.pac, PacState) and combined_state.pac.upset
    return livelock, pac_upset


def test_e07_report(benchmark):
    benchmark.pedantic(_e07_report, rounds=1, iterations=1)


def _e07_report():
    rows = []
    for n, m in [(3, 2), (4, 2), (4, 3)]:
        livelock, pac_upset = refute_retry(n, m)
        rows.append(
            (
                f"{m + 1}-consensus via ({n},{m})-PAC retries",
                "liveness",
                f"loop {len(livelock.cycle)} steps; PAC upset in loop: "
                f"{pac_upset}",
                "must fail (Thm 5.2, Claim 5.2.7)",
            )
        )
    for m in (2, 3):
        candidate = consensus_via_exhausted_consensus(m)
        explorer = Explorer(candidate.objects, candidate.processes)
        counterexample = explorer.check_safety(candidate.task, candidate.inputs)
        assert counterexample is not None
        rows.append(
            (
                candidate.name,
                "safety",
                f"schedule {' '.join(f'p{e.pid}' for e in counterexample.schedule)}",
                "must fail (Thm 5.2 / Claim 5.2.5)",
            )
        )
    emit_rows(
        "E7",
        "Theorem 5.2: (m+1)-consensus candidates over (n, m)-PAC fail — "
        "upset-flooding starvation or ⊥-path disagreement",
        ["candidate", "failure mode", "witness", "paper"],
        rows,
    )


def test_e07_bench_upset_flooding(benchmark):
    def run():
        return refute_retry(3, 2)

    livelock, _upset = benchmark(run)
    assert livelock is not None
