"""Tests for the doomed candidate algorithms (lower-bound experiments).

Each candidate must fail exactly as the paper's proof predicts:
safety candidates with a concrete violating schedule, liveness
candidates with a concrete adversarial loop.
"""

import pytest

from repro.analysis.explorer import Explorer
from repro.analysis.valency import classify, BIVALENT
from repro.errors import SpecificationError
from repro.protocols.candidates import (
    all_candidates,
    consensus_via_exhausted_consensus,
    consensus_via_pac_retry,
    consensus_via_strong_sa,
    dac_via_consensus,
    dac_via_sa_arbiter,
)


def verdict_for(candidate):
    explorer = Explorer(candidate.objects, candidate.processes)
    counterexample = explorer.check_safety(candidate.task, candidate.inputs)
    if counterexample is not None:
        return "safety", counterexample
    livelock = explorer.find_livelock()
    if livelock is not None:
        return "liveness", livelock
    return "none", None


class TestCandidateSuite:
    def test_every_candidate_fails_as_expected(self):
        for candidate in all_candidates():
            outcome, _witness = verdict_for(candidate)
            assert outcome == candidate.expected_failure, candidate.name

    def test_suite_covers_both_failure_modes_and_controls(self):
        modes = {c.expected_failure for c in all_candidates()}
        assert modes == {"safety", "liveness", "none"}

    def test_candidates_have_notes(self):
        for candidate in all_candidates():
            assert candidate.notes


class TestScanningRacerCandidates:
    """Queue / test-and-set racers: correct at 2 processes (positive
    controls), refuted at 3 — the classical level-2 boundary."""

    def test_queue_correct_at_two(self):
        from repro.protocols.candidates import consensus_via_queue

        candidate = consensus_via_queue(2)
        explorer = Explorer(candidate.objects, candidate.processes)
        assert explorer.check_safety(candidate.task, candidate.inputs) is None
        assert explorer.find_livelock() is None

    def test_queue_refuted_at_three(self):
        from repro.protocols.candidates import consensus_via_queue

        candidate = consensus_via_queue(3)
        explorer = Explorer(candidate.objects, candidate.processes)
        counterexample = explorer.check_safety(candidate.task, candidate.inputs)
        assert counterexample is not None
        assert any(
            "agreement" in violation
            for violation in counterexample.verdict.violations
        )

    def test_tas_correct_at_two(self):
        from repro.protocols.candidates import consensus_via_test_and_set

        candidate = consensus_via_test_and_set(2)
        explorer = Explorer(candidate.objects, candidate.processes)
        assert explorer.check_safety(candidate.task, candidate.inputs) is None

    def test_tas_refuted_at_three(self):
        from repro.protocols.candidates import consensus_via_test_and_set

        candidate = consensus_via_test_and_set(3)
        explorer = Explorer(candidate.objects, candidate.processes)
        assert explorer.check_safety(candidate.task, candidate.inputs)

    def test_queue_loser_adopts_winner_value_at_two(self):
        """With 2 processes the loser decides exactly the winner's
        input, for every input pair — i.e. this IS Herlihy's protocol."""
        from repro.protocols.candidates import consensus_via_queue
        from repro.protocols.tasks import ConsensusTask

        for inputs in ConsensusTask(2).input_assignments():
            candidate = consensus_via_queue(2)
            # Rebuild with the right inputs:
            from repro.protocols.candidates import ScanningRacerProcess
            from repro.types import op as make_op

            processes = [
                ScanningRacerProcess(
                    pid, inputs[pid], 2, "Q", make_op("dequeue"), "winner"
                )
                for pid in range(2)
            ]
            explorer = Explorer(candidate.objects, processes)
            result = explorer.explore()
            for config in result.configurations:
                if not config.enabled():
                    assert len(set(config.decisions().values())) == 1


class TestExhaustedConsensusCandidate:
    def test_violating_schedule_is_concrete(self):
        candidate = consensus_via_exhausted_consensus(2)
        explorer = Explorer(candidate.objects, candidate.processes)
        counterexample = explorer.check_safety(candidate.task, candidate.inputs)
        assert counterexample is not None
        # Replay it: the final configuration indeed disagrees.
        cursor = explorer.initial_configuration()
        for edge in counterexample.schedule:
            cursor = explorer.step(cursor, edge.pid, edge.choice)
        assert len(set(cursor.decisions().values())) > 1

    def test_initial_configuration_is_bivalent(self):
        """The Claim 5.2.1 shape on a concrete candidate."""
        candidate = consensus_via_exhausted_consensus(2)
        explorer = Explorer(candidate.objects, candidate.processes)
        assert classify(explorer, explorer.initial_configuration()).label == BIVALENT

    def test_larger_m(self):
        candidate = consensus_via_exhausted_consensus(3)
        outcome, _ = verdict_for(candidate)
        assert outcome == "safety"


class TestStrongSaCandidate:
    def test_violation_uses_response_nondeterminism(self):
        candidate = consensus_via_strong_sa(2)
        explorer = Explorer(candidate.objects, candidate.processes)
        counterexample = explorer.check_safety(candidate.task, candidate.inputs)
        assert counterexample is not None
        # The witness must exercise a non-canonical response choice —
        # the adversary's "arbitrary selection".
        assert any(edge.choice != 0 for edge in counterexample.schedule)

    def test_three_processes_also_fail(self):
        outcome, _ = verdict_for(consensus_via_strong_sa(3))
        assert outcome == "safety"


class TestDacCandidates:
    def test_own_fallback_fails_safety(self):
        outcome, witness = verdict_for(dac_via_consensus(2, fallback="own"))
        assert outcome == "safety"

    def test_spin_fallback_fails_liveness_solo(self):
        """The spin loop violates Termination (b): the loop is a solo
        run of a non-distinguished process that never decides."""
        candidate = dac_via_consensus(2, fallback="spin")
        explorer = Explorer(candidate.objects, candidate.processes)
        livelock = explorer.find_livelock()
        assert livelock is not None
        moving_undecided = {
            pid
            for pid in livelock.moving
            if livelock.entry.statuses[pid][0] == "running"
        }
        # Only non-distinguished processes are allowed to be obliged —
        # and indeed they are the starved ones.
        assert moving_undecided
        assert 0 not in moving_undecided

    def test_sa_arbiter_fails_safety(self):
        outcome, _ = verdict_for(dac_via_sa_arbiter(2))
        assert outcome == "safety"

    def test_fallback_validation(self):
        with pytest.raises(SpecificationError):
            dac_via_consensus(2, fallback="hope")


class TestPacRetryCandidate:
    def test_upset_flooding_livelock(self):
        """Claim 5.2.7's mechanism: consecutive proposes on one label
        upset the PAC; all decides return ⊥ forever."""
        candidate = consensus_via_pac_retry(3, 2)
        explorer = Explorer(candidate.objects, candidate.processes)
        livelock = explorer.find_livelock()
        assert livelock is not None
        # At the livelock entry, the embedded PAC can be (and on the
        # canonical witness is) upset — check it is at least reachable.
        pac_states = [
            state.pac
            for state in livelock.entry.object_states
            if hasattr(state, "pac")
        ]
        assert pac_states

    def test_no_safety_violation(self):
        """The retry candidate is safe — it only fails liveness, the
        subtler failure mode Theorem 5.2's proof handles via the
        upset-flooding induction."""
        candidate = consensus_via_pac_retry(3, 2)
        explorer = Explorer(candidate.objects, candidate.processes)
        assert explorer.check_safety(candidate.task, candidate.inputs) is None
