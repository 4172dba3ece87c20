"""Integration: Theorem 5.3 — (n, m)-PAC is at level m of the hierarchy.

The constructive half (solves m-consensus) is model-checked; the
impossibility half ((m+1)-consensus unreachable) is evidenced by the
candidate suite: the natural (m+1)-process algorithms over (n, m)-PAC
objects fail with concrete witnesses, exactly per Claims 5.2.6-5.2.8.
"""

import pytest

from repro.analysis.explorer import Explorer
from repro.analysis.valency import BIVALENT, classify
from repro.core.combined import CombinedPacSpec
from repro.protocols.candidates import consensus_via_pac_retry
from repro.protocols.consensus import CombinedPacConsensusProcess
from repro.protocols.tasks import ConsensusTask


def consensus_explorer(n, m, inputs):
    processes = [
        CombinedPacConsensusProcess(pid, value)
        for pid, value in enumerate(inputs)
    ]
    return Explorer({"NMPAC": CombinedPacSpec(n, m)}, processes)


class TestUpperBound:
    """(n, m)-PAC + nothing else solves consensus among m processes."""

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (5, 2), (4, 3)])
    def test_m_consensus_all_schedules(self, n, m):
        task = ConsensusTask(m)
        for inputs in task.input_assignments():
            explorer = consensus_explorer(n, m, inputs)
            assert explorer.check_safety(task, inputs) is None, inputs
            assert explorer.find_livelock() is None

    def test_wait_free_in_one_step(self):
        explorer = consensus_explorer(3, 2, (0, 1))
        result = explorer.explore()
        # Every maximal path has each process stepping exactly once.
        for config in result.configurations:
            if not config.enabled():
                assert len(result.schedule_to(config)) == 2


class TestLowerBoundEvidence:
    """The (m+1)-consensus attempts fail as Claim 5.2.7 predicts."""

    @pytest.mark.parametrize("n,m", [(3, 2), (4, 2), (4, 3)])
    def test_pac_retry_candidate_livelocks(self, n, m):
        candidate = consensus_via_pac_retry(n, m)
        explorer = Explorer(candidate.objects, candidate.processes)
        assert explorer.check_safety(candidate.task, candidate.inputs) is None
        assert explorer.find_livelock() is not None

    def test_m_plus_1_via_consensus_face_decides_bottom(self):
        """m+1 processes through proposeC: the odd one out receives ⊥
        and cannot decide it (⊥ is not a valid decision) — the naive
        protocol simply gets stuck on what to do, which our candidate
        resolves by deciding its own input, violating agreement."""
        from repro.protocols.candidates import consensus_via_exhausted_consensus

        candidate = consensus_via_exhausted_consensus(2)
        explorer = Explorer(candidate.objects, candidate.processes)
        counterexample = explorer.check_safety(candidate.task, candidate.inputs)
        assert counterexample is not None

    def test_initial_bivalence_claim_5_2_1(self):
        """Claim 5.2.1 on the concrete retry candidate: a bivalent
        initial configuration exists (mixed inputs)."""
        candidate = consensus_via_pac_retry(3, 2)
        explorer = Explorer(candidate.objects, candidate.processes)
        valency = classify(explorer, explorer.initial_configuration())
        # The retry candidate never violates safety, and with mixed
        # inputs both outcomes are reachable:
        assert valency.label == BIVALENT


class TestDeterminism:
    def test_combined_pac_is_deterministic(self):
        """The (n, m)-PAC — and hence O_n — is deterministic, which is
        what makes Corollary 6.7 about *deterministic* objects."""
        for n, m in [(2, 2), (3, 2), (5, 4)]:
            assert CombinedPacSpec(n, m).is_deterministic
