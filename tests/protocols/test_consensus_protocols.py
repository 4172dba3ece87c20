"""Tests for the consensus protocol library (hierarchy constructions)."""

import pytest

from repro.analysis.explorer import Explorer
from repro.core.combined import CombinedPacSpec
from repro.errors import SpecificationError
from repro.objects.classic import (
    CompareAndSwapSpec,
    StickyBitSpec,
    TestAndSetSpec,
)
from repro.objects.consensus import MConsensusSpec
from repro.objects.register import RegisterSpec
from repro.protocols.consensus import (
    CasConsensusProcess,
    CombinedPacConsensusProcess,
    OneShotConsensusProcess,
    StickyBitConsensusProcess,
    TestAndSetConsensusProcess,
    one_shot_consensus_processes,
)
from repro.protocols.candidates import ScanningRacerProcess, consensus_via_queue
from repro.protocols.tasks import ConsensusTask
from repro.types import op


def check_all_schedules(objects, processes, task, inputs):
    explorer = Explorer(objects, processes)
    assert explorer.check_safety(task, inputs) is None
    assert explorer.find_livelock() is None  # wait-free: no starvation
    for pid in range(task.num_processes):
        assert explorer.solo_termination(pid)


class TestOneShotConsensus:
    @pytest.mark.parametrize("inputs", [(0, 1), (1, 0), (0, 0), (1, 1)])
    def test_two_processes_all_schedules(self, inputs):
        check_all_schedules(
            {"CONS": MConsensusSpec(2)},
            one_shot_consensus_processes(list(inputs)),
            ConsensusTask(2),
            inputs,
        )

    def test_three_processes_all_schedules(self):
        inputs = (0, 1, 1)
        check_all_schedules(
            {"CONS": MConsensusSpec(3)},
            one_shot_consensus_processes(list(inputs)),
            ConsensusTask(3),
            inputs,
        )


class TestCombinedPacConsensus:
    """Theorem 5.3 upper half / Observation 5.1(c): m processes solve
    consensus through the proposeC face of an (n, m)-PAC."""

    @pytest.mark.parametrize("inputs", [(0, 1), (1, 1)])
    def test_two_processes_via_3_2_pac(self, inputs):
        processes = [
            CombinedPacConsensusProcess(pid, value)
            for pid, value in enumerate(inputs)
        ]
        check_all_schedules(
            {"NMPAC": CombinedPacSpec(3, 2)},
            processes,
            ConsensusTask(2),
            inputs,
        )

    def test_three_processes_via_4_3_pac(self):
        inputs = (0, 1, 0)
        processes = [
            CombinedPacConsensusProcess(pid, value)
            for pid, value in enumerate(inputs)
        ]
        check_all_schedules(
            {"NMPAC": CombinedPacSpec(4, 3)},
            processes,
            ConsensusTask(3),
            inputs,
        )


class TestCasConsensus:
    @pytest.mark.parametrize("count", [2, 3, 4])
    def test_any_process_count(self, count):
        inputs = tuple(pid % 2 for pid in range(count))
        processes = [
            CasConsensusProcess(pid, value)
            for pid, value in enumerate(inputs)
        ]
        check_all_schedules(
            {"CAS": CompareAndSwapSpec()},
            processes,
            ConsensusTask(count),
            inputs,
        )

    def test_winner_is_first_cas(self):
        explorer = Explorer(
            {"CAS": CompareAndSwapSpec()},
            [CasConsensusProcess(0, "a"), CasConsensusProcess(1, "b")],
        )
        config = explorer.step(explorer.initial_configuration(), 1)
        assert explorer.decision_values(config) == frozenset({"b"})


class TestStickyBitConsensus:
    @pytest.mark.parametrize("count", [2, 3])
    def test_binary_consensus(self, count):
        inputs = tuple(pid % 2 for pid in range(count))
        processes = [
            StickyBitConsensusProcess(pid, value)
            for pid, value in enumerate(inputs)
        ]
        check_all_schedules(
            {"STICKY": StickyBitSpec()},
            processes,
            ConsensusTask(count),
            inputs,
        )

    def test_rejects_nonbinary_inputs(self):
        with pytest.raises(SpecificationError):
            StickyBitConsensusProcess(0, "x")


class TestTestAndSetConsensus:
    @pytest.mark.parametrize("inputs", [(0, 1), (1, 0), ("a", "b")])
    def test_two_processes_all_schedules(self, inputs):
        processes = [
            TestAndSetConsensusProcess(pid, value)
            for pid, value in enumerate(inputs)
        ]
        check_all_schedules(
            {
                "TAS": TestAndSetSpec(),
                "R0": RegisterSpec(),
                "R1": RegisterSpec(),
            },
            processes,
            ConsensusTask(2, domain=tuple(sorted(set(inputs))) if len(set(inputs)) > 1 else (0, 1)),
            inputs,
        )

    def test_rejects_third_process(self):
        with pytest.raises(SpecificationError):
            TestAndSetConsensusProcess(2, 0)


class TestQueueConsensus:
    """Herlihy's 2-process queue protocol: the candidate suite's
    ``consensus_via_queue(2)`` positive control."""

    @pytest.mark.parametrize("inputs", [(0, 1), (1, 0)])
    def test_two_processes_all_schedules(self, inputs):
        processes = [
            ScanningRacerProcess(
                pid,
                value,
                num_processes=2,
                race_obj="Q",
                race_operation=op("dequeue"),
                win_response="winner",
            )
            for pid, value in enumerate(inputs)
        ]
        check_all_schedules(
            consensus_via_queue(2).objects,
            processes,
            ConsensusTask(2),
            inputs,
        )

    def test_objects_preload_queue(self):
        objects = consensus_via_queue(2).objects
        assert objects["Q"].initial_state() == ("winner", "loser0")
