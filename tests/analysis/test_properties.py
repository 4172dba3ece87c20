"""Tests for the per-run auditors."""

from repro.analysis.properties import audit_dac_run, audit_task_run
from repro.objects.consensus import MConsensusSpec
from repro.core.pac import NPacSpec
from repro.protocols.consensus import one_shot_consensus_processes
from repro.protocols.dac_from_pac import algorithm2_processes
from repro.protocols.tasks import ConsensusTask, DacDecisionTask
from repro.runtime.scheduler import RoundRobinScheduler, SeededScheduler
from repro.runtime.system import System
from tests.oracles import audit_wait_freedom


def run_consensus(inputs, scheduler=None):
    system = System(
        {"CONS": MConsensusSpec(len(inputs))},
        one_shot_consensus_processes(list(inputs)),
    )
    return system.run(scheduler or RoundRobinScheduler())


class TestAuditTaskRun:
    def test_correct_consensus_run_passes(self):
        history = run_consensus((0, 1, 1))
        audit = audit_task_run(ConsensusTask(3), (0, 1, 1), history)
        assert audit.ok
        assert audit.decided == (0, 1, 2)
        assert audit.undecided == ()

    def test_forged_disagreement_fails(self):
        history = run_consensus((0, 1))
        history.decisions[1] = 1 - history.decisions[1]
        audit = audit_task_run(ConsensusTask(2), (0, 1), history)
        assert not audit.ok
        assert any("agreement" in v for v in audit.safety.violations)

    def test_partial_run_lists_undecided(self):
        system = System(
            {"CONS": MConsensusSpec(2)},
            one_shot_consensus_processes([0, 1]),
        )
        system.run(max_steps=1)
        audit = audit_task_run(ConsensusTask(2), (0, 1), system.history)
        assert audit.ok  # one decision alone violates nothing
        assert len(audit.undecided) == 1


class TestAuditDacRun:
    def run_algorithm2(self, inputs, scheduler=None, max_steps=500):
        system = System(
            {"PAC": NPacSpec(len(inputs))},
            algorithm2_processes(inputs),
        )
        history = system.run(scheduler or RoundRobinScheduler(), max_steps=max_steps)
        return history

    def test_clean_run_passes(self):
        inputs = (1, 0, 0)
        history = self.run_algorithm2(inputs)
        audit = audit_dac_run(DacDecisionTask(3), inputs, history)
        assert audit.ok, audit.safety.violations

    def test_many_seeds_pass(self):
        inputs = (1, 0, 1, 0)
        task = DacDecisionTask(4)
        for seed in range(20):
            history = self.run_algorithm2(inputs, SeededScheduler(seed))
            audit = audit_dac_run(task, inputs, history)
            assert audit.ok, (seed, audit.safety.violations)

    def test_forged_solo_abort_fails_nontriviality(self):
        inputs = (1, 0)
        system = System({"PAC": NPacSpec(2)}, algorithm2_processes(inputs))
        # Nobody stepped, but we forge an abort record for p.
        system.history.aborted.append(0)
        audit = audit_dac_run(DacDecisionTask(2), inputs, system.history)
        assert not audit.ok
        assert any("nontriviality" in v for v in audit.safety.violations)


class TestWaitFreedom:
    def test_within_bound(self):
        history = run_consensus((0, 1, 0))
        audit = audit_wait_freedom(history, step_bound=1)
        assert audit.ok

    def test_over_bound_reports_offenders(self):
        history = run_consensus((0, 1))
        audit = audit_wait_freedom(history, step_bound=0)
        assert not audit.ok
        assert {pid for pid, _count in audit.offenders} == {0, 1}

    def test_exempt_processes_skipped(self):
        history = run_consensus((0, 1))
        audit = audit_wait_freedom(history, step_bound=0, exempt=[0, 1])
        assert audit.ok
