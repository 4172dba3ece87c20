"""Crash tolerance: Algorithm 2 and consensus with crashed processes.

In the paper's model a crashed process simply stops taking steps —
there is no failure notification. A run crashes ``pid`` by stopping
the step loop once a trigger holds (``System.run(stop_when=...)``),
calling :meth:`~repro.runtime.system.System.crash`, and resuming with
the same scheduler.
"""

from repro.analysis.properties import audit_dac_run
from repro.core.pac import NPacSpec
from repro.objects.consensus import MConsensusSpec
from repro.protocols.consensus import one_shot_consensus_processes
from repro.protocols.dac_from_pac import algorithm2_processes
from repro.protocols.tasks import DacDecisionTask
from repro.runtime.scheduler import RoundRobinScheduler, SeededScheduler
from repro.runtime.system import ProcessStatus, System


def after_global(steps):
    """Trigger: the run has taken ``steps`` steps."""
    return lambda system: len(system.history.steps) >= steps


def after_own(pid, steps):
    """Trigger: ``pid`` has taken ``steps`` of its own steps."""
    return lambda system: system.history.steps_by_pid.get(pid, 0) >= steps


def run_with_crash(system, crashes, scheduler, max_steps=10_000):
    """Run ``system``, crashing each ``(pid, trigger)`` in order once its
    trigger holds, then run the rest under the same scheduler."""
    for pid, trigger in crashes:
        system.run(scheduler, max_steps=max_steps, stop_when=trigger)
        system.crash(pid)
    return system.run(scheduler, max_steps=max_steps)


class TestAlgorithm2CrashTolerance:
    """Algorithm 2 under crashes: survivors satisfy n-DAC safety, and
    surviving non-distinguished processes decide when run after the
    crash (their retry loop clears once contention stops)."""

    def run_case(self, inputs, crashes, scheduler, max_steps=2000):
        system = System(
            {"PAC": NPacSpec(len(inputs))}, algorithm2_processes(inputs)
        )
        history = run_with_crash(system, crashes, scheduler, max_steps)
        return system, history

    def test_distinguished_crash_mid_pair(self):
        """p crashes between its propose and decide. Under round-robin
        the survivors may starve each other forever (allowed: their
        guarantee is solo-run only), but safety holds throughout, and
        once each survivor gets a solo window it decides — p's
        abandoned proposal upsets nobody."""
        from tests.oracles import SoloScheduler

        inputs = (1, 0, 0)
        task = DacDecisionTask(3)
        system, history = self.run_case(
            inputs, [(0, after_own(0, 1))], RoundRobinScheduler(), max_steps=100
        )
        audit = audit_dac_run(task, inputs, history)
        assert audit.ok, audit.safety.violations
        assert system.status_of(0) == ProcessStatus.CRASHED
        # Give each survivor a solo window: both decide.
        for pid in (1, 2):
            system.run(
                SoloScheduler(pid),
                max_steps=len(system.history.steps) + 50,
                stop_when=lambda s, p=pid: s.status_of(p)
                != ProcessStatus.RUNNING,
            )
        assert history.decisions.get(1) == 0
        assert history.decisions.get(2) == 0
        audit = audit_dac_run(task, inputs, history)
        assert audit.ok, audit.safety.violations

    def test_other_crash_mid_pair(self):
        inputs = (1, 0, 0)
        task = DacDecisionTask(3)
        system, history = self.run_case(
            inputs, [(1, after_own(1, 1))], RoundRobinScheduler()
        )
        audit = audit_dac_run(task, inputs, history)
        assert audit.ok, audit.safety.violations
        # The survivors terminated (decided or aborted).
        for pid in (0, 2):
            assert system.status_of(pid) in (
                ProcessStatus.DECIDED,
                ProcessStatus.ABORTED,
            )

    def test_random_crash_storms(self):
        inputs = (1, 0, 1, 0)
        task = DacDecisionTask(4)
        for seed in range(15):
            crash = (1 + seed % 3, after_global(1 + seed % 5))
            system, history = self.run_case(
                inputs, [crash], SeededScheduler(seed)
            )
            audit = audit_dac_run(task, inputs, history)
            assert audit.ok, (seed, audit.safety.violations)

    def test_all_but_one_crash_survivor_decides(self):
        """Termination (b) via crashes: crash everyone except q; q's
        post-crash run is solo, so it must decide."""
        inputs = (1, 0, 0)
        crashes = [(0, after_global(0)), (2, after_global(0))]
        system, history = self.run_case(inputs, crashes, RoundRobinScheduler())
        assert history.decisions.get(1) == 0


class TestConsensusCrashes:
    def test_one_shot_consensus_with_crash(self):
        system = System(
            {"CONS": MConsensusSpec(3)},
            one_shot_consensus_processes([0, 1, 1]),
        )
        history = run_with_crash(
            system, [(0, after_global(0))], RoundRobinScheduler()
        )
        assert 0 not in history.decisions
        values = {history.decisions[pid] for pid in (1, 2)}
        assert len(values) == 1
