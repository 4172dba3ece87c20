"""Tests for Algorithm 2 (n-DAC from one n-PAC) — Theorem 4.1."""

import pytest

from repro.analysis.explorer import Explorer
from repro.analysis.properties import audit_dac_run
from repro.core.pac import NPacSpec
from repro.errors import SpecificationError
from repro.protocols.dac_from_pac import Algorithm2Process, algorithm2_processes
from repro.protocols.tasks import DacDecisionTask
from repro.runtime.events import Abort, Decide, Invoke
from repro.runtime.scheduler import (
    AlternatingScheduler,
    RoundRobinScheduler,
    SeededScheduler,
)
from repro.runtime.system import System
from repro.types import BOTTOM, op
from tests.oracles import SoloScheduler


class TestAutomatonShape:
    def test_labels_are_pid_plus_one(self):
        process = Algorithm2Process(2, 0, distinguished=False)
        assert process.label == 3

    def test_propose_then_decide(self):
        process = Algorithm2Process(0, 1, distinguished=True)
        state = process.initial_state()
        assert process.next_action(state) == Invoke("PAC", op("propose", 1, 1))
        state = process.transition(state, None)
        assert process.next_action(state) == Invoke("PAC", op("decide", 1))

    def test_distinguished_aborts_on_bottom(self):
        process = Algorithm2Process(0, 1, distinguished=True)
        state = process.transition(process.initial_state(), None)
        state = process.transition(state, BOTTOM)
        assert process.next_action(state) == Abort()

    def test_other_retries_on_bottom(self):
        process = Algorithm2Process(1, 0, distinguished=False)
        state = process.transition(process.initial_state(), None)
        state = process.transition(state, BOTTOM)
        assert process.next_action(state) == Invoke("PAC", op("propose", 0, 2))

    def test_decides_on_value(self):
        process = Algorithm2Process(1, 0, distinguished=False)
        state = process.transition(process.initial_state(), None)
        state = process.transition(state, 1)
        assert process.next_action(state) == Decide(1)

    def test_factory_validates(self):
        with pytest.raises(SpecificationError):
            algorithm2_processes((1,))
        with pytest.raises(SpecificationError):
            algorithm2_processes((1, 0), distinguished=5)

    def test_factory_marks_distinguished(self):
        processes = algorithm2_processes((1, 0, 0), distinguished=1)
        assert [p.distinguished for p in processes] == [False, True, False]


class TestSimulatedRuns:
    def run(self, inputs, scheduler, max_steps=1000):
        system = System(
            {"PAC": NPacSpec(len(inputs))}, algorithm2_processes(inputs)
        )
        return system.run(scheduler, max_steps=max_steps)

    def test_round_robin_all_inputs_n3(self):
        task = DacDecisionTask(3)
        for inputs in task.input_assignments():
            history = self.run(inputs, RoundRobinScheduler())
            audit = audit_dac_run(task, inputs, history)
            assert audit.ok, (inputs, audit.safety.violations)

    def run_solo(self, inputs, pid):
        from repro.runtime.system import ProcessStatus

        system = System(
            {"PAC": NPacSpec(len(inputs))}, algorithm2_processes(inputs)
        )
        return system.run(
            SoloScheduler(pid),
            stop_when=lambda s: s.status_of(pid) != ProcessStatus.RUNNING,
        )

    def test_solo_distinguished_decides_own_input(self):
        history = self.run_solo((1, 0), 0)
        assert history.decisions == {0: 1}
        assert history.aborted == []

    def test_solo_other_decides_own_input(self):
        history = self.run_solo((1, 0), 1)
        assert history.decisions[1] == 0

    def test_alternation_can_force_abort(self):
        """Tight alternation between p and a rival makes p's decide see
        the rival's intervening propose: p aborts (the abortable path)."""
        history = self.run((1, 0, 0), AlternatingScheduler(0, 1))
        assert 0 in history.aborted

    def test_random_schedules_many_seeds(self):
        task = DacDecisionTask(4)
        inputs = (1, 0, 1, 0)
        for seed in range(25):
            history = self.run(inputs, SeededScheduler(seed), max_steps=2000)
            audit = audit_dac_run(task, inputs, history)
            assert audit.ok, (seed, audit.safety.violations)

    def test_distinguished_always_terminates_quickly(self):
        """Termination (a): p decides or aborts within two of its own
        steps, under any adversary."""
        for seed in range(15):
            history = self.run((1, 0, 0), SeededScheduler(seed))
            assert history.steps_by_pid.get(0, 0) <= 2


class TestModelChecked:
    """Theorem 4.1 verified over every schedule and every binary input
    (bounded exploration; the graph is finite because PAC states and
    local states are)."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_safety_over_all_schedules(self, n):
        task = DacDecisionTask(n)
        for inputs in task.input_assignments():
            explorer = Explorer(
                {"PAC": NPacSpec(n)}, algorithm2_processes(inputs)
            )
            assert explorer.check_safety(task, inputs) is None, inputs

    @pytest.mark.parametrize("n", [2, 3])
    def test_solo_termination_everywhere(self, n):
        """Termination (a)/(b) in their solo form, from the initial
        configuration, for every process and every input."""
        task = DacDecisionTask(n)
        for inputs in task.input_assignments():
            explorer = Explorer(
                {"PAC": NPacSpec(n)}, algorithm2_processes(inputs)
            )
            for pid in range(n):
                assert explorer.solo_termination(pid), (inputs, pid)

    def test_nontriviality_on_all_abort_configs(self):
        """Nontriviality: in every reachable configuration where p has
        aborted, some other process has taken a step. We verify via the
        schedule: any abort requires p's decide to return ⊥, which
        requires an intervening operation."""
        inputs = (1, 0, 0)
        explorer = Explorer(
            {"PAC": NPacSpec(3)}, algorithm2_processes(inputs)
        )
        result = explorer.explore()
        assert result.complete
        for config in result.configurations:
            if 0 in config.aborted():
                schedule = result.schedule_to(config)
                other_steps = [e for e in schedule if e.pid != 0]
                assert other_steps, "p aborted in a solo run"
