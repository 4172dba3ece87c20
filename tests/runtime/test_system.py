"""Tests for the System step loop."""

import pytest

from repro.errors import ProtocolError, SchedulingError
from repro.objects.consensus import MConsensusSpec
from repro.objects.register import RegisterSpec
from repro.runtime.events import Decide, Invoke
from repro.runtime.process import GeneratorProcess
from repro.runtime.scheduler import RoundRobinScheduler
from repro.runtime.system import ProcessStatus, System
from repro.types import DONE, op
from tests.oracles import FunctionalAutomaton, SoloScheduler


def writer_reader(pid, value):
    """Write value to R, read it back, decide the read."""

    def action(state):
        if state[0] == "write":
            return Invoke("R", op("write", value))
        if state[0] == "read":
            return Invoke("R", op("read"))
        return Decide(state[1])

    def update(state, response):
        if state[0] == "write":
            return ("read",)
        return ("done", response)

    return FunctionalAutomaton(pid, ("write",), action, update)


class TestStepLoop:
    def test_single_process_run(self):
        system = System({"R": RegisterSpec()}, [writer_reader(0, 7)])
        history = system.run()
        assert history.decisions == {0: 7}
        assert len(history.steps) == 2

    def test_two_processes_round_robin(self):
        system = System(
            {"R": RegisterSpec()},
            [writer_reader(0, "a"), writer_reader(1, "b")],
        )
        history = system.run(RoundRobinScheduler())
        # Interleaving w0 w1 r0 r1: both read "b" ... but process 0
        # reads after process 1's write, so both see "b".
        assert history.decisions[1] == "b"
        assert set(history.decisions) == {0, 1}

    def test_solo_scheduler(self):
        system = System(
            {"R": RegisterSpec()},
            [writer_reader(0, "a"), writer_reader(1, "b")],
        )
        system.run(SoloScheduler(1), stop_when=lambda s: 1 in s.decisions())
        assert system.decisions() == {1: "b"}
        assert system.status_of(0) == ProcessStatus.RUNNING

    def test_crash_removes_from_enabled(self):
        system = System(
            {"R": RegisterSpec()},
            [writer_reader(0, "a"), writer_reader(1, "b")],
        )
        system.crash(0)
        assert system.enabled() == [1]
        history = system.run()
        assert 0 not in history.decisions
        assert system.status_of(0) == ProcessStatus.CRASHED

    def test_step_of_unknown_process(self):
        system = System({"R": RegisterSpec()}, [writer_reader(0, 1)])
        with pytest.raises(SchedulingError):
            system.step(9)

    def test_step_of_terminated_process(self):
        system = System({"R": RegisterSpec()}, [writer_reader(0, 1)])
        system.run()
        with pytest.raises(SchedulingError):
            system.step(0)

    def test_unknown_object_invocation(self):
        def program(pid):
            yield Invoke("MISSING", op("read"))

        system = System({"R": RegisterSpec()}, [GeneratorProcess(0, program)])
        with pytest.raises(ProtocolError, match="unknown object"):
            system.step(0)

    def test_duplicate_pids_rejected(self):
        with pytest.raises(ProtocolError, match="duplicate"):
            System(
                {"R": RegisterSpec()},
                [writer_reader(0, 1), writer_reader(0, 2)],
            )

    def test_max_steps_truncates(self):
        def spinner(pid):
            while True:
                yield Invoke("R", op("read"))

        system = System({"R": RegisterSpec()}, [GeneratorProcess(0, spinner)])
        history = system.run(max_steps=25)
        assert len(history.steps) == 25
        assert system.enabled()

    def test_immediate_decider_takes_no_steps(self):
        auto = FunctionalAutomaton(
            0, ("go",), lambda s: Decide(42), lambda s, r: s
        )
        system = System({}, [auto])
        history = system.run()
        assert history.decisions == {0: 42}
        assert len(history.steps) == 0

    def test_stop_when_predicate(self):
        system = System(
            {"R": RegisterSpec()},
            [writer_reader(0, "a"), writer_reader(1, "b")],
        )
        system.run(stop_when=lambda s: len(s.history.steps) >= 1)
        assert len(system.history.steps) == 1

    def test_consensus_run_records_steps(self):
        from repro.protocols.consensus import one_shot_consensus_processes

        system = System(
            {"CONS": MConsensusSpec(3)},
            one_shot_consensus_processes(["x", "y", "z"]),
        )
        history = system.run()
        assert set(history.decisions.values()) == {"x"}
        assert history.steps_by_pid == {0: 1, 1: 1, 2: 1}

    def test_generator_halt_recorded(self):
        def program(pid):
            yield Invoke("R", op("read"))
            return None

        system = System({"R": RegisterSpec()}, [GeneratorProcess(0, program)])
        history = system.run()
        assert history.halted == [0]
        assert history.decisions == {}
