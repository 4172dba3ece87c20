"""Tests for process automata and the generator adapter."""

import pytest

from repro.errors import ProtocolError
from repro.runtime.events import Decide, Halt, Invoke
from repro.runtime.process import (
    GeneratorProcess,
    ProcessAutomaton,
)
from repro.types import op
from tests.oracles import FunctionalAutomaton


class TestFunctionalAutomaton:
    def make(self):
        return FunctionalAutomaton(
            pid=0,
            initial=("start",),
            action=lambda s: Invoke("R", op("read"))
            if s[0] == "start"
            else Decide(s[1]),
            update=lambda s, r: ("done", r),
        )

    def test_initial_state(self):
        assert self.make().initial_state() == ("start",)

    def test_next_action_dispatch(self):
        auto = self.make()
        assert auto.next_action(("start",)) == Invoke("R", op("read"))
        assert auto.next_action(("done", 5)) == Decide(5)

    def test_transition(self):
        auto = self.make()
        assert auto.transition(("start",), 9) == ("done", 9)

    def test_supports_snapshot(self):
        assert self.make().supports_snapshot

    def test_repr_mentions_pid(self):
        assert "pid=0" in repr(self.make())


class TestGeneratorProcess:
    def test_yields_become_actions(self):
        def program(pid):
            response = yield Invoke("R", op("read"))
            return response * 2

        process = GeneratorProcess(0, program)
        state = process.initial_state()
        action = process.next_action(state)
        assert action == Invoke("R", op("read"))
        state = process.transition(state, 21)
        assert process.next_action(state) == Decide(42)

    def test_return_none_halts(self):
        def program(pid):
            yield Invoke("R", op("read"))
            return None

        process = GeneratorProcess(0, program)
        state = process.transition(process.initial_state(), 0)
        assert process.next_action(state) == Halt()

    def test_empty_generator_halts_immediately(self):
        def program(pid):
            return
            yield  # pragma: no cover - makes this a generator function

        process = GeneratorProcess(0, program)
        assert process.next_action(process.initial_state()) == Halt()

    def test_does_not_support_snapshot(self):
        def program(pid):
            yield Invoke("R", op("read"))

        assert not GeneratorProcess(0, program).supports_snapshot

    def test_extra_args_forwarded(self):
        def program(pid, value):
            yield Invoke("R", op("write", value))
            return value

        process = GeneratorProcess(3, program, "payload")
        action = process.next_action(process.initial_state())
        assert action == Invoke("R", op("write", "payload"))

    def test_bad_yield_raises(self):
        def program(pid):
            yield "not an action"

        with pytest.raises(ProtocolError, match="yielded"):
            GeneratorProcess(0, program)

    def test_transition_after_finish_raises(self):
        def program(pid):
            return 1
            yield  # pragma: no cover

        process = GeneratorProcess(0, program)
        with pytest.raises(ProtocolError, match="finished"):
            process.transition(process.initial_state(), None)

    def test_multiple_invokes(self):
        def program(pid):
            a = yield Invoke("R", op("read"))
            b = yield Invoke("R", op("read"))
            return a + b

        process = GeneratorProcess(0, program)
        state = process.initial_state()
        state = process.transition(state, 1)
        state = process.transition(state, 2)
        assert process.next_action(state) == Decide(3)


class TestAbstractBase:
    def test_cannot_instantiate_abstract(self):
        with pytest.raises(TypeError):
            ProcessAutomaton(0)  # type: ignore[abstract]
