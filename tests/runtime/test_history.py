"""Tests for run histories and concurrent histories."""

import pytest

from repro.errors import AnalysisError
from repro.runtime.events import Invoke, Step
from repro.runtime.history import ConcurrentHistory, Inv, Res, RunHistory
from repro.types import op


def make_step(index, pid, obj="R", operation=None, response=0):
    return Step(
        index=index,
        pid=pid,
        invoke=Invoke(obj, operation or op("read")),
        response=response,
    )


class TestRunHistory:
    def test_steps_by_pid(self):
        history = RunHistory(
            steps=[make_step(0, 0), make_step(1, 1), make_step(2, 0)]
        )
        assert history.steps_by_pid == {0: 2, 1: 1}

    def test_schedule_and_choices(self):
        history = RunHistory(steps=[make_step(0, 2), make_step(1, 0)])
        assert history.schedule() == (2, 0)
        assert history.choices() == (0, 0)

    def test_len(self):
        assert len(RunHistory(steps=[make_step(0, 0)])) == 1


class TestConcurrentHistory:
    def test_invoke_respond_roundtrip(self):
        history = ConcurrentHistory()
        op_id = history.invoke(0, op("enqueue", 1))
        history.respond(op_id, "done")
        completed = history.completed()
        assert len(completed) == 1
        entry = completed[0]
        assert entry.pid == 0
        assert entry.operation == op("enqueue", 1)
        assert entry.response == "done"
        assert not entry.pending

    def test_overlapping_ops_same_process_rejected(self):
        history = ConcurrentHistory()
        history.invoke(0, op("read"))
        with pytest.raises(AnalysisError, match="still pending"):
            history.invoke(0, op("read"))

    def test_response_for_unknown_op_rejected(self):
        history = ConcurrentHistory()
        with pytest.raises(AnalysisError):
            history.respond(99, 1)

    def test_double_response_rejected(self):
        history = ConcurrentHistory()
        op_id = history.invoke(0, op("read"))
        history.respond(op_id, 1)
        with pytest.raises(AnalysisError):
            history.respond(op_id, 1)

    def test_pending_ops_listed(self):
        history = ConcurrentHistory()
        history.invoke(0, op("read"))
        operations = history.operations()
        assert len(operations) == 1
        assert operations[0].pending
        assert history.completed() == []

    def test_precedes_real_time_order(self):
        history = ConcurrentHistory()
        first = history.invoke(0, op("read"))
        history.respond(first, 1)
        second = visible = history.invoke(1, op("read"))
        history.respond(second, 2)
        ops = {entry.op_id: entry for entry in history.operations()}
        assert history.precedes(ops[first], ops[second])
        assert not history.precedes(ops[second], ops[first])

    def test_concurrent_ops_do_not_precede(self):
        history = ConcurrentHistory()
        first = history.invoke(0, op("read"))
        second = history.invoke(1, op("read"))
        history.respond(first, 1)
        history.respond(second, 2)
        ops = {entry.op_id: entry for entry in history.operations()}
        assert not history.precedes(ops[first], ops[second])
        assert not history.precedes(ops[second], ops[first])

    def test_pending_never_precedes(self):
        history = ConcurrentHistory()
        first = history.invoke(0, op("read"))
        second = history.invoke(1, op("read"))
        history.respond(second, 2)
        ops = {entry.op_id: entry for entry in history.operations()}
        assert not history.precedes(ops[first], ops[second])

    def test_events_are_ordered(self):
        history = ConcurrentHistory()
        a = history.invoke(0, op("read"))
        b = history.invoke(1, op("read"))
        history.respond(b, 2)
        history.respond(a, 1)
        events = history.events
        assert isinstance(events[0], Inv) and events[0].op_id == a
        assert isinstance(events[1], Inv) and events[1].op_id == b
        assert isinstance(events[2], Res) and events[2].op_id == b
        assert isinstance(events[3], Res) and events[3].op_id == a

    def test_len_counts_events(self):
        history = ConcurrentHistory()
        op_id = history.invoke(0, op("read"))
        assert len(history) == 1
        history.respond(op_id, 0)
        assert len(history) == 2

    def test_repr(self):
        assert "0 events" in repr(ConcurrentHistory())
