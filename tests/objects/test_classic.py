"""Tests for the classical object catalog (hierarchy inhabitants)."""

import pytest

from repro.errors import InvalidOperationError, SpecificationError
from repro.objects.classic import (
    CompareAndSwapSpec,
    FetchAndAddSpec,
    QueueSpec,
    StickyBitSpec,
    TestAndSetSpec,
)
from repro.types import DONE, NIL, op


class TestTestAndSet:
    def test_first_caller_wins(self):
        _state, responses = TestAndSetSpec().run([op("test_and_set")] * 3)
        assert responses == (0, 1, 1)

    def test_read_observes_bit(self):
        spec = TestAndSetSpec()
        _state, responses = spec.run(
            [op("read"), op("test_and_set"), op("read")]
        )
        assert responses == (0, 0, 1)

    def test_rejects_arguments(self):
        with pytest.raises(InvalidOperationError):
            TestAndSetSpec().responses(0, op("test_and_set", 1))


class TestFetchAndAdd:
    def test_returns_previous_value(self):
        spec = FetchAndAddSpec()
        _state, responses = spec.run(
            [op("fetch_and_add", 1), op("fetch_and_add", 2), op("read")]
        )
        assert responses == (0, 1, 3)

    def test_custom_initial(self):
        spec = FetchAndAddSpec(10)
        _state, responses = spec.run([op("fetch_and_add", 5)])
        assert responses == (10,)

    def test_negative_delta(self):
        spec = FetchAndAddSpec(5)
        state, responses = spec.run([op("fetch_and_add", -3)])
        assert state == 2
        assert responses == (5,)


class TestCompareAndSwap:
    def test_successful_cas_installs(self):
        spec = CompareAndSwapSpec()
        state, responses = spec.run([op("compare_and_swap", NIL, "v")])
        assert state == "v"
        assert responses == (NIL,)

    def test_failed_cas_leaves_state(self):
        spec = CompareAndSwapSpec("old")
        state, responses = spec.run([op("compare_and_swap", "wrong", "new")])
        assert state == "old"
        assert responses == ("old",)

    def test_cas_race_one_winner(self):
        spec = CompareAndSwapSpec()
        _state, responses = spec.run(
            [
                op("compare_and_swap", NIL, "a"),
                op("compare_and_swap", NIL, "b"),
            ]
        )
        assert responses == (NIL, "a")

    def test_read(self):
        spec = CompareAndSwapSpec("x")
        _state, responses = spec.run([op("read")])
        assert responses == ("x",)


class TestQueue:
    def test_fifo_order(self):
        spec = QueueSpec()
        _state, responses = spec.run(
            [
                op("enqueue", 1),
                op("enqueue", 2),
                op("dequeue"),
                op("dequeue"),
            ]
        )
        assert responses == (DONE, DONE, 1, 2)

    def test_dequeue_empty_returns_nil(self):
        spec = QueueSpec()
        _state, responses = spec.run([op("dequeue")])
        assert responses == (NIL,)

    def test_preloaded_queue(self):
        spec = QueueSpec(initial=("winner", "loser"))
        _state, responses = spec.run([op("dequeue"), op("dequeue"), op("dequeue")])
        assert responses == ("winner", "loser", NIL)

    def test_peek_does_not_remove(self):
        spec = QueueSpec(initial=(7,))
        state, responses = spec.run([op("peek"), op("peek")])
        assert responses == (7, 7)
        assert state == (7,)

    def test_peek_empty(self):
        _state, responses = QueueSpec().run([op("peek")])
        assert responses == (NIL,)

    def test_interleaved_enqueue_dequeue(self):
        spec = QueueSpec()
        _state, responses = spec.run(
            [
                op("enqueue", "a"),
                op("dequeue"),
                op("dequeue"),
                op("enqueue", "b"),
                op("dequeue"),
            ]
        )
        assert responses == (DONE, "a", NIL, DONE, "b")


class TestStickyBit:
    def test_first_write_sticks(self):
        spec = StickyBitSpec()
        _state, responses = spec.run(
            [op("write", 1), op("write", 0), op("write", 0)]
        )
        assert responses == (1, 1, 1)

    def test_read_before_write_is_nil(self):
        _state, responses = StickyBitSpec().run([op("read")])
        assert responses == (NIL,)

    def test_read_after_write(self):
        _state, responses = StickyBitSpec().run([op("write", 0), op("read")])
        assert responses == (0, 0)

    def test_rejects_nonbinary(self):
        with pytest.raises(SpecificationError):
            StickyBitSpec().responses(NIL, op("write", 7))
