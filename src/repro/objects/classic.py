"""Classical shared objects used to populate the consensus hierarchy.

These are not part of the paper's construction, but the paper's subject
*is* the consensus hierarchy, and the hierarchy-tour experiment (E13)
needs concrete inhabitants of its levels:

* level 1 — registers (:mod:`repro.objects.register`);
* level 2 — test-and-set, fetch-and-add, FIFO queue (Herlihy);
* level ∞ — compare-and-swap;
* level m — the ``m``-consensus object
  (:mod:`repro.objects.consensus`).

All specs here are deterministic, total, and linearizable.
"""

from __future__ import annotations

from typing import Hashable, Sequence, Tuple

from ..errors import SpecificationError
from ..types import DONE, NIL, Operation, Value, require
from .spec import Outcome, SequentialSpec, expect_arity, reject_unknown


class TestAndSetSpec(SequentialSpec):
    """One-shot test-and-set bit.

    ``test_and_set()`` returns 0 to the first caller (the winner) and 1
    to everyone after; ``read()`` observes the bit. Consensus number 2.

    >>> from repro.types import op
    >>> _, responses = TestAndSetSpec().run([op("test_and_set")] * 3)
    >>> responses
    (0, 1, 1)
    """

    kind = "test-and-set"
    deterministic = True

    def initial_state(self) -> Hashable:
        return 0

    def operation_names(self) -> Tuple[str, ...]:
        return ("test_and_set", "read")

    def responses(self, state: Hashable, operation: Operation) -> Sequence[Outcome]:
        if operation.name == "test_and_set":
            expect_arity(operation, 0, self.kind)
            return ((1, state),)
        if operation.name == "read":
            expect_arity(operation, 0, self.kind)
            return ((state, state),)
        reject_unknown(self, operation)
        raise AssertionError("unreachable")


class FetchAndAddSpec(SequentialSpec):
    """Counter supporting ``fetch_and_add(delta)`` and ``read()``.

    Returns the pre-increment value. Consensus number 2.
    """

    kind = "fetch-and-add"
    deterministic = True

    def __init__(self, initial: int = 0) -> None:
        self.initial = initial

    def initial_state(self) -> Hashable:
        return self.initial

    def operation_names(self) -> Tuple[str, ...]:
        return ("fetch_and_add", "read")

    def responses(self, state: Hashable, operation: Operation) -> Sequence[Outcome]:
        if operation.name == "fetch_and_add":
            expect_arity(operation, 1, self.kind)
            delta = operation.args[0]
            return ((state + delta, state),)
        if operation.name == "read":
            expect_arity(operation, 0, self.kind)
            return ((state, state),)
        reject_unknown(self, operation)
        raise AssertionError("unreachable")


class CompareAndSwapSpec(SequentialSpec):
    """Compare-and-swap cell: consensus number ∞.

    ``compare_and_swap(expect, new)`` installs ``new`` if the current
    value equals ``expect`` and returns the value read either way;
    ``read()`` observes the cell.
    """

    kind = "compare-and-swap"
    deterministic = True

    def __init__(self, initial: Value = NIL) -> None:
        self.initial = initial

    def initial_state(self) -> Hashable:
        return self.initial

    def operation_names(self) -> Tuple[str, ...]:
        return ("compare_and_swap", "read")

    def responses(self, state: Hashable, operation: Operation) -> Sequence[Outcome]:
        if operation.name == "compare_and_swap":
            expect_arity(operation, 2, self.kind)
            expected, new = operation.args
            if state == expected:
                return ((new, state),)
            return ((state, state),)
        if operation.name == "read":
            expect_arity(operation, 0, self.kind)
            return ((state, state),)
        reject_unknown(self, operation)
        raise AssertionError("unreachable")


class QueueSpec(SequentialSpec):
    """FIFO queue: ``enqueue(v)`` / ``dequeue()`` (⊥-free: empty → NIL).

    State is a tuple of queued values, front first. Consensus number 2
    (Herlihy's two-process queue consensus protocol is implemented in
    :mod:`repro.protocols.consensus`).
    """

    kind = "queue"
    deterministic = True

    def __init__(self, initial: Sequence[Value] = ()) -> None:
        self.initial = tuple(initial)

    def initial_state(self) -> Hashable:
        return self.initial

    def operation_names(self) -> Tuple[str, ...]:
        return ("enqueue", "dequeue", "peek")

    def responses(self, state: Hashable, operation: Operation) -> Sequence[Outcome]:
        assert isinstance(state, tuple)
        if operation.name == "enqueue":
            expect_arity(operation, 1, self.kind)
            return ((state + (operation.args[0],), DONE),)
        if operation.name == "dequeue":
            expect_arity(operation, 0, self.kind)
            if not state:
                return ((state, NIL),)
            return ((state[1:], state[0]),)
        if operation.name == "peek":
            expect_arity(operation, 0, self.kind)
            return ((state, state[0] if state else NIL),)
        reject_unknown(self, operation)
        raise AssertionError("unreachable")


class StickyBitSpec(SequentialSpec):
    """A sticky bit: the first write wins and sticks; reads observe it.

    ``write(v)`` for v in {0, 1} sets the bit if unset and returns the
    (now-)stored value; ``read()`` returns the stored value or NIL.
    Sticky bits are the classical "consensus-complete for 2 processes"
    primitive and appear throughout the robustness literature [12].
    """

    kind = "sticky-bit"
    deterministic = True

    def initial_state(self) -> Hashable:
        return NIL

    def operation_names(self) -> Tuple[str, ...]:
        return ("write", "read")

    def responses(self, state: Hashable, operation: Operation) -> Sequence[Outcome]:
        if operation.name == "write":
            expect_arity(operation, 1, self.kind)
            value = operation.args[0]
            require(
                value in (0, 1),
                SpecificationError,
                f"sticky bit stores only 0/1, got {value!r}",
            )
            if state is NIL:
                return ((value, value),)
            return ((state, state),)
        if operation.name == "read":
            expect_arity(operation, 0, self.kind)
            return ((state, state),)
        reject_unknown(self, operation)
        raise AssertionError("unreachable")
