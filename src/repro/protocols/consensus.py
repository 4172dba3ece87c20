"""Consensus protocols over the object catalog.

These protocols back the constructive halves of the paper's consensus-
number claims (and experiment E13's hierarchy tour):

* :class:`OneShotConsensusProcess` — consensus among ``m`` processes
  from one ``m``-consensus object (propose; decide the response);
* :class:`CombinedPacConsensusProcess` — the same via the ``proposeC``
  face of an ``(n, m)``-PAC object (Theorem 5.3's upper half /
  Observation 5.1(c));
* :class:`CasConsensusProcess` — consensus among any number of
  processes from one compare-and-swap cell (level ∞);
* :class:`StickyBitConsensusProcess` — binary consensus from one sticky
  bit;
* :class:`TestAndSetConsensusProcess` — 2-process consensus from a
  test-and-set bit plus two registers (Herlihy's level-2 protocol).

The 2-process queue protocol is the candidate suite's positive control,
:func:`repro.protocols.candidates.consensus_via_queue` at ``n = 2``.
"""

from __future__ import annotations

from typing import Hashable, List, Sequence

from ..errors import SpecificationError
from ..types import BOTTOM, NIL, ProcessId, Value, op, require
from ..runtime.events import Action, Decide, Invoke
from ..runtime.process import ProcessAutomaton


class OneShotConsensusProcess(ProcessAutomaton):
    """Propose to an ``m``-consensus object; decide its response.

    Correct for up to ``m`` processes (each proposes exactly once, so no
    propose sees ⊥).
    """

    def __init__(self, pid: ProcessId, value: Value, obj: str = "CONS") -> None:
        super().__init__(pid)
        self.value = value
        self.obj = obj

    def initial_state(self) -> Hashable:
        return ("propose",)

    def next_action(self, state: Hashable) -> Action:
        if state[0] == "propose":
            return Invoke(self.obj, op("propose", self.value))
        return Decide(state[1])

    def transition(self, state: Hashable, response: Value) -> Hashable:
        return ("decided", response)


class CombinedPacConsensusProcess(ProcessAutomaton):
    """Consensus via the ``proposeC`` operation of an ``(n, m)``-PAC.

    Observation 5.1(c): the combined object implements its embedded
    ``m``-consensus object — this protocol *is* that implementation in
    use. Correct for up to ``m`` processes.
    """

    def __init__(self, pid: ProcessId, value: Value, obj: str = "NMPAC") -> None:
        super().__init__(pid)
        self.value = value
        self.obj = obj

    def initial_state(self) -> Hashable:
        return ("propose",)

    def next_action(self, state: Hashable) -> Action:
        if state[0] == "propose":
            return Invoke(self.obj, op("proposeC", self.value))
        return Decide(state[1])

    def transition(self, state: Hashable, response: Value) -> Hashable:
        return ("decided", response)


class CasConsensusProcess(ProcessAutomaton):
    """Consensus from one compare-and-swap cell (consensus number ∞).

    ``compare_and_swap(NIL, v)`` returns the pre-existing value: NIL to
    the unique winner (who installed ``v`` and decides it), the winner's
    value to everyone else.
    """

    def __init__(self, pid: ProcessId, value: Value, obj: str = "CAS") -> None:
        super().__init__(pid)
        self.value = value
        self.obj = obj

    def initial_state(self) -> Hashable:
        return ("cas",)

    def next_action(self, state: Hashable) -> Action:
        if state[0] == "cas":
            return Invoke(self.obj, op("compare_and_swap", NIL, self.value))
        return Decide(state[1])

    def transition(self, state: Hashable, response: Value) -> Hashable:
        winner = self.value if response is NIL else response
        return ("decided", winner)


class StickyBitConsensusProcess(ProcessAutomaton):
    """Binary consensus from one sticky bit: write your input, decide
    the stored (first-written) bit. Works for any number of processes —
    on *binary* inputs only."""

    def __init__(self, pid: ProcessId, value: Value, obj: str = "STICKY") -> None:
        super().__init__(pid)
        require(value in (0, 1), SpecificationError, "sticky consensus is binary")
        self.value = value
        self.obj = obj

    def initial_state(self) -> Hashable:
        return ("write",)

    def next_action(self, state: Hashable) -> Action:
        if state[0] == "write":
            return Invoke(self.obj, op("write", self.value))
        return Decide(state[1])

    def transition(self, state: Hashable, response: Value) -> Hashable:
        return ("decided", response)


class TestAndSetConsensusProcess(ProcessAutomaton):
    """Herlihy's 2-process consensus from test-and-set + registers.

    Process ``pid ∈ {0, 1}``: write your input to register ``R{pid}``,
    then ``test_and_set()``. Response 0 → you won, decide your input;
    response 1 → the other process won, read its register and decide
    that. Correct only for two processes (test-and-set is level 2).
    """

    #: Not a pytest test class, despite the Test* name.
    __test__ = False

    def __init__(
        self,
        pid: ProcessId,
        value: Value,
        tas: str = "TAS",
        register_prefix: str = "R",
    ) -> None:
        super().__init__(pid)
        require(pid in (0, 1), SpecificationError, "2-process protocol: pid in {0,1}")
        self.value = value
        self.tas = tas
        self.register_prefix = register_prefix

    def initial_state(self) -> Hashable:
        return ("announce",)

    def next_action(self, state: Hashable) -> Action:
        tag = state[0]
        if tag == "announce":
            return Invoke(f"{self.register_prefix}{self.pid}", op("write", self.value))
        if tag == "race":
            return Invoke(self.tas, op("test_and_set"))
        if tag == "fetch":
            return Invoke(f"{self.register_prefix}{1 - self.pid}", op("read"))
        return Decide(state[1])

    def transition(self, state: Hashable, response: Value) -> Hashable:
        tag = state[0]
        if tag == "announce":
            return ("race",)
        if tag == "race":
            if response == 0:
                return ("decided", self.value)
            return ("fetch",)
        assert tag == "fetch"
        return ("decided", response)


def one_shot_consensus_processes(
    inputs: Sequence[Value], obj: str = "CONS"
) -> List[OneShotConsensusProcess]:
    """Instantiate :class:`OneShotConsensusProcess` for each input."""
    return [
        OneShotConsensusProcess(pid, value, obj)
        for pid, value in enumerate(inputs)
    ]
