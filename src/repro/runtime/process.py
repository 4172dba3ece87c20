"""Process representations: pure automata and generator programs.

The canonical process form is :class:`ProcessAutomaton` — a *pure* state
machine over immutable, hashable local states:

* :meth:`ProcessAutomaton.initial_state` — the local state encoding the
  process's input;
* :meth:`ProcessAutomaton.next_action` — what the process does next
  (purely a function of its local state);
* :meth:`ProcessAutomaton.transition` — the new local state after
  receiving a response.

Purity and hashability are what let the model checker
(:mod:`repro.analysis.explorer`) treat whole system configurations as
values: fork them, memoize them, detect cycles — precisely the
configuration calculus of the paper's bivalency proofs.

For protocols that are painful to write as explicit state machines (the
universal construction's helping loop, workload clients), the
:class:`GeneratorProcess` adapter wraps a Python generator. Generators
cannot be snapshotted, so such processes run under the simulator but are
rejected by the explorer (``supports_snapshot`` is False).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Generator, Hashable, Optional

from ..errors import ProtocolError
from ..types import ProcessId, Value
from .events import Action, Decide, Halt, Invoke


class ProcessAutomaton(ABC):
    """A deterministic process as a pure state machine.

    Processes in the paper's model are deterministic: the next step is a
    function of the local state, and the local state after a step is a
    function of the response received. Subclasses must keep local states
    immutable and hashable.
    """

    #: True for automata (snapshot-able); the generator adapter flips it.
    supports_snapshot: bool = True

    def __init__(self, pid: ProcessId) -> None:
        self.pid = pid
        # Memoization for the model checker's hot path. Sound only
        # because automata are pure functions of their local state
        # (the purity contract above); the generator adapter is
        # stateful, so both caches are bypassed when
        # ``supports_snapshot`` is False.
        self._action_cache: dict = {}
        self._transition_cache: dict = {}

    def cached_next_action(self, state: Hashable) -> Action:
        """Memoized :meth:`next_action` (pure automata only).

        Also guarantees *identity*: the same state always yields the
        same :class:`~repro.runtime.events.Action` object, so downstream
        caches keyed on the action hit without deep hashing.
        """
        if not self.supports_snapshot:
            return self.next_action(state)
        action = self._action_cache.get(state)
        if action is None:
            action = self.next_action(state)
            self._action_cache[state] = action
        return action

    def cached_transition(self, state: Hashable, response: Value) -> Hashable:
        """Memoized :meth:`transition` keyed by ``(state, response)``.

        Pure automata only (the adapter bypasses); responses must be
        hashable, which the explorer's configuration calculus already
        requires. Interns the resulting local state: equal inputs
        return the identical state object.
        """
        if not self.supports_snapshot:
            return self.transition(state, response)
        key = (state, response)
        cache = self._transition_cache
        try:
            return cache[key]
        except KeyError:
            successor = self.transition(state, response)
            cache[key] = successor
            return successor

    @abstractmethod
    def initial_state(self) -> Hashable:
        """The process's initial local state (encodes its input)."""

    @abstractmethod
    def next_action(self, state: Hashable) -> Action:
        """The process's next action as a function of its local state."""

    @abstractmethod
    def transition(self, state: Hashable, response: Value) -> Hashable:
        """The local state after receiving ``response`` for the pending
        invoke. Called only when :meth:`next_action` returned an
        :class:`~repro.runtime.events.Invoke`."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} pid={self.pid}>"


class GeneratorProcess(ProcessAutomaton):
    """Adapter: run a Python generator as a process.

    The generator yields :class:`~repro.runtime.events.Invoke` actions
    and receives responses via ``send``; its ``return`` value (if any)
    becomes the process's decision. Example::

        def program(pid, value):
            response = yield Invoke("C", op("propose", value))
            return response  # decide the consensus winner

    Generator state cannot be copied, so ``supports_snapshot`` is False:
    these processes run under :class:`~repro.runtime.system.System` and
    the linearizability harness, never under the explorer. The "local
    state" handed to the runtime is an opaque monotone counter — enough
    for the simulator, useless (and flagged as such) for model checking.
    """

    supports_snapshot = False

    def __init__(
        self,
        pid: ProcessId,
        program: Callable[..., Generator[Action, Value, Any]],
        *args: Any,
    ) -> None:
        super().__init__(pid)
        self._generator = program(pid, *args)
        self._pending: Optional[Action] = None
        self._finished = False
        self._decision_action: Optional[Action] = None
        self._ticks = 0
        self._advance(None, first=True)

    def _advance(self, response: Optional[Value], first: bool = False) -> None:
        try:
            if first:
                yielded = next(self._generator)
            else:
                yielded = self._generator.send(response)
        except StopIteration as stop:
            self._finished = True
            if stop.value is None:
                self._decision_action = Halt()
            else:
                self._decision_action = Decide(stop.value)
            return
        if isinstance(yielded, (Invoke, Decide, Halt)):
            self._pending = yielded
            return
        raise ProtocolError(
            f"process {self.pid}: generator yielded {yielded!r}, expected an "
            f"Invoke/Decide/Halt action"
        )

    def initial_state(self) -> Hashable:
        return 0

    def next_action(self, state: Hashable) -> Action:
        if self._finished:
            assert self._decision_action is not None
            return self._decision_action
        assert self._pending is not None
        return self._pending

    def transition(self, state: Hashable, response: Value) -> Hashable:
        if self._finished:
            raise ProtocolError(
                f"process {self.pid}: transition after the generator finished"
            )
        self._advance(response)
        self._ticks += 1
        return self._ticks
