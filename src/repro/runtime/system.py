"""The simulator: processes + shared objects + an atomic step loop.

:class:`System` executes the paper's computational model directly: at
each step the scheduler picks an enabled process; the process's pending
:class:`~repro.runtime.events.Invoke` is applied *atomically* to the
named object (the response oracle resolving any nondeterminism); the
process transitions on the response. Local actions — ``Decide``,
``Abort``, ``Halt`` — are absorbed eagerly and do not consume steps,
mirroring the proofs' convention that deciding is not a shared-memory
step.

The run loop stops when every process has terminated, when ``max_steps``
is hit (the adversary's infinite runs, truncated), or when a caller-
supplied predicate fires.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

from ..errors import InvalidOperationError, ProtocolError, SchedulingError
from ..objects.base import FirstOutcomeOracle, ResponseOracle, SharedObject
from ..objects.spec import SequentialSpec
from ..types import ProcessId, Value
from .events import Abort, Decide, Halt, Invoke, Step
from .history import RunHistory
from .process import ProcessAutomaton
from .scheduler import RoundRobinScheduler, Scheduler

#: Object tables accept either live objects or bare specs (auto-wrapped).
ObjectTable = Mapping[str, Union[SharedObject, SequentialSpec]]


class ProcessStatus:
    """Mutable per-process bookkeeping inside a system run."""

    RUNNING = "running"
    DECIDED = "decided"
    ABORTED = "aborted"
    HALTED = "halted"
    CRASHED = "crashed"

    def __init__(self, automaton: ProcessAutomaton) -> None:
        self.automaton = automaton
        self.local_state = automaton.initial_state()
        self.status = self.RUNNING
        self.decision: Optional[Value] = None
        self.steps_taken = 0


class System:
    """A live asynchronous shared-memory system.

    ``objects`` maps names to specs or live objects; ``processes`` are
    automata (including generator adapters). A single ``oracle``
    resolves all object nondeterminism unless individual
    :class:`~repro.objects.base.SharedObject` instances carry their own.
    """

    def __init__(
        self,
        objects: ObjectTable,
        processes: Sequence[ProcessAutomaton],
        oracle: Optional[ResponseOracle] = None,
    ) -> None:
        oracle = oracle or FirstOutcomeOracle()
        self.objects: Dict[str, SharedObject] = {}
        for name, entry in objects.items():
            if isinstance(entry, SharedObject):
                self.objects[name] = entry
            else:
                self.objects[name] = SharedObject(entry, name=name, oracle=oracle)
        self.processes: Dict[ProcessId, ProcessStatus] = {}
        for automaton in processes:
            if automaton.pid in self.processes:
                raise ProtocolError(f"duplicate process id {automaton.pid}")
            self.processes[automaton.pid] = ProcessStatus(automaton)
        self.history = RunHistory()
        self._absorb_local_actions()

    # -- status inspection -------------------------------------------------

    def enabled(self) -> List[ProcessId]:
        """Pids that can take a shared-memory step right now."""
        return sorted(
            pid
            for pid, st in self.processes.items()
            if st.status == ProcessStatus.RUNNING
        )

    def decisions(self) -> Dict[ProcessId, Value]:
        return dict(self.history.decisions)

    def status_of(self, pid: ProcessId) -> str:
        return self.processes[pid].status

    # -- stepping ----------------------------------------------------------

    def crash(self, pid: ProcessId) -> None:
        """Crash a process: it takes no further steps."""
        status = self.processes[pid]
        if status.status == ProcessStatus.RUNNING:
            status.status = ProcessStatus.CRASHED

    def step(self, pid: ProcessId) -> Step:
        """Execute one atomic step of process ``pid``."""
        status = self.processes.get(pid)
        if status is None:
            raise SchedulingError(f"no process with id {pid}")
        if status.status != ProcessStatus.RUNNING:
            raise SchedulingError(
                f"process {pid} cannot step (status: {status.status})"
            )
        action = status.automaton.next_action(status.local_state)
        if not isinstance(action, Invoke):
            raise ProtocolError(
                f"process {pid}: expected a pending Invoke, found {action!r} "
                f"(local actions should have been absorbed)"
            )
        obj = self.objects.get(action.obj)
        if obj is None:
            raise ProtocolError(
                f"process {pid} invoked unknown object {action.obj!r}"
            )
        outcomes = obj.spec.responses(obj.state, action.operation)
        if len(outcomes) == 1:
            choice = 0
        else:
            choice = obj.oracle.choose(obj.name, action.operation, outcomes)
            if not 0 <= choice < len(outcomes):
                raise InvalidOperationError(
                    f"oracle chose outcome {choice} of {len(outcomes)} "
                    f"for {action.operation} on {obj.name!r}"
                )
        obj.state, response = outcomes[choice]
        status.local_state = status.automaton.transition(
            status.local_state, response
        )
        status.steps_taken += 1
        step = Step(
            index=len(self.history.steps),
            pid=pid,
            invoke=action,
            response=response,
            choice=choice,
        )
        self.history.steps.append(step)
        self._absorb_local_actions()
        return step

    def _absorb_local_actions(self) -> None:
        """Apply Decide/Abort/Halt actions immediately (no step cost)."""
        for pid, status in self.processes.items():
            if status.status != ProcessStatus.RUNNING:
                continue
            action = status.automaton.next_action(status.local_state)
            if isinstance(action, Decide):
                status.status = ProcessStatus.DECIDED
                status.decision = action.value
                self.history.decisions[pid] = action.value
            elif isinstance(action, Abort):
                status.status = ProcessStatus.ABORTED
                self.history.aborted.append(pid)
            elif isinstance(action, Halt):
                status.status = ProcessStatus.HALTED
                self.history.halted.append(pid)

    # -- running -----------------------------------------------------------

    def run(
        self,
        scheduler: Optional[Scheduler] = None,
        max_steps: int = 10_000,
        stop_when: Optional[Callable[["System"], bool]] = None,
    ) -> RunHistory:
        """Drive the system until quiescence, a stop, or the step cap.

        Returns the (shared) :class:`~repro.runtime.history.RunHistory`.
        Hitting ``max_steps`` is not an error — adversarial schedules
        legitimately produce unbounded runs; callers inspect the history
        to see whether processes decided.
        """
        scheduler = scheduler or RoundRobinScheduler()
        while len(self.history.steps) < max_steps:
            if stop_when is not None and stop_when(self):
                break
            enabled = self.enabled()
            if not enabled:
                break
            pid = scheduler.choose(enabled, len(self.history.steps))
            if pid not in enabled:
                raise SchedulingError(
                    f"scheduler chose {pid}, not in enabled set {enabled}"
                )
            self.step(pid)
        return self.history
