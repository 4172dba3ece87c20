"""Wait-free implementations: build one object out of others.

"Object A implements object B" is the relation every theorem in the
paper is about. An :class:`Implementation` packages:

* the **target** sequential spec being implemented;
* the **base objects** the implementation is built from;
* per-operation **programs**: generator coroutines that perform base-
  object steps (yield :class:`~repro.runtime.events.Invoke`, receive
  responses) and return the high-level response.

:func:`run_clients` drives ``n`` client processes, each executing a
workload of target operations through the implementation under an
adversarial scheduler, and records the high-level
:class:`~repro.runtime.history.ConcurrentHistory`. The verdict —
"this really is an implementation" — comes from running the
linearizability checker on that history against the target spec
(:func:`check_implementation`), exactly Herlihy & Wing's correctness
condition [11].
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Mapping, Optional, Sequence

from ..objects.base import ResponseOracle
from ..objects.spec import SequentialSpec
from ..runtime.events import Invoke
from ..runtime.history import ConcurrentHistory, RunHistory
from ..runtime.process import GeneratorProcess
from ..runtime.scheduler import Scheduler
from ..runtime.system import System
from ..types import Operation, ProcessId, Value

#: The coroutine type of one high-level operation.
OperationProgram = Generator[Invoke, Value, Value]


class Implementation(ABC):
    """A wait-free implementation of ``target_spec`` from base objects."""

    @abstractmethod
    def target_spec(self) -> SequentialSpec:
        """The sequential spec the implementation must linearize to."""

    @abstractmethod
    def base_objects(self) -> Dict[str, SequentialSpec]:
        """Fresh base-object specs for one instance of the target."""

    @abstractmethod
    def operation_program(
        self, pid: ProcessId, operation: Operation, memory: Dict[str, Any]
    ) -> OperationProgram:
        """The coroutine implementing one high-level operation.

        ``memory`` is the per-process scratchpad that persists across
        the process's operations (local logs, sequence counters).
        """

    def name(self) -> str:
        return type(self).__name__


@dataclass
class ClientRunResult:
    """Everything one harness run produced."""

    history: ConcurrentHistory
    run: RunHistory
    responses: Dict[ProcessId, List[Value]]


def run_clients(
    implementation: Implementation,
    workloads: Mapping[ProcessId, Sequence[Operation]],
    scheduler: Optional[Scheduler] = None,
    oracle: Optional[ResponseOracle] = None,
    max_steps: int = 100_000,
) -> ClientRunResult:
    """Run client processes through ``implementation`` and record the
    high-level concurrent history.

    ``workloads[pid]`` is the sequence of target operations process
    ``pid`` performs, one after another. Each operation's invocation
    and response events are recorded as they happen relative to the
    interleaving the scheduler produces.
    """
    history = ConcurrentHistory()
    responses: Dict[ProcessId, List[Value]] = {
        pid: [] for pid in workloads
    }

    def client(pid: ProcessId, operations: Sequence[Operation]):
        memory: Dict[str, Any] = {}

        def program(my_pid: ProcessId):
            for operation in operations:
                op_id = history.invoke(my_pid, operation)
                response = yield from implementation.operation_program(
                    my_pid, operation, memory
                )
                history.respond(op_id, response)
                # ``responses`` is observer-side measurement state (what
                # each client saw, for the caller) — not protocol shared
                # state, so the R002 discipline does not apply to it.
                responses[my_pid].append(response)  # repro: noqa[R002] harness recording
            return None

        return GeneratorProcess(pid, program)

    processes = [client(pid, workloads[pid]) for pid in sorted(workloads)]
    system = System(implementation.base_objects(), processes, oracle=oracle)
    run = system.run(scheduler=scheduler, max_steps=max_steps)
    return ClientRunResult(history=history, run=run, responses=responses)


def check_implementation(
    implementation: Implementation,
    workloads: Mapping[ProcessId, Sequence[Operation]],
    scheduler: Optional[Scheduler] = None,
    oracle: Optional[ResponseOracle] = None,
    max_steps: int = 100_000,
):
    """Run clients and linearizability-check the resulting history.

    Returns ``(verdict, result)`` where ``verdict`` is a
    :class:`~repro.analysis.linearizability.LinearizabilityVerdict`.
    """
    from ..analysis.linearizability import LinearizabilityChecker

    result = run_clients(
        implementation, workloads, scheduler, oracle, max_steps
    )
    checker = LinearizabilityChecker(implementation.target_spec())
    verdict = checker.check(result.history)
    return verdict, result


class RedirectImplementation(Implementation):
    """An implementation where every target operation is exactly one
    base-object step (an *operation redirect*).

    This is the shape of all three Observation 5.1 implementations and
    of Lemma 6.4's: construct with the target spec, the base-object
    table, and a routing function ``route(operation) -> (obj_name,
    base_operation)``. Single-step redirects of atomic base objects are
    trivially linearizable — and we *check* that anyway.
    """

    def __init__(
        self,
        target: SequentialSpec,
        bases: Dict[str, SequentialSpec],
        route,
        label: str = "redirect",
    ) -> None:
        self._target = target
        self._bases = bases
        self._route = route
        self._label = label

    def target_spec(self) -> SequentialSpec:
        return self._target

    def base_objects(self) -> Dict[str, SequentialSpec]:
        return dict(self._bases)

    def operation_program(
        self, pid: ProcessId, operation: Operation, memory: Dict[str, Any]
    ) -> OperationProgram:
        obj_name, base_operation = self._route(operation)
        response = yield Invoke(obj_name, base_operation)
        return response

    def name(self) -> str:
        return self._label
