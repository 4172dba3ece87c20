"""Histories: step logs of runs and concurrent operation histories.

Two granularities matter in this library:

* :class:`RunHistory` — the **base-step log** of a simulation: the
  sequence of :class:`~repro.runtime.events.Step` records plus each
  process's final status (decided value / aborted / running). This is
  the artifact the task auditors (:mod:`repro.analysis.properties`)
  consume.

* :class:`ConcurrentHistory` — an **invocation/response history** at
  the granularity of *implemented* (high-level) operations, where each
  operation spans many base steps. This is the input format of the
  linearizability checker (Herlihy & Wing [11]): a sequence of
  :class:`Inv` and :class:`Res` events, where an operation is *pending*
  if its response has not been recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import AnalysisError
from ..types import Operation, ProcessId, Value
from .events import Step


@dataclass
class RunHistory:
    """The complete record of one simulated run.

    ``steps`` — the base-step log, in execution order;
    ``decisions`` — pid → decided value for processes that decided;
    ``aborted`` — pids that aborted;
    ``halted`` — pids that halted without an output;
    ``steps_by_pid`` — step counts (for Nontriviality-style checks).
    """

    steps: List[Step] = field(default_factory=list)
    decisions: Dict[ProcessId, Value] = field(default_factory=dict)
    aborted: List[ProcessId] = field(default_factory=list)
    halted: List[ProcessId] = field(default_factory=list)

    @property
    def steps_by_pid(self) -> Dict[ProcessId, int]:
        counts: Dict[ProcessId, int] = {}
        for step in self.steps:
            counts[step.pid] = counts.get(step.pid, 0) + 1
        return counts

    def schedule(self) -> Tuple[ProcessId, ...]:
        """The schedule (sequence of moving pids) this run followed."""
        return tuple(step.pid for step in self.steps)

    def choices(self) -> Tuple[int, ...]:
        """The adversary's nondeterministic outcome choices, in order."""
        return tuple(step.choice for step in self.steps)

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class Inv:
    """Invocation event of high-level operation ``op_id``."""

    op_id: int
    pid: ProcessId
    operation: Operation

    def __repr__(self) -> str:
        return f"inv[{self.op_id}] p{self.pid} {self.operation}"


@dataclass(frozen=True)
class Res:
    """Response event completing high-level operation ``op_id``."""

    op_id: int
    pid: ProcessId
    response: Value

    def __repr__(self) -> str:
        return f"res[{self.op_id}] p{self.pid} -> {self.response!r}"


@dataclass(frozen=True)
class CompletedOp:
    """A matched invocation/response pair extracted from a history."""

    op_id: int
    pid: ProcessId
    operation: Operation
    response: Value
    inv_index: int
    res_index: Optional[int]

    @property
    def pending(self) -> bool:
        return self.res_index is None


class ConcurrentHistory:
    """An invocation/response history over implemented operations.

    Events are appended in real-time order. Well-formedness (checked on
    every append): per process, operations do not overlap — a process
    invokes, then responds, then may invoke again — and responses match
    a previously invoked, still-pending ``op_id``.
    """

    def __init__(self) -> None:
        self._events: List[object] = []
        self._open_by_pid: Dict[ProcessId, int] = {}
        self._pending: Dict[int, Inv] = {}
        self._next_id = 0

    @property
    def events(self) -> Tuple[object, ...]:
        return tuple(self._events)

    def invoke(self, pid: ProcessId, operation: Operation) -> int:
        """Record an invocation; returns the fresh operation id."""
        if pid in self._open_by_pid:
            raise AnalysisError(
                f"process {pid} invoked {operation} while operation "
                f"{self._open_by_pid[pid]} is still pending"
            )
        op_id = self._next_id
        self._next_id += 1
        event = Inv(op_id, pid, operation)
        self._events.append(event)
        self._open_by_pid[pid] = op_id
        self._pending[op_id] = event
        return op_id

    def respond(self, op_id: int, response: Value) -> None:
        """Record the response completing ``op_id``."""
        if op_id not in self._pending:
            raise AnalysisError(f"response for unknown/completed op {op_id}")
        inv = self._pending.pop(op_id)
        del self._open_by_pid[inv.pid]
        self._events.append(Res(op_id, inv.pid, response))

    def operations(self) -> List[CompletedOp]:
        """All operations, completed and pending, with event indices."""
        inv_index: Dict[int, int] = {}
        inv_event: Dict[int, Inv] = {}
        result: Dict[int, CompletedOp] = {}
        for index, event in enumerate(self._events):
            if isinstance(event, Inv):
                inv_index[event.op_id] = index
                inv_event[event.op_id] = event
            else:
                assert isinstance(event, Res)
                inv = inv_event[event.op_id]
                result[event.op_id] = CompletedOp(
                    op_id=event.op_id,
                    pid=inv.pid,
                    operation=inv.operation,
                    response=event.response,
                    inv_index=inv_index[event.op_id],
                    res_index=index,
                )
        for op_id, inv in self._pending.items():
            result[op_id] = CompletedOp(
                op_id=op_id,
                pid=inv.pid,
                operation=inv.operation,
                response=None,
                inv_index=inv_index[op_id],
                res_index=None,
            )
        return [result[op_id] for op_id in sorted(result)]

    def completed(self) -> List[CompletedOp]:
        """Only the completed operations."""
        return [entry for entry in self.operations() if not entry.pending]

    def precedes(self, first: CompletedOp, second: CompletedOp) -> bool:
        """Real-time order: ``first`` responded before ``second`` invoked.

        This is the partial order a linearization must extend [11].
        """
        return first.res_index is not None and first.res_index < second.inv_index

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:
        return f"<ConcurrentHistory {len(self._events)} events>"
