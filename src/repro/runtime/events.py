"""Actions and step records for the asynchronous shared-memory runtime.

A process's behaviour is a stream of *actions*:

* :class:`Invoke` — apply one atomic operation to a named shared object
  (this is "a step" in the paper's sense: one object access);
* :class:`Decide` — the process irrevocably decides a value;
* :class:`Abort` — the process irrevocably aborts (only meaningful for
  the distinguished process of an ``n``-DAC task);
* :class:`Halt` — the process terminates without an output (used by
  client workloads that are not decision tasks).

Decisions, aborts, and halts are *local*: in the paper's model deciding
is not a shared-memory step, so the runtime applies them immediately
without consuming a scheduler step. Only :class:`Invoke` consumes steps
— this matters for valency analysis, where "configuration C is v-valent"
quantifies over shared-memory steps.

A completed step is recorded as a :class:`Step`: who moved, what they
invoked, and what the object answered (including which nondeterministic
outcome the adversary chose).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..types import Operation, ProcessId, Value


@dataclass(frozen=True)
class Invoke:
    """Apply ``operation`` to the shared object named ``obj``."""

    obj: str
    operation: Operation

    def __repr__(self) -> str:
        return f"{self.obj}.{self.operation}"


@dataclass(frozen=True)
class Decide:
    """Irrevocably decide ``value`` (a local action)."""

    value: Value

    def __repr__(self) -> str:
        return f"decide({self.value!r})"


@dataclass(frozen=True)
class Abort:
    """Irrevocably abort (n-DAC distinguished process only)."""

    def __repr__(self) -> str:
        return "abort()"


@dataclass(frozen=True)
class Halt:
    """Terminate without an output (non-decision workloads)."""

    def __repr__(self) -> str:
        return "halt()"


#: Everything a process may ask the runtime to do next.
Action = Union[Invoke, Decide, Abort, Halt]

#: Local (non-step-consuming) actions.
TERMINAL_ACTIONS = (Decide, Abort, Halt)


@dataclass(frozen=True)
class Step:
    """One completed shared-memory step.

    ``index`` — global step number; ``pid`` — the process that moved;
    ``invoke`` — the action taken; ``response`` — the object's answer;
    ``choice`` — which nondeterministic outcome the adversary selected
    (0 for deterministic objects).
    """

    index: int
    pid: ProcessId
    invoke: Invoke
    response: Value
    choice: int = 0

    def __repr__(self) -> str:
        return (
            f"#{self.index} p{self.pid}: {self.invoke} -> {self.response!r}"
            + (f" [choice {self.choice}]" if self.choice else "")
        )
