"""Run auditors: check completed simulation runs against task properties.

The explorer proves properties over *all* schedules of small instances;
these auditors check *individual* runs of big instances (randomized
adversaries, long workloads) — the statistical half of every experiment.

* :func:`audit_task_run` — safety of a finished run against any
  :class:`~repro.protocols.tasks.DecisionTask`;
* :func:`audit_dac_run` — the full ``n``-DAC rubric including
  Nontriviality (needs step counts) and the termination bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from ..runtime.history import RunHistory
from ..protocols.tasks import DacDecisionTask, DecisionTask, SafetyVerdict
from ..types import ProcessId, Value


@dataclass(frozen=True)
class RunAudit:
    """Combined verdict for one run: safety plus liveness bookkeeping."""

    safety: SafetyVerdict
    decided: Tuple[ProcessId, ...]
    aborted: Tuple[ProcessId, ...]
    undecided: Tuple[ProcessId, ...]

    @property
    def ok(self) -> bool:
        return self.safety.ok


def audit_task_run(
    task: DecisionTask,
    inputs: Sequence[Value],
    history: RunHistory,
) -> RunAudit:
    """Audit a finished run's outcomes against ``task``'s safety."""
    safety = task.check_safety(inputs, history.decisions, history.aborted)
    decided = tuple(sorted(history.decisions))
    aborted = tuple(sorted(history.aborted))
    terminated = set(decided) | set(aborted) | set(history.halted)
    undecided = tuple(
        pid for pid in range(task.num_processes) if pid not in terminated
    )
    return RunAudit(
        safety=safety, decided=decided, aborted=aborted, undecided=undecided
    )


def audit_dac_run(
    task: DacDecisionTask,
    inputs: Sequence[Value],
    history: RunHistory,
) -> RunAudit:
    """Audit an ``n``-DAC run: safety *and* Nontriviality."""
    base = audit_task_run(task, inputs, history)
    nontrivial = task.check_nontriviality(
        inputs, history.aborted, history.steps_by_pid
    )
    if nontrivial.ok:
        return base
    merged = SafetyVerdict(
        ok=False, violations=base.safety.violations + nontrivial.violations
    )
    return RunAudit(
        safety=merged,
        decided=base.decided,
        aborted=base.aborted,
        undecided=base.undecided,
    )
