"""Decision tasks: what it means for a protocol to be *correct*.

A :class:`DecisionTask` packages, for one distributed decision problem:

* the number of processes and the allowed input assignments (needed by
  the explorer to enumerate initial configurations);
* the **safety predicate** over (inputs, decisions, aborts) — checked
  on every reachable configuration by the explorer and on every
  completed run by the simulation auditors;
* which processes are *obliged to decide* under which liveness rubric
  (wait-free for consensus / set agreement; the weaker distinguished-
  process rubric for ``n``-DAC).

Tasks provided: :class:`ConsensusTask`, :class:`KSetAgreementTask`, and
:class:`DacDecisionTask` (adapting :class:`repro.core.dac.DacTask` to
the uniform interface).
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..errors import SpecificationError
from ..core.dac import DacTask
from ..types import ProcessId, Value, require


@dataclass(frozen=True)
class SafetyVerdict:
    """Outcome of a safety audit: ``ok`` plus explanations on failure."""

    ok: bool
    violations: Tuple[str, ...] = ()

    @staticmethod
    def passed() -> "SafetyVerdict":
        return SafetyVerdict(ok=True)

    @staticmethod
    def failed(*violations: str) -> "SafetyVerdict":
        return SafetyVerdict(ok=False, violations=tuple(violations))


class DecisionTask(ABC):
    """A decision problem for ``num_processes`` asynchronous processes."""

    def __init__(self, num_processes: int) -> None:
        require(
            num_processes >= 1,
            SpecificationError,
            f"a task needs at least one process, got {num_processes}",
        )
        self.num_processes = num_processes

    @abstractmethod
    def input_assignments(self) -> Iterable[Tuple[Value, ...]]:
        """Every input assignment the explorer should try."""

    @abstractmethod
    def check_safety(
        self,
        inputs: Sequence[Value],
        decisions: Mapping[ProcessId, Value],
        aborted: Sequence[ProcessId] = (),
    ) -> SafetyVerdict:
        """Audit (possibly partial) outcomes against the task's safety
        properties. Must be monotone: once violated, forever violated —
        the explorer prunes on first violation."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} n={self.num_processes}>"


class ConsensusTask(DecisionTask):
    """Binary (or small-domain) consensus among ``n`` processes.

    * Agreement — all decided values equal.
    * Validity — every decided value is some process's input.
    """

    def __init__(self, num_processes: int, domain: Sequence[Value] = (0, 1)) -> None:
        super().__init__(num_processes)
        require(
            len(domain) >= 2,
            SpecificationError,
            "consensus needs an input domain with at least two values",
        )
        self.domain = tuple(domain)

    def input_assignments(self) -> Iterable[Tuple[Value, ...]]:
        return itertools.product(self.domain, repeat=self.num_processes)

    def check_safety(
        self,
        inputs: Sequence[Value],
        decisions: Mapping[ProcessId, Value],
        aborted: Sequence[ProcessId] = (),
    ) -> SafetyVerdict:
        violations: List[str] = []
        if aborted:
            violations.append(f"consensus permits no aborts, saw {list(aborted)}")
        values = {repr(v): v for v in decisions.values()}
        if len(values) > 1:
            violations.append(
                f"agreement violated: decisions {sorted(values)}"
            )
        valid_inputs = set(inputs)
        for pid, value in decisions.items():
            if value not in valid_inputs:
                violations.append(
                    f"validity violated: process {pid} decided {value!r}, "
                    f"not an input"
                )
        if violations:
            return SafetyVerdict.failed(*violations)
        return SafetyVerdict.passed()


class KSetAgreementTask(DecisionTask):
    """``k``-set agreement among ``n`` processes.

    * k-Agreement — at most ``k`` distinct decided values.
    * Validity — every decided value is some process's input.

    Inputs default to distinct per-process values (the hardest case:
    with fewer distinct inputs the problem only gets easier).
    """

    def __init__(
        self,
        num_processes: int,
        k: int,
        domain: Optional[Sequence[Value]] = None,
    ) -> None:
        super().__init__(num_processes)
        require(k >= 1, SpecificationError, f"k must be >= 1, got {k}")
        self.k = k
        self.domain = (
            tuple(domain) if domain is not None else tuple(range(num_processes))
        )

    def input_assignments(self) -> Iterable[Tuple[Value, ...]]:
        if len(self.domain) == self.num_processes:
            # Distinct-inputs canonical assignment plus a few collisions.
            yield tuple(self.domain)
            if self.num_processes >= 2:
                collapsed = (self.domain[0],) * self.num_processes
                yield collapsed
        else:
            yield from itertools.product(self.domain, repeat=self.num_processes)

    def check_safety(
        self,
        inputs: Sequence[Value],
        decisions: Mapping[ProcessId, Value],
        aborted: Sequence[ProcessId] = (),
    ) -> SafetyVerdict:
        violations: List[str] = []
        if aborted:
            violations.append(
                f"set agreement permits no aborts, saw {list(aborted)}"
            )
        values = {repr(v): v for v in decisions.values()}
        if len(values) > self.k:
            violations.append(
                f"{self.k}-agreement violated: {len(values)} distinct "
                f"decisions {sorted(values)}"
            )
        valid_inputs = set(inputs)
        for pid, value in decisions.items():
            if value not in valid_inputs:
                violations.append(
                    f"validity violated: process {pid} decided {value!r}, "
                    f"not an input"
                )
        if violations:
            return SafetyVerdict.failed(*violations)
        return SafetyVerdict.passed()


class DacDecisionTask(DecisionTask):
    """The ``n``-DAC problem as a :class:`DecisionTask` (Section 4).

    Wraps :class:`repro.core.dac.DacTask`: binary inputs, Agreement,
    Validity, distinguished-process abort, Nontriviality. The
    Nontriviality check needs step counts, which the explorer supplies
    separately via :meth:`check_nontriviality`.
    """

    def __init__(self, num_processes: int, distinguished: ProcessId = 0) -> None:
        super().__init__(num_processes)
        self.core = DacTask(num_processes, distinguished)
        self.distinguished = distinguished

    def input_assignments(self) -> Iterable[Tuple[Value, ...]]:
        return itertools.product((0, 1), repeat=self.num_processes)

    def check_safety(
        self,
        inputs: Sequence[Value],
        decisions: Mapping[ProcessId, Value],
        aborted: Sequence[ProcessId] = (),
    ) -> SafetyVerdict:
        verdict = self.core.check(
            inputs=dict(enumerate(inputs)),
            decisions=dict(decisions),
            aborted=list(aborted),
            steps_taken=None,
        )
        if verdict.ok:
            return SafetyVerdict.passed()
        return SafetyVerdict.failed(*verdict.violations)

    def check_nontriviality(
        self,
        inputs: Sequence[Value],
        aborted: Sequence[ProcessId],
        steps_taken: Mapping[ProcessId, int],
    ) -> SafetyVerdict:
        """Nontriviality: if ``p`` aborted, someone else took a step."""
        if self.distinguished not in aborted:
            return SafetyVerdict.passed()
        others_moved = any(
            steps_taken.get(pid, 0) > 0
            for pid in range(self.num_processes)
            if pid != self.distinguished
        )
        if others_moved:
            return SafetyVerdict.passed()
        return SafetyVerdict.failed(
            "nontriviality violated: the distinguished process aborted in a "
            "solo run"
        )

    @staticmethod
    def paper_initial_inputs(n: int, distinguished: ProcessId = 0) -> Tuple[int, ...]:
        """The initial configuration ``I`` of Theorem 4.2's proof: the
        distinguished process has input 1, everyone else 0."""
        return tuple(1 if pid == distinguished else 0 for pid in range(n))
