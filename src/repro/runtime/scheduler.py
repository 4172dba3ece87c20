"""Schedulers: the process-scheduling half of the adversary.

A scheduler repeatedly picks which enabled process moves next. In the
paper's proofs the adversary controls this interleaving completely;
here each scheduler class is one adversary strategy:

* :class:`RoundRobinScheduler` — fair, deterministic;
* :class:`SeededScheduler` — reproducible random interleavings;
* :class:`ScriptedScheduler` — replay an explicit schedule, e.g. a
  counterexample emitted by the explorer;
* :class:`AlternatingScheduler` — tight alternation between two pids,
  the classic recipe for making PAC decides observe intervening
  operations.

Schedulers never see object states — only which processes are enabled —
matching the paper's oblivious/adaptive distinction at the granularity
we need (response choices are the oracle's job, see
:mod:`repro.objects.base`).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import List, Optional, Sequence, Tuple

from ..errors import SchedulingError
from ..types import ProcessId


class Scheduler(ABC):
    """Strategy interface: choose the next process to move."""

    @abstractmethod
    def choose(self, enabled: Sequence[ProcessId], step_index: int) -> ProcessId:
        """Pick one pid from ``enabled`` (guaranteed non-empty)."""


class RoundRobinScheduler(Scheduler):
    """Cycle through processes fairly, skipping disabled ones."""

    def __init__(self) -> None:
        self._last: Optional[ProcessId] = None

    def choose(self, enabled: Sequence[ProcessId], step_index: int) -> ProcessId:
        ordered = sorted(enabled)
        if self._last is None:
            self._last = ordered[0]
            return ordered[0]
        for pid in ordered:
            if pid > self._last:
                self._last = pid
                return pid
        self._last = ordered[0]
        return ordered[0]


class SeededScheduler(Scheduler):
    """Uniformly random choices from a seeded PRNG."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def choose(self, enabled: Sequence[ProcessId], step_index: int) -> ProcessId:
        return self._rng.choice(sorted(enabled))


class ScriptedScheduler(Scheduler):
    """Replay an explicit pid sequence; optional fallback afterwards.

    With ``strict=True`` (default) the script must stay within the
    enabled set and be long enough; with ``strict=False`` exhausted or
    invalid entries fall back to round-robin — useful for replaying an
    explorer counterexample prefix and then letting the run finish.
    """

    def __init__(
        self,
        schedule: Sequence[ProcessId],
        strict: bool = True,
    ) -> None:
        self._schedule: List[ProcessId] = list(schedule)
        self._cursor = 0
        self._strict = strict
        self._fallback = RoundRobinScheduler()

    def choose(self, enabled: Sequence[ProcessId], step_index: int) -> ProcessId:
        if self._cursor < len(self._schedule):
            pid = self._schedule[self._cursor]
            self._cursor += 1
            if pid in enabled:
                return pid
            if self._strict:
                raise SchedulingError(
                    f"scripted schedule names process {pid} at position "
                    f"{self._cursor - 1}, but it is not enabled"
                )
            return self._fallback.choose(enabled, step_index)
        if self._strict:
            raise SchedulingError("scripted schedule exhausted")
        return self._fallback.choose(enabled, step_index)

    @property
    def exhausted(self) -> bool:
        return self._cursor >= len(self._schedule)


class AlternatingScheduler(Scheduler):
    """Strictly alternate between two processes while both are enabled.

    Against Algorithm 2 this adversary forces every PAC decide to
    observe an intervening propose — the maximal-contention schedule
    that exercises the ⊥ path (and, against a lone distinguished
    process plus one rival, forces the abort outcome).
    """

    def __init__(self, first: ProcessId, second: ProcessId) -> None:
        self.pair: Tuple[ProcessId, ProcessId] = (first, second)
        self._turn = 0
        self._fallback = RoundRobinScheduler()

    def choose(self, enabled: Sequence[ProcessId], step_index: int) -> ProcessId:
        for _ in range(2):
            pid = self.pair[self._turn % 2]
            self._turn += 1
            if pid in enabled:
                return pid
        return self._fallback.choose(enabled, step_index)
