"""Interference adversaries: tunable contention against PAC pairs.

The abortable behaviour the n-PAC simulates surfaces exactly when an
operation lands *between* a propose and its matching decide. The
:class:`InterferenceScheduler` makes that dial explicit: whenever the
target process has a propose/decide pair in flight, it interposes a
rival step with probability ``intensity`` — so ``intensity = 0`` is a
clean fair run and ``intensity = 1`` is the maximal-contention
adversary of the E3 alternation tests. Experiment E17 sweeps the dial
and measures abort/retry dynamics.
"""

from __future__ import annotations

import random
from typing import Sequence

from ..runtime.scheduler import RoundRobinScheduler, Scheduler
from ..types import ProcessId


class InterferenceScheduler(Scheduler):
    """Interpose rivals between the target's consecutive steps.

    ``target`` — the process whose propose/decide pairs we attack;
    ``intensity`` — probability of interposing a rival immediately
    after each target step; rivals are chosen round-robin among the
    other enabled processes.
    """

    def __init__(
        self,
        target: ProcessId,
        intensity: float,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= intensity <= 1.0:
            raise ValueError(f"intensity must be in [0, 1], got {intensity}")
        self.target = target
        self.intensity = intensity
        self._rng = random.Random(seed)
        self._fallback = RoundRobinScheduler()
        self._interpose_next = False

    def choose(self, enabled: Sequence[ProcessId], step_index: int) -> ProcessId:
        rivals = [pid for pid in enabled if pid != self.target]
        if self.target not in enabled:
            return self._fallback.choose(enabled, step_index)
        if not rivals:
            return self.target
        if self._interpose_next:
            self._interpose_next = False
            return self._fallback.choose(rivals, step_index)
        # Schedule the target; maybe interpose a rival right after.
        self._interpose_next = self._rng.random() < self.intensity
        return self.target
