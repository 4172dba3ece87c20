"""Runtime wrappers around sequential specs: live objects and oracles.

A :class:`SharedObject` is a stateful instance of a
:class:`~repro.objects.spec.SequentialSpec`: it holds the current state
and applies operations atomically. Nondeterministic objects consult a
:class:`ResponseOracle` to pick among the outcomes the spec allows — the
oracle *is* the paper's adversary for object responses (the 2-SA object
"returns a value arbitrarily selected from STATE"; someone has to do the
arbitrary selecting).

Oracles provided here:

* :class:`FirstOutcomeOracle` — always the canonical outcome (index 0);
* :class:`SeededOracle` — reproducible pseudo-random choices;
* :class:`ScriptedOracle` — an explicit list of choices (used to replay
  schedules found by the model checker).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Hashable, List, Optional, Sequence

from ..errors import InvalidOperationError, ReplayDivergenceError
from ..types import Operation, Value
from .spec import Outcome, SequentialSpec


class ResponseOracle(ABC):
    """Chooses among the outcomes of a nondeterministic operation."""

    @abstractmethod
    def choose(
        self, obj_name: str, operation: Operation, outcomes: Sequence[Outcome]
    ) -> int:
        """Return the index of the outcome to follow."""


class FirstOutcomeOracle(ResponseOracle):
    """Always follow outcome 0 — the spec's canonical choice."""

    def choose(
        self, obj_name: str, operation: Operation, outcomes: Sequence[Outcome]
    ) -> int:
        return 0


class SeededOracle(ResponseOracle):
    """Uniformly random choices from a seeded PRNG (reproducible runs)."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def choose(
        self, obj_name: str, operation: Operation, outcomes: Sequence[Outcome]
    ) -> int:
        return self._rng.randrange(len(outcomes))


class ScriptedOracle(ResponseOracle):
    """Replays an explicit list of choices.

    The explorer reports counterexample schedules as (process, choice)
    sequences; this oracle replays the choice half of such a schedule.

    Replay discipline matters here: a replayed counterexample that
    silently degrades to outcome 0 past the end of its script (or on an
    out-of-range entry) is no longer the counterexample the explorer
    found. With ``strict=True`` the oracle raises
    :class:`~repro.errors.ReplayDivergenceError` the moment the script
    cannot answer; with ``strict=False`` it falls back to outcome 0.
    """

    def __init__(self, choices: Sequence[int], strict: bool = False) -> None:
        self._choices: List[int] = list(choices)
        self._cursor = 0
        self._strict = strict

    def choose(
        self, obj_name: str, operation: Operation, outcomes: Sequence[Outcome]
    ) -> int:
        if self._cursor < len(self._choices):
            choice = self._choices[self._cursor]
            self._cursor += 1
            if 0 <= choice < len(outcomes):
                return choice
            if self._strict:
                raise ReplayDivergenceError(
                    f"scripted choice {choice} at position {self._cursor - 1} "
                    f"is out of range for {operation} on {obj_name!r} "
                    f"({len(outcomes)} outcomes)"
                )
            return 0
        if self._strict:
            raise ReplayDivergenceError(
                f"choice script exhausted after {len(self._choices)} entries; "
                f"{operation} on {obj_name!r} has no scripted answer"
            )
        return 0

    @property
    def exhausted(self) -> bool:
        """True once every scripted choice has been consumed."""
        return self._cursor >= len(self._choices)


class SharedObject:
    """A live, stateful instance of a sequential specification.

    Operations are applied atomically; the object's entire visible
    behaviour is its sequence of (operation, response) pairs, which is
    recorded by :attr:`history` for the spec-level experiments (E1, E2).
    """

    def __init__(
        self,
        spec: SequentialSpec,
        name: str = "object",
        oracle: Optional[ResponseOracle] = None,
    ) -> None:
        self.spec = spec
        self.name = name
        self.oracle = oracle or FirstOutcomeOracle()
        self._state: Hashable = spec.initial_state()
        self._history: List[tuple] = []

    @property
    def state(self) -> Hashable:
        """The object's current (immutable) state."""
        return self._state

    @state.setter
    def state(self, value: Hashable) -> None:
        self._state = value

    @property
    def history(self) -> tuple:
        """The (operation, response) pairs applied so far, in order."""
        return tuple(self._history)

    def apply(self, operation: Operation) -> Value:
        """Atomically apply ``operation`` and return its response.

        Nondeterministic outcomes are resolved by the oracle.
        """
        outcomes = self.spec.responses(self._state, operation)
        if len(outcomes) == 1:
            choice = 0
        else:
            choice = self.oracle.choose(self.name, operation, outcomes)
            if not 0 <= choice < len(outcomes):
                raise InvalidOperationError(
                    f"oracle chose outcome {choice} of {len(outcomes)} "
                    f"for {operation} on {self.name!r}"
                )
        self._state, response = outcomes[choice]
        self._history.append((operation, response))
        return response

    def __repr__(self) -> str:
        return f"<SharedObject {self.name!r} spec={self.spec.kind!r}>"
