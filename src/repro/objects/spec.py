"""Sequential specifications: pure transition relations over immutable states.

Every shared object in the library — registers, ``m``-consensus objects,
``n``-PAC objects, strong set agreement objects, the combined
``(n, m)``-PAC, and the separation objects ``O_n`` / ``O'_n`` — is
described by a :class:`SequentialSpec`: an initial state plus a
*transition relation* ``responses(state, operation)`` that enumerates
every atomic outcome ``(next_state, response)`` the object may exhibit.

Three consumers share this single description:

* the **runtime** (:mod:`repro.runtime.system`) executes one outcome per
  scheduler step, asking a response oracle to pick among outcomes of
  nondeterministic objects such as the 2-SA object;
* the **model checker** (:mod:`repro.analysis.explorer`) branches over
  *all* outcomes, which is exactly how the paper's proofs quantify over
  the adversary's response choices;
* the **linearizability checker**
  (:mod:`repro.analysis.linearizability`) replays candidate
  linearization orders through the relation.

States must be immutable and hashable (tuples, frozen dataclasses,
sentinels) so that whole system configurations are hashable values the
explorer can memoize.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Hashable, Optional, Sequence, Tuple

from ..errors import InvalidOperationError
from ..types import Operation, Value

#: One atomic outcome of applying an operation: (next state, response).
Outcome = Tuple[Hashable, Value]


class SequentialSpec(ABC):
    """Abstract sequential specification of a linearizable shared object.

    Subclasses define:

    * :meth:`initial_state` — the object's starting state (immutable,
      hashable);
    * :meth:`responses` — all atomic outcomes of an operation from a
      state. Deterministic objects return exactly one outcome;
      nondeterministic objects (the 2-SA object of Section 4) return one
      outcome per allowed response.

    The base class provides :meth:`apply` (follow one outcome) and
    :meth:`run` (fold a whole operation sequence), which the tests and
    the PAC legality tooling use heavily.
    """

    #: Human-readable kind, e.g. ``"register"`` or ``"2-SA"``.
    kind: str = "object"

    @abstractmethod
    def initial_state(self) -> Hashable:
        """Return the object's initial state."""

    @abstractmethod
    def responses(self, state: Hashable, operation: Operation) -> Sequence[Outcome]:
        """Enumerate every atomic outcome of ``operation`` from ``state``.

        Must return a non-empty sequence; raise
        :class:`~repro.errors.InvalidOperationError` for operations the
        object does not support.
        """

    @property
    def is_deterministic(self) -> bool:
        """True if every operation from every state has one outcome.

        The default implementation returns the class attribute
        ``deterministic`` (True unless a subclass overrides it). The
        paper's case analyses (Claims 4.2.6 and 4.2.7) hinge on which
        objects in a system are deterministic, so specs must report this
        faithfully.
        """
        return getattr(self, "deterministic", True)

    def apply(
        self, state: Hashable, operation: Operation, choice: int = 0
    ) -> Outcome:
        """Apply ``operation`` from ``state`` following outcome ``choice``.

        ``choice`` indexes into :meth:`responses`; deterministic objects
        only accept ``choice == 0``.
        """
        outcomes = self.responses(state, operation)
        if not 0 <= choice < len(outcomes):
            raise InvalidOperationError(
                f"{self.kind}: outcome choice {choice} out of range "
                f"(operation {operation} has {len(outcomes)} outcomes)"
            )
        return outcomes[choice]

    def run(
        self,
        operations: Sequence[Operation],
        choices: Sequence[int] = (),
    ) -> Tuple[Hashable, Tuple[Value, ...]]:
        """Fold a sequence of operations from the initial state.

        ``choices`` optionally fixes the outcome index per step
        (defaulting to 0, the canonical outcome). Returns the final
        state and the tuple of responses — convenient for spec-level
        tests and for the PAC history experiments (E1, E2).
        """
        state = self.initial_state()
        collected = []
        for index, operation in enumerate(operations):
            choice = choices[index] if index < len(choices) else 0
            state, response = self.apply(state, operation, choice)
            collected.append(response)
        return state, tuple(collected)

    def packed_codec(self, bits: int) -> Optional[Any]:
        """A fresh structural code for this object's states, or None.

        The model checker's encoder asks once per explorer and object
        slot, with the slot's width in ``bits``. A codec answers
        ``code(state)`` (allocating), ``peek(state)`` (None rather than
        allocate), ``state(code)`` and ``footprint(operation)``: the
        mask of the code bits ``operation`` reads or writes. States
        equal under an operation's footprint must get the same
        responses and the same new bits under it, and no bit outside
        it may change. None, the default, keeps the slot's dense
        first-seen codes and keys every step on the whole state.
        """
        return None

    def operation_names(self) -> Tuple[str, ...]:
        """Names of the operations this object supports (for docs/tools).

        Subclasses should override; the default is empty, meaning
        "unspecified".
        """
        return ()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} kind={self.kind!r}>"


def reject_unknown(spec: SequentialSpec, operation: Operation) -> None:
    """Raise a uniform error for an unsupported operation name."""
    supported = spec.operation_names()
    hint = f"; supports {', '.join(supported)}" if supported else ""
    raise InvalidOperationError(
        f"{spec.kind} does not support operation {operation.name!r}{hint}"
    )


def expect_arity(operation: Operation, arity: int, kind: str) -> None:
    """Validate the argument count of ``operation`` for object ``kind``."""
    if len(operation.args) != arity:
        raise InvalidOperationError(
            f"{kind}: operation {operation.name!r} expects {arity} "
            f"argument(s), got {len(operation.args)}: {operation}"
        )
