"""The ``(n, m)``-PAC object — paper Section 5.

The ``(n, m)``-PAC object is the "boosted" PAC: an ``n``-PAC object
``P`` glued to an ``m``-consensus object ``C`` behind one interface:

* ``proposeC(v)`` → ``C.PROPOSE(v)``;
* ``proposeP(v, i)`` → ``P.PROPOSE(v, i)``;
* ``decideP(i)`` → ``P.DECIDE(i)``.

It is deterministic (both halves are), and Theorem 5.3 places it at
level ``m`` of the consensus hierarchy for every ``m >= 2``. The paper's
separation object is ``O_n = (n+1, n)-PAC``
(:mod:`repro.core.separation`).

Observation 5.1's three implementability facts are realized as actual
implementations in :mod:`repro.protocols.embodiment` and verified by
linearizability checking (experiment E8); the spec here is the *target*
those implementations are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence, Tuple

from ..errors import SpecificationError
from ..types import Operation, op, require
from ..objects.consensus import MConsensusSpec
from ..objects.spec import Outcome, SequentialSpec, expect_arity, reject_unknown
from .pac import NPacSpec


@dataclass(frozen=True)
class CombinedPacState:
    """Product state: the embedded PAC state and consensus state."""

    pac: Hashable
    consensus: Hashable


class CombinedPacSpec(SequentialSpec):
    """Sequential specification of the ``(n, m)``-PAC object.

    >>> from repro.types import op, DONE
    >>> spec = CombinedPacSpec(3, 2)
    >>> _, responses = spec.run([
    ...     op("proposeC", "x"), op("proposeP", "y", 1), op("decideP", 1)])
    >>> responses == ("x", DONE, "y")
    True
    """

    kind = "(n,m)-PAC"
    deterministic = True

    def __init__(self, n: int, m: int) -> None:
        require(n >= 1, SpecificationError, f"(n,m)-PAC requires n >= 1, got {n}")
        require(m >= 1, SpecificationError, f"(n,m)-PAC requires m >= 1, got {m}")
        self.n = n
        self.m = m
        self.kind = f"({n},{m})-PAC"
        self.pac_spec = NPacSpec(n)
        self.consensus_spec = MConsensusSpec(m)

    def initial_state(self) -> Hashable:
        return CombinedPacState(
            pac=self.pac_spec.initial_state(),
            consensus=self.consensus_spec.initial_state(),
        )

    def operation_names(self) -> Tuple[str, ...]:
        return ("proposeC", "proposeP", "decideP")

    def responses(self, state: Hashable, operation: Operation) -> Sequence[Outcome]:
        assert isinstance(state, CombinedPacState)
        if operation.name == "proposeC":
            expect_arity(operation, 1, self.kind)
            consensus, response = self.consensus_spec.apply(
                state.consensus, op("propose", *operation.args)
            )
            return ((CombinedPacState(state.pac, consensus), response),)
        if operation.name == "proposeP":
            expect_arity(operation, 2, self.kind)
            pac, response = self.pac_spec.apply(
                state.pac, op("propose", *operation.args)
            )
            return ((CombinedPacState(pac, state.consensus), response),)
        if operation.name == "decideP":
            expect_arity(operation, 1, self.kind)
            pac, response = self.pac_spec.apply(
                state.pac, op("decide", *operation.args)
            )
            return ((CombinedPacState(pac, state.consensus), response),)
        reject_unknown(self, operation)
        raise AssertionError("unreachable")
