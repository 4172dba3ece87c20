"""Set agreement objects: the strong 2-SA object and ``(n, k)``-SA objects.

Two families, both from the paper:

* :class:`StrongSetAgreementSpec` — the *strong* ``c``-set-agreement
  object of Section 4 (the paper uses ``c = 2`` and writes 2-SA). Its
  state is the set of the first ``c`` distinct proposed values; every
  ``PROPOSE(v)`` first adds ``v`` if there is room, then returns an
  *arbitrarily selected* element of the set. The arbitrary selection is
  genuine nondeterminism: :meth:`responses` returns one outcome per
  member of the set, and the adversary (oracle or explorer) picks.

* :class:`NKSetAgreementSpec` — the ``(n, k)``-SA object of Section 6
  [2, 6]: up to ``n`` processes may each apply one ``PROPOSE(v)`` and
  receive a value satisfying the ``k``-set agreement requirements
  (validity: a proposed value; agreement: at most ``k`` distinct
  responses). Beyond ``n`` proposes the object answers ⊥. ``n`` may be
  :data:`UNBOUNDED` (the paper's ``n_k = ∞`` case).

Both specs are **nondeterministic** — the only nondeterministic objects
in the paper, a fact that the bivalency case analysis (Claims 4.2.6 and
4.2.7: "since ... both n-consensus objects and registers are
deterministic, O is a 2-SA object") depends on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Sequence, Tuple, Union

from ..errors import InvalidOperationError, SpecificationError
from ..types import BOTTOM, Operation, Value, is_special, require
from ..objects.spec import Outcome, SequentialSpec, expect_arity, reject_unknown


class _Unbounded:
    """Marker for an unbounded port count (the paper's ``∞``)."""

    def __repr__(self) -> str:
        return "∞"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Unbounded)

    def __hash__(self) -> int:
        return hash("repro.unbounded")


#: The paper's ``∞`` for set agreement numbers / port counts.
UNBOUNDED = _Unbounded()

PortCount = Union[int, _Unbounded]


class StrongSetAgreementSpec(SequentialSpec):
    """The strong ``c``-set-agreement object (paper's 2-SA for ``c=2``).

    State: the tuple of the first ``c`` *distinct* values proposed, in
    arrival order (arrival order is immaterial to behaviour but keeps
    states canonical and hashable). ``PROPOSE(v)`` adds ``v`` when
    ``|STATE| < c`` and ``v`` is new, then returns an arbitrary element
    of STATE — hence at most ``c`` distinct responses ever, and they are
    among the first ``c`` distinct proposals (Algorithm 3).

    Any finite number of processes may use the object; it therefore
    solves the ``k``-set agreement problem among any number of processes
    for every ``k >= c``.

    >>> from repro.types import op
    >>> spec = StrongSetAgreementSpec(2)
    >>> state = spec.initial_state()
    >>> state, first = spec.apply(state, op("propose", "a"))
    >>> first
    'a'
    >>> state, _ = spec.apply(state, op("propose", "b"))
    >>> [resp for _, resp in spec.responses(state, op("propose", "c"))]
    ['a', 'b']
    """

    kind = "strong-SA"
    deterministic = False

    def __init__(self, c: int = 2) -> None:
        require(c >= 1, SpecificationError, f"strong SA requires c >= 1, got {c}")
        self.c = c
        self.kind = f"{c}-SA"

    def initial_state(self) -> Hashable:
        return ()

    def operation_names(self) -> Tuple[str, ...]:
        return ("propose",)

    def responses(self, state: Hashable, operation: Operation) -> Sequence[Outcome]:
        if operation.name != "propose":
            reject_unknown(self, operation)
        expect_arity(operation, 1, self.kind)
        value = operation.args[0]
        if is_special(value):
            raise InvalidOperationError(
                f"{self.kind}: special value {value!r} may not be proposed"
            )
        assert isinstance(state, tuple)
        next_state = state
        if len(state) < self.c and value not in state:
            next_state = state + (value,)
        # One outcome per element of STATE: the adversary's "arbitrary
        # selection" (Algorithm 3, line 3).
        return tuple((next_state, chosen) for chosen in next_state)


@dataclass(frozen=True)
class NKSaState:
    """State of an ``(n, k)``-SA object.

    ``proposals`` — distinct values proposed so far (arrival order);
    ``outputs`` — the committed response values (at most ``k``);
    ``applied`` — number of propose operations performed.
    """

    proposals: Tuple[Value, ...] = ()
    outputs: Tuple[Value, ...] = ()
    applied: int = 0


class NKSetAgreementSpec(SequentialSpec):
    """The ``(n, k)``-SA object: ``k``-set agreement for up to ``n`` procs.

    Behaviour of ``PROPOSE(v)``: record ``v`` and answer either (a) any
    already-committed output, or (b) — when fewer than ``k`` outputs are
    committed — any recorded proposal, committing it as a new output.
    Within the first ``n`` proposes this realizes exactly the
    ``(n, k)``-set-agreement task semantics: every response is a
    proposed value, and at most ``k`` distinct responses occur. The
    branching in (a)/(b) is the adversary's freedom; the explorer
    enumerates it, simulations sample it.

    The object is specified "to allow up to ``n`` processes to solve
    k-set agreement" [2, 6]; its behaviour beyond ``n`` proposes is not
    pinned down by the task. We model the over-subscribed regime
    permissively: after ``n`` proposes the object may answer ⊥
    (canonical outcome) *or* keep answering like a set agreement object.
    The permissiveness is what makes Lemma 6.4's implementation from
    ``n``-consensus (which answers ⊥ when exhausted) and 2-SA objects
    (which never answer ⊥) linearizable against this spec — both
    behaviours are allowed, as the paper requires.

    With ``n = UNBOUNDED`` the propose counter never trips, modelling
    the paper's ``n_k = ∞`` entries.
    """

    kind = "(n,k)-SA"
    deterministic = False

    def __init__(self, n: PortCount, k: int) -> None:
        require(k >= 1, SpecificationError, f"(n,k)-SA requires k >= 1, got {k}")
        if not isinstance(n, _Unbounded):
            require(
                isinstance(n, int) and n >= 1,
                SpecificationError,
                f"(n,k)-SA requires n >= 1 or UNBOUNDED, got {n!r}",
            )
        self.n = n
        self.k = k
        self.kind = f"({n},{k})-SA"

    def initial_state(self) -> Hashable:
        return NKSaState()

    def operation_names(self) -> Tuple[str, ...]:
        return ("propose",)

    def _exhausted(self, state: NKSaState) -> bool:
        return not isinstance(self.n, _Unbounded) and state.applied >= self.n

    def responses(self, state: Hashable, operation: Operation) -> Sequence[Outcome]:
        if operation.name != "propose":
            reject_unknown(self, operation)
        expect_arity(operation, 1, self.kind)
        value = operation.args[0]
        if is_special(value):
            raise InvalidOperationError(
                f"{self.kind}: special value {value!r} may not be proposed"
            )
        assert isinstance(state, NKSaState)
        exhausted = self._exhausted(state)
        proposals = state.proposals
        if value not in proposals:
            proposals = proposals + (value,)
        applied = state.applied + 1

        outcomes: List[Outcome] = []
        if exhausted:
            # Over-subscribed: ⊥ is the canonical outcome (outcome 0).
            outcomes.append((NKSaState(proposals, state.outputs, applied), BOTTOM))
        # (a) answer an already-committed output.
        for output in state.outputs:
            outcomes.append(
                (NKSaState(proposals, state.outputs, applied), output)
            )
        # (b) commit a fresh output if there is room under k.
        if len(state.outputs) < self.k:
            for candidate in proposals:
                if candidate in state.outputs:
                    continue
                outcomes.append(
                    (
                        NKSaState(
                            proposals, state.outputs + (candidate,), applied
                        ),
                        candidate,
                    )
                )
        return tuple(outcomes)


def sa_family_for_power(
    power: Sequence[PortCount], c: int = 2
) -> List[NKSetAgreementSpec]:
    """Materialize the collection ``C_n = U_k {(n_k, k)-SA}`` (Section 6).

    ``power`` is a finite prefix ``(n_1, ..., n_K)`` of a set agreement
    power sequence; the returned list holds the corresponding
    ``(n_k, k)``-SA specs. Any bounded execution touches only finitely
    many ``k``, so a finite prefix is observationally faithful (see
    DESIGN.md, substitution table).
    """
    require(
        len(power) >= 1,
        SpecificationError,
        "a set agreement power prefix must have at least one component",
    )
    return [
        NKSetAgreementSpec(n_k, k)
        for k, n_k in enumerate(power, start=1)
    ]
