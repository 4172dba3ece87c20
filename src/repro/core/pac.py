"""The ``n``-PAC (pseudo-abortable consensus) object — paper Section 3.

The ``n``-PAC object is the paper's deterministic, non-abortable stand-in
for the abortable ``n``-DAC object of Hadzilacos & Toueg [9]. It supports

* ``PROPOSE(v, i)`` — record proposal ``v`` under label ``i ∈ [1..n]``,
  always answering :data:`~repro.types.DONE`;
* ``DECIDE(i)`` — complete the proposal with label ``i``, answering the
  consensus value, or ⊥ when the object is upset or detected an
  intervening operation.

The object becomes permanently *upset* exactly when its operation
history stops being *legal*: for every label ``i``, the subsequence of
label-``i`` operations must start with a propose and alternate
propose/decide (Lemma 3.2). This module implements Algorithm 1 verbatim
as a :class:`~repro.objects.spec.SequentialSpec` and provides an
*independent* legality checker so the equivalence of the two can be
tested rather than assumed (experiment E2).

Theorem 3.5's Agreement / Validity / Nontriviality properties are
checked over histories by :func:`check_theorem_3_5` (experiment E1).
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..errors import (
    AnalysisError,
    CodecOverflowError,
    InvalidOperationError,
    SpecificationError,
)
from ..types import BOTTOM, DONE, NIL, Operation, Value, is_special, require
from ..objects.spec import Outcome, SequentialSpec, expect_arity, reject_unknown


class PacState:
    """State of an ``n``-PAC object, mirroring Algorithm 1 exactly.

    * ``upset`` — the permanent upset flag;
    * ``proposals`` — the array ``V[1..n]`` (stored 0-indexed);
    * ``last_label`` — the variable ``L`` (label of the last operation if
      it was a propose, else NIL);
    * ``value`` — the variable ``val`` (the consensus value, once fixed).

    An immutable value: assigning a field raises
    :class:`~dataclasses.FrozenInstanceError`, and equal states hash
    equally. Every model-checker miss on a PAC object builds one state
    and looks it up in the explorer's code tables, so the state is a
    ``__slots__`` record that hashes its fields once, at construction,
    and compares by identity, then hash, then fields.
    """

    __slots__ = ("upset", "proposals", "last_label", "value", "_hash")

    upset: bool
    proposals: Tuple[Value, ...]
    last_label: Value
    value: Value

    def __init__(
        self,
        upset: bool,
        proposals: Tuple[Value, ...],
        last_label: Value,
        value: Value,
    ) -> None:
        _set_upset(self, upset)
        _set_proposals(self, proposals)
        _set_last_label(self, last_label)
        _set_value(self, value)
        _set_hash(self, hash((upset, proposals, last_label, value)))

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self._hash == other._hash  # type: ignore[attr-defined]
            and self.proposals == other.proposals  # type: ignore[attr-defined]
            and self.upset == other.upset  # type: ignore[attr-defined]
            and self.last_label == other.last_label  # type: ignore[attr-defined]
            and self.value == other.value  # type: ignore[attr-defined]
        )

    def __repr__(self) -> str:
        return (
            f"PacState(upset={self.upset!r}, proposals={self.proposals!r}, "
            f"last_label={self.last_label!r}, value={self.value!r})"
        )

    def __reduce__(self):
        # Pickle the fields, never the hash: it is PYTHONHASHSEED-
        # dependent and would be stale in any other interpreter (worker
        # processes); unpickling rehashes through __init__.
        return (
            PacState,
            (self.upset, self.proposals, self.last_label, self.value),
        )

    @staticmethod
    def initial(n: int) -> "PacState":
        return PacState(
            upset=False, proposals=(NIL,) * n, last_label=NIL, value=NIL
        )


# The slot descriptors' setters: __init__ writes through them because
# __setattr__ refuses every assignment (and they are cheaper than
# object.__setattr__'s attribute lookup).
_set_upset = PacState.upset.__set__  # type: ignore[attr-defined]
_set_proposals = PacState.proposals.__set__  # type: ignore[attr-defined]
_set_last_label = PacState.last_label.__set__  # type: ignore[attr-defined]
_set_value = PacState.value.__set__  # type: ignore[attr-defined]
_set_hash = PacState._hash.__set__  # type: ignore[attr-defined]


class NPacSpec(SequentialSpec):
    """Sequential specification of the ``n``-PAC object (Algorithm 1).

    The object is deterministic — the distinguishing feature versus the
    nondeterministic abortable ``n``-DAC object it simulates.

    >>> from repro.types import op, DONE, BOTTOM
    >>> spec = NPacSpec(2)
    >>> _, responses = spec.run([op("propose", 5, 1), op("decide", 1)])
    >>> responses == (DONE, 5)
    True
    >>> # An intervening operation makes the decide return ⊥:
    >>> _, responses = spec.run(
    ...     [op("propose", 5, 1), op("propose", 6, 2), op("decide", 1)])
    >>> responses[2] is BOTTOM
    True
    """

    kind = "n-PAC"
    deterministic = True

    def __init__(self, n: int) -> None:
        require(n >= 1, SpecificationError, f"n-PAC requires n >= 1, got {n}")
        self.n = n
        self.kind = f"{n}-PAC"

    def initial_state(self) -> Hashable:
        return PacState.initial(self.n)

    def operation_names(self) -> Tuple[str, ...]:
        return ("propose", "decide")

    def _label_error(self, label: object) -> InvalidOperationError:
        return InvalidOperationError(
            f"{self.kind}: label must be an integer in [1..{self.n}], "
            f"got {label!r}"
        )

    def responses(self, state: Hashable, operation: Operation) -> Sequence[Outcome]:
        # Every model-checker miss on a PAC object runs this, so the
        # arity and label checks are inline tests; the helpers run only
        # to raise.
        assert isinstance(state, PacState)
        name = operation.name
        args = operation.args
        if name == "propose":
            if len(args) != 2:
                expect_arity(operation, 2, self.kind)
            value, label = args
            if not (isinstance(label, int) and 1 <= label <= self.n):
                raise self._label_error(label)
            if is_special(value):
                raise InvalidOperationError(
                    f"{self.kind}: special value {value!r} may not be proposed"
                )
            return ((self._propose(state, value, label), DONE),)
        if name == "decide":
            if len(args) != 1:
                expect_arity(operation, 1, self.kind)
            label = args[0]
            if not (isinstance(label, int) and 1 <= label <= self.n):
                raise self._label_error(label)
            return (self._decide(state, label),)
        reject_unknown(self, operation)
        raise AssertionError("unreachable")

    def packed_codec(self, bits: int) -> Optional["PacCodec"]:
        """A :class:`PacCodec` packing ``upset``, ``L``, ``val`` and
        ``V[1..n]`` into ``bits`` bits, or None when a proposal value
        would get fewer than 2 bits (n >= 9 in a 24-bit field).

        The footprints are proven for Algorithm 1 as written here, so a
        subclass that changes what an operation does gets no codec.
        """
        own = type(self)
        if (
            own.responses is not NPacSpec.responses
            or own._propose is not NPacSpec._propose
            or own._decide is not NPacSpec._decide
        ):
            return None
        width = (bits - 1 - self.n.bit_length()) // (self.n + 1)
        if width < 2:
            return None
        return PacCodec(self.n, width)

    def _propose(self, state: PacState, value: Value, label: int) -> PacState:
        """Lines 1-6 of Algorithm 1."""
        if state.upset:
            return state  # upset is permanent and freezes the rest
        index = label - 1
        if state.proposals[index] is not NIL:
            return PacState(True, state.proposals, state.last_label, state.value)
        proposals = list(state.proposals)
        proposals[index] = value
        return PacState(False, tuple(proposals), label, state.value)

    def _decide(self, state: PacState, label: int) -> Outcome:
        """Lines 7-17 of Algorithm 1."""
        if state.upset:
            return state, BOTTOM  # upset is permanent and freezes the rest
        index = label - 1
        if state.proposals[index] is NIL:
            return (
                PacState(True, state.proposals, state.last_label, state.value),
                BOTTOM,
            )
        if state.last_label != label:
            response: Value = BOTTOM
            value = state.value
        else:
            value = state.value if state.value is not NIL else state.proposals[index]
            response = value
        proposals = list(state.proposals)
        proposals[index] = NIL
        return PacState(False, tuple(proposals), NIL, value), response


class PacCodec:
    """Structural codes of ``n``-PAC states, for one explorer.

    A state packs into bit fields, low to high: ``upset`` (1 bit),
    ``L`` (``n.bit_length()`` bits: 0 for NIL, else the label), then
    ``val`` and ``V[1..n]`` (``width`` bits each: 0 for NIL, else the
    value's sub-code). Sub-codes are allocated in first-seen order, per
    codec; a value that would need sub-code ``2**width`` raises a
    "packed encoding overflow" :class:`~repro.errors.CodecOverflowError`
    (the explorer then drops the codec and walks again).

    An operation with label ``i`` reads and writes only ``upset``,
    ``L``, ``V[i]`` and, for a decide, ``val`` (:meth:`footprint`), so
    the model checker keys a step on those bits alone.

    Decoding returns the first state encoded under a code, as a dense
    slot does, and builds one from the fields otherwise.
    """

    __slots__ = (
        "n",
        "width",
        "_value_shift",
        "_label_mask",
        "_field_mask",
        "_masks",
        "_all",
        "_values",
        "_sub_codes",
        "_codes",
        "_states",
    )

    def __init__(self, n: int, width: int) -> None:
        self.n = n
        self.width = width
        self._value_shift = 1 + n.bit_length()
        self._label_mask = ((1 << n.bit_length()) - 1) << 1
        self._field_mask = (1 << width) - 1
        head = 1 | self._label_mask
        val_mask = self._field_mask << self._value_shift
        propose = tuple(
            head | (self._field_mask << (self._value_shift + width * label))
            for label in range(n + 1)
        )
        #: operation name -> (arity, footprint per label; index 0 unused).
        self._masks: Dict[str, Tuple[int, Tuple[int, ...]]] = {
            "propose": (2, propose),
            "decide": (1, tuple(mask | val_mask for mask in propose)),
        }
        self._all = (1 << (self._value_shift + width * (n + 1))) - 1
        #: sub-code -> value, and back; NIL is sub-code 0.
        self._values: List[Value] = [NIL]
        self._sub_codes: Dict[Value, int] = {NIL: 0}
        #: encoded or decoded states, both ways.
        self._codes: Dict[PacState, int] = {}
        self._states: Dict[int, PacState] = {}

    def footprint(self, operation: Operation) -> int:
        """The code bits ``operation`` reads or writes: ``upset``,
        ``L``, ``V[label]`` and, for a decide, ``val``. A malformed
        operation gets every bit (the step then raises as usual)."""
        arity, masks = self._masks.get(operation.name, (-1, ()))
        args = operation.args
        if len(args) == arity:
            label = args[-1]
            if isinstance(label, int) and 1 <= label <= self.n:
                return masks[label]
        return self._all

    def code(self, state: PacState) -> int:
        """The code of ``state``, allocating sub-codes for new values."""
        code = self._codes.get(state)
        if code is None:
            if not self._fits(state):
                raise AnalysisError(
                    f"{self.n}-PAC codec: {state!r} is not a {self.n}-PAC state"
                )
            code = self._pack(state, self._sub_code)
            self._codes[state] = code
            self._states.setdefault(code, state)
        return code

    def peek(self, state: Hashable) -> Optional[int]:
        """The code of ``state``, or None if encoding it would allocate."""
        code = self._codes.get(state)  # type: ignore[call-overload]
        if code is not None or not self._fits(state):
            return code
        try:
            return self._pack(state, self._sub_codes.__getitem__)  # type: ignore[arg-type]
        except KeyError:  # a value without a sub-code
            return None

    def state(self, code: int) -> PacState:
        """The state carrying ``code``."""
        state = self._states.get(code)
        if state is None:
            values = self._values
            mask = self._field_mask
            width = self.width
            shift = self._value_shift
            value = values[(code >> shift) & mask]
            proposals = []
            for _ in range(self.n):
                shift += width
                proposals.append(values[(code >> shift) & mask])
            label = (code & self._label_mask) >> 1
            state = PacState(
                bool(code & 1), tuple(proposals), label or NIL, value
            )
            self._states[code] = state
            self._codes.setdefault(state, code)
        return state

    def _pack(self, state: PacState, sub_code: Callable[[Value], int]) -> int:
        label = state.last_label
        shift = self._value_shift
        code = int(state.upset) | ((0 if label is NIL else label) << 1)
        code |= sub_code(state.value) << shift
        for value in state.proposals:
            shift += self.width
            code |= sub_code(value) << shift
        return code

    def _fits(self, state: Hashable) -> bool:
        return (
            state.__class__ is PacState
            and len(state.proposals) == self.n  # type: ignore[attr-defined]
            and (
                state.last_label is NIL  # type: ignore[attr-defined]
                or state.last_label in range(1, self.n + 1)  # type: ignore[attr-defined]
            )
        )

    def _sub_code(self, value: Value) -> int:
        sub = self._sub_codes.get(value)
        if sub is None:
            sub = len(self._values)
            if sub > self._field_mask:
                raise CodecOverflowError(
                    f"packed encoding overflow: a {self.n}-PAC state code "
                    f"holds at most {self._field_mask} distinct proposal "
                    f"values; {value!r} would be value {sub}"
                )
            self._sub_codes[value] = sub
            self._values.append(value)
        return sub


def permute_pac_state(state: Hashable, perm: Sequence[int]) -> "PacState":
    """Relabel a :class:`PacState` through a process permutation.

    Convention (used by Algorithm 2): process ``i`` operates under PAC
    label ``i + 1``, and ``perm[i]`` is the new pid of old pid ``i``.
    Proposal slot ``i`` therefore moves to slot ``perm[i]``, and a
    pending ``last_label`` of ``l`` becomes ``perm[l - 1] + 1``.

    This is a spec automorphism of :class:`NPacSpec`: Algorithm 1 never
    compares labels to anything but each other, so relabelling the state
    and the operations consistently commutes with every transition —
    the condition symmetry reduction needs
    (:mod:`repro.analysis.symmetry`).
    """
    assert isinstance(state, PacState)
    proposals: List[Value] = [NIL] * len(state.proposals)
    for index, value in enumerate(state.proposals):
        proposals[perm[index]] = value
    last_label = state.last_label
    if last_label is not NIL:
        assert isinstance(last_label, int)
        last_label = perm[last_label - 1] + 1
    return PacState(
        upset=state.upset,
        proposals=tuple(proposals),
        last_label=last_label,
        value=state.value,
    )


def is_legal_history(operations: Sequence[Operation], n: int) -> bool:
    """Independent legality check for an ``n``-PAC history (Section 3).

    A history is legal iff, for every label ``i ∈ [1..n]``, the
    subsequence of operations carrying label ``i`` is either empty or
    begins with a propose and alternates propose / decide. Implemented
    directly from the definition — deliberately *not* via Algorithm 1 —
    so that Lemma 3.2 can be validated by comparing this predicate to
    the object's upset flag (experiment E2).
    """
    expecting_propose = {label: True for label in range(1, n + 1)}
    for operation in operations:
        label = _label_of(operation, n)
        if operation.name == "propose":
            if not expecting_propose[label]:
                return False
            expecting_propose[label] = False
        else:
            if expecting_propose[label]:
                return False
            expecting_propose[label] = True
    return True


def upset_after(operations: Sequence[Operation], n: int) -> bool:
    """Run Algorithm 1 over ``operations`` and report the upset flag."""
    spec = NPacSpec(n)
    state, _responses = spec.run(list(operations))
    assert isinstance(state, PacState)
    return state.upset


def _label_of(operation: Operation, n: int) -> int:
    """Extract and validate the label of a PAC operation."""
    if operation.name == "propose":
        if len(operation.args) != 2:
            raise InvalidOperationError(f"malformed PAC propose: {operation}")
        label = operation.args[1]
    elif operation.name == "decide":
        if len(operation.args) != 1:
            raise InvalidOperationError(f"malformed PAC decide: {operation}")
        label = operation.args[0]
    else:
        raise InvalidOperationError(f"not a PAC operation: {operation}")
    if not isinstance(label, int) or not 1 <= label <= n:
        raise InvalidOperationError(f"label out of range in {operation}")
    return label


@dataclass(frozen=True)
class TheoremCheck:
    """Outcome of checking Theorem 3.5 on one history.

    ``ok`` is True when all three properties hold; otherwise
    ``violations`` names each failed property with a human-readable
    explanation.
    """

    ok: bool
    violations: Tuple[str, ...] = ()


def check_theorem_3_5(
    operations: Sequence[Operation], n: int
) -> TheoremCheck:
    """Check Agreement, Validity, and Nontriviality (Theorem 3.5).

    Replays ``operations`` through Algorithm 1, then audits the
    resulting (operation, response) sequence:

    * **Agreement** — all non-⊥ decide responses are equal;
    * **Validity** — every non-⊥ decide response ``v`` is the value of a
      propose operation that *decides* ``v`` (i.e. ``v`` was proposed
      under some label and the matching decide returned ``v``);
    * **Nontriviality** — a decide returns ⊥ iff the object was upset
      before it, or it is the first operation, or the immediately
      preceding operation is not a propose with the same label.
    """
    spec = NPacSpec(n)
    state = spec.initial_state()
    violations: List[str] = []

    decided_values: List[Value] = []
    # For validity: the set of values v such that some propose(v, i)
    # was immediately followed (label-wise) by a decide(i) returning v.
    deciding_proposals: List[Value] = []
    previous_operation: Optional[Operation] = None
    pending_value = {label: None for label in range(1, n + 1)}

    for position, operation in enumerate(operations):
        assert isinstance(state, PacState)
        was_upset = state.upset
        state, response = spec.apply(state, operation)
        label = _label_of(operation, n)
        if operation.name == "propose":
            pending_value[label] = operation.args[0]
        else:
            if response is not BOTTOM:
                decided_values.append(response)
                if pending_value[label] == response:
                    deciding_proposals.append(response)
                _audit_nontriviality_false_positive(
                    position, was_upset, previous_operation, label, violations
                )
            else:
                _audit_nontriviality_false_negative(
                    position, was_upset, previous_operation, label, violations
                )
            pending_value[label] = None
        previous_operation = operation

    distinct = {repr(v): v for v in decided_values}
    if len(distinct) > 1:
        violations.append(
            f"agreement: decide operations returned multiple values "
            f"{sorted(distinct)}"
        )
    for value in decided_values:
        if value not in deciding_proposals:
            violations.append(
                f"validity: decided value {value!r} was never proposed-and-"
                f"decided by a matching pair"
            )
    return TheoremCheck(ok=not violations, violations=tuple(violations))


def _audit_nontriviality_false_positive(
    position: int,
    was_upset: bool,
    previous: Optional[Operation],
    label: int,
    violations: List[str],
) -> None:
    """A decide returned non-⊥: Theorem 3.5(c) says none of the ⊥
    conditions may hold."""
    if was_upset:
        violations.append(
            f"nontriviality: decide at {position} returned non-⊥ on an "
            f"upset object"
        )
    if previous is None or previous.name != "propose" or previous.args[1] != label:
        violations.append(
            f"nontriviality: decide at {position} returned non-⊥ but the "
            f"previous operation is not propose(-, {label})"
        )


def _audit_nontriviality_false_negative(
    position: int,
    was_upset: bool,
    previous: Optional[Operation],
    label: int,
    violations: List[str],
) -> None:
    """A decide returned ⊥: Theorem 3.5(c) says one of the ⊥ conditions
    must hold."""
    condition_i = was_upset
    condition_ii = (
        previous is None
        or previous.name != "propose"
        or previous.args[1] != label
    )
    if not (condition_i or condition_ii):
        violations.append(
            f"nontriviality: decide at {position} returned ⊥ with no "
            f"justifying condition"
        )
