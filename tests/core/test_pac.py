"""Tests for the n-PAC object (Algorithm 1) — paper Section 3."""

import dataclasses
import pickle

import pytest

from repro.analysis.kernel import PackedEncoder

from repro.core.pac import (
    NPacSpec,
    PacState,
    check_theorem_3_5,
    is_legal_history,
    upset_after,
)
from repro.errors import InvalidOperationError, SpecificationError
from repro.types import BOTTOM, DONE, NIL, op


class TestConstruction:
    def test_requires_positive_n(self):
        with pytest.raises(SpecificationError):
            NPacSpec(0)

    def test_kind(self):
        assert NPacSpec(3).kind == "3-PAC"

    def test_deterministic(self):
        assert NPacSpec(2).is_deterministic

    def test_initial_state(self):
        state = NPacSpec(2).initial_state()
        assert state == PacState(
            upset=False, proposals=(NIL, NIL), last_label=NIL, value=NIL
        )


class TestProposeDecidePairs:
    def test_matched_pair_decides_proposal(self):
        spec = NPacSpec(2)
        _state, responses = spec.run([op("propose", 5, 1), op("decide", 1)])
        assert responses == (DONE, 5)

    def test_propose_always_returns_done(self):
        spec = NPacSpec(2)
        _state, responses = spec.run(
            [op("propose", 5, 1), op("propose", 6, 1), op("propose", 7, 2)]
        )
        assert responses == (DONE, DONE, DONE)

    def test_second_pair_decides_first_value(self):
        """Once val is fixed, later decides return the consensus value."""
        spec = NPacSpec(2)
        _state, responses = spec.run(
            [
                op("propose", "a", 1),
                op("decide", 1),
                op("propose", "b", 2),
                op("decide", 2),
            ]
        )
        assert responses == (DONE, "a", DONE, "a")

    def test_intervening_propose_makes_decide_bottom(self):
        spec = NPacSpec(2)
        _state, responses = spec.run(
            [op("propose", 5, 1), op("propose", 6, 2), op("decide", 1)]
        )
        assert responses[2] is BOTTOM

    def test_intervening_decide_makes_decide_bottom(self):
        spec = NPacSpec(2)
        _state, responses = spec.run(
            [
                op("propose", "a", 1),
                op("decide", 1),
                op("propose", "b", 2),
                op("propose", "c", 1),
                op("decide", 2),
            ]
        )
        # decide(2) observes the intervening propose(c, 1): ⊥.
        assert responses == (DONE, "a", DONE, DONE, BOTTOM)

    def test_bottom_decide_does_not_fix_value(self):
        """A ⊥ decide must not set val (Algorithm 1 line 13 runs only in
        the L == i branch)."""
        spec = NPacSpec(2)
        _state, responses = spec.run(
            [
                op("propose", "a", 1),
                op("propose", "b", 2),
                op("decide", 1),  # ⊥, val must stay NIL
                op("propose", "c", 1),
                op("decide", 1),  # first successful decide fixes val = c
            ]
        )
        assert responses[2] is BOTTOM
        assert responses[4] == "c"

    def test_decide_clears_slot_and_label(self):
        spec = NPacSpec(2)
        state, _responses = spec.run([op("propose", 1, 1), op("decide", 1)])
        assert isinstance(state, PacState)
        assert state.proposals == (NIL, NIL)
        assert state.last_label is NIL
        assert state.value == 1


class TestUpset:
    def test_decide_without_propose_upsets(self):
        spec = NPacSpec(2)
        state, responses = spec.run([op("decide", 1)])
        assert responses == (BOTTOM,)
        assert state.upset

    def test_double_propose_same_label_upsets(self):
        spec = NPacSpec(2)
        state, _responses = spec.run(
            [op("propose", 1, 1), op("propose", 2, 1)]
        )
        assert state.upset

    def test_double_propose_different_labels_is_fine(self):
        spec = NPacSpec(2)
        state, _responses = spec.run(
            [op("propose", 1, 1), op("propose", 2, 2)]
        )
        assert not state.upset

    def test_upset_is_permanent(self):
        """Observation 3.1."""
        spec = NPacSpec(2)
        state, _responses = spec.run([op("decide", 1)])
        assert state.upset
        for operation in [
            op("propose", 1, 1),
            op("decide", 1),
            op("propose", 2, 2),
            op("decide", 2),
        ]:
            state, _response = spec.apply(state, operation)
            assert state.upset

    def test_upset_decides_return_bottom_forever(self):
        spec = NPacSpec(2)
        state, _responses = spec.run([op("decide", 1)])
        state, response = spec.apply(state, op("propose", 1, 1))
        state, response = spec.apply(state, op("decide", 1))
        assert response is BOTTOM

    def test_upset_proposes_still_return_done(self):
        spec = NPacSpec(2)
        state, _responses = spec.run([op("decide", 1)])
        _state, response = spec.apply(state, op("propose", 9, 2))
        assert response is DONE

    def test_upset_propose_does_not_record(self):
        spec = NPacSpec(2)
        state, _responses = spec.run([op("decide", 1)])
        state, _response = spec.apply(state, op("propose", 9, 2))
        assert state.proposals == (NIL, NIL)

    def test_double_decide_same_label_upsets(self):
        """Two consecutive decides with the same label: the second sees
        V[i] = NIL and upsets (the Claim 5.2.7 Case 1 mechanism)."""
        spec = NPacSpec(2)
        state, responses = spec.run(
            [op("propose", 1, 1), op("decide", 1), op("decide", 1)]
        )
        assert responses[2] is BOTTOM
        assert state.upset


class TestValidation:
    def test_label_out_of_range(self):
        spec = NPacSpec(2)
        with pytest.raises(InvalidOperationError, match="label"):
            spec.responses(spec.initial_state(), op("propose", 1, 3))
        with pytest.raises(InvalidOperationError, match="label"):
            spec.responses(spec.initial_state(), op("decide", 0))

    def test_label_must_be_int(self):
        spec = NPacSpec(2)
        with pytest.raises(InvalidOperationError):
            spec.responses(spec.initial_state(), op("decide", "1"))

    def test_rejects_special_proposals(self):
        spec = NPacSpec(2)
        with pytest.raises(InvalidOperationError, match="special"):
            spec.responses(spec.initial_state(), op("propose", BOTTOM, 1))

    def test_rejects_unknown_operation(self):
        spec = NPacSpec(2)
        with pytest.raises(InvalidOperationError):
            spec.responses(spec.initial_state(), op("read"))

    def test_propose_arity(self):
        spec = NPacSpec(2)
        with pytest.raises(InvalidOperationError):
            spec.responses(spec.initial_state(), op("propose", 1))

    def test_decide_arity(self):
        spec = NPacSpec(2)
        with pytest.raises(InvalidOperationError, match="argument"):
            spec.responses(spec.initial_state(), op("decide", 1, 2))

    def test_upset_state_still_validates(self):
        """An upset object answers without changing state, but a
        malformed operation is rejected all the same."""
        spec = NPacSpec(2)
        upset, _responses = spec.run([op("decide", 1)])
        assert upset.upset
        for bad in (
            op("propose", 1, 3),
            op("decide", 0),
            op("propose", BOTTOM, 1),
            op("decide"),
            op("read"),
        ):
            with pytest.raises(InvalidOperationError):
                spec.responses(upset, bad)

    def test_bool_label_is_an_int_label(self):
        spec = NPacSpec(2)
        state = spec.initial_state()
        assert spec.responses(state, op("propose", 5, True)) == spec.responses(
            state, op("propose", 5, 1)
        )


class TestPacStateContract:
    """``PacState`` is an immutable value: equal fields mean equal,
    same-hash states that stand for one another everywhere — in a
    pickle round trip and as a key of the explorer's code tables."""

    @staticmethod
    def _states():
        return [
            PacState.initial(3),
            PacState(False, (5, NIL, NIL), 1, NIL),
            PacState(False, (NIL, 0, NIL), NIL, 7),
            PacState(True, (5, 6, NIL), 2, NIL),
        ]

    def test_pickle_round_trip(self):
        for state in self._states():
            clone = pickle.loads(pickle.dumps(state))
            assert clone == state and clone is not state
            assert hash(clone) == hash(state)
            assert repr(clone) == repr(state)

    def test_repr(self):
        assert repr(PacState(False, (5, NIL), 1, NIL)) == (
            "PacState(upset=False, proposals=(5, NIL), last_label=1, "
            "value=NIL)"
        )

    def test_fields_are_read_only(self):
        state = PacState.initial(2)
        for name in ("upset", "proposals", "last_label", "value", "_hash"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(state, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(state, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.extra = 1
        assert state == PacState.initial(2)

    def test_equal_states_built_apart_are_one_key(self):
        encoder = PackedEncoder(1, 1)
        for state in self._states():
            twin = PacState(
                upset=state.upset,
                proposals=tuple(list(state.proposals)),
                last_label=state.last_label,
                value=state.value,
            )
            assert twin == state and twin is not state
            assert hash(twin) == hash(state)
            code = encoder.object_code(0, state)
            assert encoder.object_code(0, twin) == code
            assert encoder.object_value(0, code) is state
        assert len(encoder.codecs[0]._values) == len(self._states())

    def test_unequal_fields_unequal_states(self):
        states = self._states()
        for i, first in enumerate(states):
            for second in states[i + 1:]:
                assert first != second
        assert PacState.initial(2) != (False, (NIL, NIL), NIL, NIL)
        assert PacState.initial(2) != PacState.initial(3)


class TestLegality:
    def test_empty_history_is_legal(self):
        assert is_legal_history([], 2)

    def test_alternating_is_legal(self):
        history = [
            op("propose", 1, 1),
            op("decide", 1),
            op("propose", 2, 1),
            op("decide", 1),
        ]
        assert is_legal_history(history, 2)

    def test_interleaved_labels_legal(self):
        history = [
            op("propose", 1, 1),
            op("propose", 2, 2),
            op("decide", 1),
            op("decide", 2),
        ]
        assert is_legal_history(history, 2)

    def test_decide_first_is_illegal(self):
        assert not is_legal_history([op("decide", 1)], 2)

    def test_double_propose_is_illegal(self):
        assert not is_legal_history(
            [op("propose", 1, 1), op("propose", 2, 1)], 2
        )

    def test_once_illegal_stays_illegal(self):
        history = [op("decide", 2), op("propose", 1, 1), op("decide", 1)]
        assert not is_legal_history(history, 2)

    def test_lemma_3_2_on_examples(self):
        """Lemma 3.2: upset(t) iff history up to t is not legal."""
        cases = [
            [op("propose", 1, 1)],
            [op("propose", 1, 1), op("decide", 1)],
            [op("decide", 1)],
            [op("propose", 1, 1), op("propose", 2, 1)],
            [op("propose", 1, 1), op("propose", 2, 2), op("decide", 1)],
            [op("propose", 1, 2), op("decide", 2), op("decide", 2)],
        ]
        for history in cases:
            assert upset_after(history, 2) == (not is_legal_history(history, 2))


class TestTheorem35:
    def test_clean_history_passes(self):
        history = [
            op("propose", 1, 1),
            op("decide", 1),
            op("propose", 0, 2),
            op("decide", 2),
        ]
        assert check_theorem_3_5(history, 2).ok

    def test_upsetting_history_passes(self):
        """Theorem 3.5 holds on every history, including upset ones."""
        history = [
            op("decide", 1),
            op("propose", 1, 1),
            op("decide", 1),
            op("propose", 0, 2),
            op("decide", 2),
        ]
        check = check_theorem_3_5(history, 2)
        assert check.ok, check.violations

    def test_contended_history_passes(self):
        history = [
            op("propose", 1, 1),
            op("propose", 0, 2),
            op("decide", 1),
            op("decide", 2),
            op("propose", 1, 1),
            op("decide", 1),
        ]
        check = check_theorem_3_5(history, 2)
        assert check.ok, check.violations
