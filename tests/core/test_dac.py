"""Tests for the n-DAC problem spec and the abortable DAC object."""

import pytest

from repro.core.dac import DacTask
from repro.core.pac import NPacSpec
from repro.errors import InvalidOperationError, SpecificationError
from repro.types import ABORT, op
from tests.oracles import AbortableDacSpec, DacObjectState


class TestDacTask:
    def test_requires_two_processes(self):
        with pytest.raises(SpecificationError):
            DacTask(1)

    def test_distinguished_in_range(self):
        with pytest.raises(SpecificationError):
            DacTask(3, distinguished=3)

    def test_agreement_ok(self):
        task = DacTask(3)
        verdict = task.check(
            inputs={0: 1, 1: 0, 2: 0}, decisions={0: 0, 1: 0, 2: 0}
        )
        assert verdict.ok

    def test_agreement_violation(self):
        task = DacTask(3)
        verdict = task.check(
            inputs={0: 1, 1: 0, 2: 0}, decisions={0: 1, 1: 0}
        )
        assert not verdict.ok
        assert any("agreement" in v for v in verdict.violations)

    def test_validity_needs_non_aborting_input(self):
        """If p (the only 1-input) aborts, nobody may decide 1."""
        task = DacTask(3, distinguished=0)
        verdict = task.check(
            inputs={0: 1, 1: 0, 2: 0},
            decisions={1: 1, 2: 1},
            aborted=[0],
            steps_taken={1: 5},
        )
        assert not verdict.ok
        assert any("validity" in v for v in verdict.violations)

    def test_validity_ok_when_input_present(self):
        task = DacTask(2, distinguished=0)
        verdict = task.check(
            inputs={0: 1, 1: 1}, decisions={1: 1}, aborted=[0],
            steps_taken={1: 3},
        )
        assert verdict.ok

    def test_nontriviality_violated_by_solo_abort(self):
        task = DacTask(2, distinguished=0)
        verdict = task.check(
            inputs={0: 1, 1: 0},
            decisions={},
            aborted=[0],
            steps_taken={0: 2, 1: 0},
        )
        assert not verdict.ok
        assert any("nontriviality" in v for v in verdict.violations)

    def test_nontriviality_satisfied_when_others_moved(self):
        task = DacTask(2, distinguished=0)
        verdict = task.check(
            inputs={0: 1, 1: 0},
            decisions={},
            aborted=[0],
            steps_taken={0: 2, 1: 1},
        )
        assert verdict.ok

    def test_only_distinguished_may_abort(self):
        task = DacTask(3, distinguished=0)
        verdict = task.check(
            inputs={0: 1, 1: 0, 2: 0}, decisions={}, aborted=[1]
        )
        assert not verdict.ok

    def test_decide_and_abort_is_contradictory(self):
        task = DacTask(2, distinguished=0)
        verdict = task.check(
            inputs={0: 1, 1: 0}, decisions={0: 1}, aborted=[0]
        )
        assert not verdict.ok


class TestAbortableDacObject:
    def test_requires_n_at_least_two(self):
        with pytest.raises(SpecificationError):
            AbortableDacSpec(1)

    def test_solo_round_trip_decides_own_value(self):
        spec = AbortableDacSpec(2)
        _state, responses = spec.run([op("try_propose", 1, 1)])
        assert responses == (1,)

    def test_second_port_gets_first_value(self):
        spec = AbortableDacSpec(3)
        _state, responses = spec.run(
            [op("try_propose", "a", 1), op("try_propose", "b", 2)]
        )
        assert responses == ("a", "a")

    def test_port_reuse_aborts(self):
        """Reusing a port is the port-discipline violation: the embedded
        PAC upsets, which surfaces as ABORT."""
        spec = AbortableDacSpec(2)
        state, responses = spec.run(
            [op("try_propose", "a", 1)]
        )
        # Replaying port 1 after its round trip completed is legal PAC
        # usage (propose/decide alternate), so it should NOT abort:
        state, response = spec.apply(state, op("try_propose", "b", 1))
        assert response == "a"

    def test_state_embeds_pac(self):
        spec = AbortableDacSpec(2)
        state = spec.initial_state()
        assert isinstance(state, DacObjectState)
        assert state.pac == NPacSpec(2).initial_state()

    def test_rejects_unknown_operation(self):
        spec = AbortableDacSpec(2)
        with pytest.raises(InvalidOperationError):
            spec.responses(spec.initial_state(), op("propose", 1))

    def test_rejects_wrong_arity(self):
        spec = AbortableDacSpec(2)
        with pytest.raises(InvalidOperationError):
            spec.responses(spec.initial_state(), op("try_propose", 1))

    def test_matches_pac_simulation(self):
        """The composite operation equals propose-then-decide on a PAC."""
        dac = AbortableDacSpec(3)
        pac = NPacSpec(3)
        dac_state = dac.initial_state()
        pac_state = pac.initial_state()
        script = [("a", 1), ("b", 2), ("c", 3), ("d", 1)]
        for value, port in script:
            dac_state, dac_response = dac.apply(
                dac_state, op("try_propose", value, port)
            )
            pac_state, _done = pac.apply(pac_state, op("propose", value, port))
            pac_state, pac_response = pac.apply(pac_state, op("decide", port))
            assert dac_state.pac == pac_state
            if dac_response is ABORT:
                from repro.types import BOTTOM

                assert pac_response is BOTTOM
            else:
                assert dac_response == pac_response
