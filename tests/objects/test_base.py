"""Tests for SharedObject and the response oracles."""

import pytest

from repro.errors import InvalidOperationError, ReplayDivergenceError
from repro.objects.base import (
    FirstOutcomeOracle,
    ScriptedOracle,
    SeededOracle,
    SharedObject,
)
from repro.objects.register import RegisterSpec
from repro.core.set_agreement import StrongSetAgreementSpec
from repro.types import DONE, op


def make_sa(oracle):
    return SharedObject(StrongSetAgreementSpec(2), name="SA", oracle=oracle)


class TestSharedObject:
    def test_apply_updates_state(self):
        obj = SharedObject(RegisterSpec(), name="R")
        assert obj.apply(op("write", 3)) is DONE
        assert obj.state == 3
        assert obj.apply(op("read")) == 3

    def test_history_records_pairs(self):
        obj = SharedObject(RegisterSpec(0))
        obj.apply(op("read"))
        obj.apply(op("write", 1))
        assert obj.history == ((op("read"), 0), (op("write", 1), DONE))

    def test_default_oracle_is_first_outcome(self):
        obj = make_sa(oracle=None)
        obj.oracle = FirstOutcomeOracle()
        assert obj.apply(op("propose", "a")) == "a"
        assert obj.apply(op("propose", "b")) == "a"  # outcome 0 = first member

    def test_repr(self):
        obj = SharedObject(RegisterSpec(), name="R7")
        assert "R7" in repr(obj)


class TestOracles:
    def test_scripted_oracle_replays(self):
        # The first propose has a single outcome (no oracle call); the
        # later ones consume the script.
        obj = make_sa(ScriptedOracle([1, 1]))
        assert obj.apply(op("propose", "a")) == "a"
        assert obj.apply(op("propose", "b")) == "b"
        assert obj.apply(op("propose", "c")) == "b"

    def test_scripted_oracle_falls_back_to_zero(self):
        oracle = ScriptedOracle([1])
        obj = make_sa(oracle)
        obj.apply(op("propose", "a"))  # script says 1, only 1 outcome -> det
        # Deterministic single-outcome applies bypass the oracle entirely,
        # so the script is still unconsumed here.
        assert not oracle.exhausted
        obj.apply(op("propose", "b"))  # two outcomes: script picks index 1
        assert oracle.exhausted
        assert obj.apply(op("propose", "c")) == "a"  # fallback 0

    def test_strict_scripted_oracle_raises_on_exhaustion(self):
        oracle = ScriptedOracle([1], strict=True)
        obj = make_sa(oracle)
        obj.apply(op("propose", "a"))
        obj.apply(op("propose", "b"))
        with pytest.raises(ReplayDivergenceError, match="exhausted"):
            obj.apply(op("propose", "c"))

    def test_strict_scripted_oracle_raises_on_out_of_range(self):
        oracle = ScriptedOracle([7], strict=True)
        obj = make_sa(oracle)
        obj.apply(op("propose", "a"))
        with pytest.raises(ReplayDivergenceError, match="out of range"):
            obj.apply(op("propose", "b"))

    def test_lenient_out_of_range_counts_as_fallback(self):
        oracle = ScriptedOracle([7])
        obj = make_sa(oracle)
        obj.apply(op("propose", "a"))
        assert obj.apply(op("propose", "b")) == "a"  # clamped to outcome 0

    def test_seeded_oracle_is_reproducible(self):
        def run(seed):
            obj = make_sa(SeededOracle(seed))
            return [obj.apply(op("propose", v)) for v in "abcdef"]

        assert run(42) == run(42)

    def test_seeded_oracles_differ_across_seeds(self):
        outcomes = set()
        for seed in range(12):
            obj = make_sa(SeededOracle(seed))
            outcomes.add(tuple(obj.apply(op("propose", v)) for v in "abcdef"))
        assert len(outcomes) > 1

    def test_bad_oracle_choice_raises(self):
        class BadOracle(FirstOutcomeOracle):
            def choose(self, obj_name, operation, outcomes):
                return 99

        obj = make_sa(BadOracle())
        obj.apply(op("propose", "a"))
        with pytest.raises(InvalidOperationError, match="oracle chose"):
            obj.apply(op("propose", "b"))
