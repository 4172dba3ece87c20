"""Tests for decision-task definitions."""

import pytest

from repro.errors import SpecificationError
from repro.protocols.tasks import (
    ConsensusTask,
    DacDecisionTask,
    KSetAgreementTask,
    SafetyVerdict,
)


class TestSafetyVerdict:
    def test_passed(self):
        verdict = SafetyVerdict.passed()
        assert verdict.ok and verdict.violations == ()

    def test_failed(self):
        verdict = SafetyVerdict.failed("a", "b")
        assert not verdict.ok
        assert verdict.violations == ("a", "b")


class TestConsensusTask:
    def test_input_assignments_cover_domain(self):
        task = ConsensusTask(2)
        assert sorted(task.input_assignments()) == [
            (0, 0),
            (0, 1),
            (1, 0),
            (1, 1),
        ]

    def test_agreement_ok(self):
        task = ConsensusTask(3)
        assert task.check_safety((0, 1, 1), {0: 1, 1: 1, 2: 1}).ok

    def test_agreement_violation(self):
        task = ConsensusTask(2)
        verdict = task.check_safety((0, 1), {0: 0, 1: 1})
        assert not verdict.ok
        assert any("agreement" in v for v in verdict.violations)

    def test_validity_violation(self):
        task = ConsensusTask(2)
        verdict = task.check_safety((0, 0), {0: 1})
        assert not verdict.ok
        assert any("validity" in v for v in verdict.violations)

    def test_partial_decisions_ok(self):
        task = ConsensusTask(3)
        assert task.check_safety((0, 1, 1), {1: 1}).ok

    def test_aborts_forbidden(self):
        task = ConsensusTask(2)
        verdict = task.check_safety((0, 1), {}, aborted=[0])
        assert not verdict.ok

    def test_domain_must_have_two_values(self):
        with pytest.raises(SpecificationError):
            ConsensusTask(2, domain=(0,))

    def test_custom_domain(self):
        task = ConsensusTask(2, domain=("x", "y", "z"))
        assert len(list(task.input_assignments())) == 9


class TestKSetAgreementTask:
    def test_k_agreement_ok_at_bound(self):
        task = KSetAgreementTask(4, 2)
        verdict = task.check_safety(
            (0, 1, 2, 3), {0: 0, 1: 0, 2: 3, 3: 3}
        )
        assert verdict.ok

    def test_k_agreement_violation(self):
        task = KSetAgreementTask(4, 2)
        verdict = task.check_safety(
            (0, 1, 2, 3), {0: 0, 1: 1, 2: 2}
        )
        assert not verdict.ok
        assert any("2-agreement" in v for v in verdict.violations)

    def test_validity(self):
        task = KSetAgreementTask(2, 2)
        verdict = task.check_safety((0, 1), {0: 5})
        assert not verdict.ok

    def test_default_inputs_distinct(self):
        task = KSetAgreementTask(3, 2)
        assignments = list(task.input_assignments())
        assert (0, 1, 2) in assignments

    def test_k_must_be_positive(self):
        with pytest.raises(SpecificationError):
            KSetAgreementTask(3, 0)

    def test_k1_is_consensus(self):
        task = KSetAgreementTask(2, 1)
        assert not task.check_safety((0, 1), {0: 0, 1: 1}).ok
        assert task.check_safety((0, 1), {0: 0, 1: 0}).ok


class TestDacDecisionTask:
    def test_paper_initial_inputs(self):
        assert DacDecisionTask.paper_initial_inputs(3) == (1, 0, 0)
        assert DacDecisionTask.paper_initial_inputs(3, distinguished=1) == (
            0,
            1,
            0,
        )

    def test_may_abort_only_distinguished(self):
        task = DacDecisionTask(3, distinguished=1)
        inputs = (0, 1, 0)
        assert task.check_safety(inputs, {}, aborted=[1]).ok
        assert not task.check_safety(inputs, {}, aborted=[0]).ok
        assert not task.check_safety(inputs, {}, aborted=[2]).ok

    def test_binary_input_assignments(self):
        task = DacDecisionTask(2)
        assert len(list(task.input_assignments())) == 4

    def test_safety_delegates_to_core(self):
        task = DacDecisionTask(3)
        assert task.check_safety((1, 0, 0), {1: 0, 2: 0}, aborted=[0]).ok
        assert not task.check_safety((1, 0, 0), {1: 0, 2: 1}).ok

    def test_nontriviality_check(self):
        task = DacDecisionTask(2)
        good = task.check_nontriviality((1, 0), [0], {0: 3, 1: 1})
        assert good.ok
        bad = task.check_nontriviality((1, 0), [0], {0: 3, 1: 0})
        assert not bad.ok

    def test_nontriviality_vacuous_without_abort(self):
        task = DacDecisionTask(2)
        assert task.check_nontriviality((1, 0), [], {0: 3}).ok

    def test_num_processes_guard(self):
        with pytest.raises(SpecificationError):
            DacDecisionTask(0)
