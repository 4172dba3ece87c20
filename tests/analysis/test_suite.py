"""Tests for the one-call verification suite."""

import functools

import pytest

from repro.analysis.cache import ExplorationCache
from repro.analysis.suite import verify_task_protocol
from repro.errors import SpecificationError
from repro.objects.consensus import MConsensusSpec
from repro.protocols.candidates import (
    consensus_via_exhausted_consensus,
    consensus_via_pac_retry,
)
from repro.protocols.consensus import one_shot_consensus_processes
from repro.protocols.tasks import ConsensusTask


def one_shot_factory(inputs):
    return (
        {"CONS": MConsensusSpec(len(inputs))},
        one_shot_consensus_processes(list(inputs)),
    )


def constant_42_factory(inputs):
    # Ignores its inputs: every process proposes (and decides) 42.
    return (
        {"CONS": MConsensusSpec(len(inputs))},
        one_shot_consensus_processes([42] * len(inputs)),
    )


def proposing_factory(inputs, constant=None):
    # Proposes its inputs, or ``constant`` for every process.
    proposals = [constant] * len(inputs) if constant is not None else inputs
    return (
        {"CONS": MConsensusSpec(len(inputs))},
        one_shot_consensus_processes(list(proposals)),
    )


def exploding_factory(inputs):
    raise SpecificationError("protocol under test refuses to build")


class TestHappyPath:
    def test_one_shot_consensus_passes_all_phases(self):
        verdict = verify_task_protocol(
            ConsensusTask(2),
            one_shot_factory,
            simulation_inputs=(0, 1),
            simulation_seeds=5,
        )
        assert verdict.ok, verdict.failed_phases()
        phases = {phase.phase for phase in verdict.phases}
        assert phases == {
            "exhaustive-safety",
            "no-livelock",
            "solo-termination",
            "randomized-adversaries",
        }

    def test_phases_are_optional(self):
        verdict = verify_task_protocol(
            ConsensusTask(2),
            one_shot_factory,
            require_wait_free=False,
            require_solo_termination=False,
        )
        assert [phase.phase for phase in verdict.phases] == [
            "exhaustive-safety"
        ]
        assert verdict.ok


class TestFailureDetection:
    def test_safety_failure_reported(self):
        candidate = consensus_via_exhausted_consensus(2)

        def factory(inputs):
            # The candidate embeds its own inputs; rebuild per inputs.
            from repro.protocols.candidates import (
                ConsensusViaExhaustedConsensus,
            )

            return (
                {"CONS": MConsensusSpec(2)},
                [
                    ConsensusViaExhaustedConsensus(pid, value)
                    for pid, value in enumerate(inputs)
                ],
            )

        verdict = verify_task_protocol(
            ConsensusTask(3), factory, require_wait_free=False,
            require_solo_termination=False,
        )
        assert not verdict.ok
        failed = verdict.failed_phases()
        assert failed[0].phase == "exhaustive-safety"
        assert "violations at" in failed[0].detail

    def test_livelock_failure_reported(self):
        candidate = consensus_via_pac_retry(3, 2)

        def factory(inputs):
            from repro.core.combined import CombinedPacSpec
            from repro.protocols.candidates import PacRetryConsensusProcess

            return (
                {"NMPAC": CombinedPacSpec(3, 2)},
                [
                    PacRetryConsensusProcess(pid, value)
                    for pid, value in enumerate(inputs)
                ],
            )

        verdict = verify_task_protocol(
            ConsensusTask(3),
            factory,
            exhaustive_inputs=[(0, 1, 0)],
            require_solo_termination=False,
        )
        assert not verdict.ok
        assert any(
            phase.phase == "no-livelock" for phase in verdict.failed_phases()
        )

    def test_empty_inputs_rejected(self):
        with pytest.raises(SpecificationError):
            verify_task_protocol(
                ConsensusTask(2), one_shot_factory, exhaustive_inputs=[]
            )

    def test_raising_phase_becomes_failed_outcome(self):
        # A factory that raises must not crash the suite: every phase
        # that depends on it reports ok=False with the error named in
        # its detail, and the verdict aggregates to not-ok.
        verdict = verify_task_protocol(
            ConsensusTask(2),
            exploding_factory,
            simulation_inputs=(0, 1),
            simulation_seeds=2,
        )
        assert not verdict.ok
        assert len(verdict.failed_phases()) == len(verdict.phases)
        for phase in verdict.phases:
            assert "errors at" in phase.detail
            assert "SpecificationError" in phase.detail
            assert "refuses to build" in phase.detail

    def test_failing_audit_reported(self):
        # Deciding 42 is safe when 42 is the proposal (exhaustive
        # phases pass) but violates validity against the simulated
        # inputs (0, 1) — only the audit phase catches the lie.
        verdict = verify_task_protocol(
            ConsensusTask(2),
            constant_42_factory,
            exhaustive_inputs=[(42, 42)],
            simulation_inputs=(0, 1),
            simulation_seeds=4,
        )
        assert not verdict.ok
        failed = verdict.failed_phases()
        assert [phase.phase for phase in failed] == ["randomized-adversaries"]
        assert "4 failures" in failed[0].detail

    def test_failed_phases_in_recipe_order(self):
        # Against honest inputs the constant-42 protocol fails both the
        # exhaustive safety check and the audit; failed_phases() must
        # list them in recipe (insertion) order, with the passing
        # phases in between filtered out.
        verdict = verify_task_protocol(
            ConsensusTask(2),
            constant_42_factory,
            exhaustive_inputs=[(0, 1)],
            simulation_inputs=(0, 1),
            simulation_seeds=2,
        )
        assert [phase.phase for phase in verdict.phases] == [
            "exhaustive-safety",
            "no-livelock",
            "solo-termination",
            "randomized-adversaries",
        ]
        assert [phase.phase for phase in verdict.failed_phases()] == [
            "exhaustive-safety",
            "randomized-adversaries",
        ]


class TestCacheIdentity:
    """A cached verdict answers only for the protocol that earned it."""

    def test_partials_of_one_factory_need_a_cache_key(self, tmp_path):
        good = functools.partial(proposing_factory)
        bad = functools.partial(proposing_factory, constant=42)
        assert not verify_task_protocol(ConsensusTask(2), bad).ok
        cache = ExplorationCache(tmp_path)
        with pytest.raises(SpecificationError, match="cache_key"):
            verify_task_protocol(ConsensusTask(2), good, cache=cache)
        with pytest.raises(SpecificationError, match="cache_key"):
            verify_task_protocol(ConsensusTask(2), bad, cache=cache)
        assert cache.hits == 0 and cache.stores == 0

    def test_cache_keys_keep_partials_apart(self, tmp_path):
        cache = ExplorationCache(tmp_path)
        good = verify_task_protocol(
            ConsensusTask(2),
            functools.partial(proposing_factory),
            cache=cache,
            cache_key="proposes-inputs",
        )
        bad = verify_task_protocol(
            ConsensusTask(2),
            functools.partial(proposing_factory, constant=42),
            cache=cache,
            cache_key="proposes-42",
        )
        assert good.ok and not bad.ok
        assert cache.hits == 0

    def test_lambdas_and_local_functions_need_a_cache_key(self, tmp_path):
        def local_factory(inputs):
            return one_shot_factory(inputs)

        cache = ExplorationCache(tmp_path)
        for factory in (lambda inputs: local_factory(inputs), local_factory):
            with pytest.raises(SpecificationError, match="cache_key"):
                verify_task_protocol(ConsensusTask(2), factory, cache=cache)

    def test_module_level_factory_names_itself(self, tmp_path):
        cache = ExplorationCache(tmp_path)
        task = ConsensusTask(2)
        cold = verify_task_protocol(task, one_shot_factory, cache=cache)
        warm = verify_task_protocol(task, one_shot_factory, cache=cache)
        assert cold.ok and warm.phases == cold.phases
        assert cache.hits == cache.stores > 0
