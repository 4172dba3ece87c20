"""Tests for deterministic gene interpretation and coverage accounting."""

import pytest

from repro.analysis.explorer import Edge
from repro.fuzz.executor import CYCLE, SAFETY, FuzzExecutor
from repro.fuzz.target import (
    algorithm2_target,
    candidate_target,
    target_from_spec,
)
from repro.protocols.candidates import all_candidates


def _index_of(substring):
    for index, candidate in enumerate(all_candidates()):
        if substring in candidate.name:
            return index
    raise AssertionError(f"no candidate matching {substring!r}")


STRONG_SA = _index_of("one 2-SA")
SPIN = _index_of("fallback=spin")
CLEAN_QUEUE = _index_of("2-consensus from queue")


class TestInterpretation:
    def test_same_genes_same_run(self):
        executor = FuzzExecutor(candidate_target(STRONG_SA))
        genes = ((3, 1), (5, 0), (2, 2))
        first = executor.execute(genes)
        second = executor.execute(genes)
        assert first.edges == second.edges
        assert first.kind == second.kind
        assert first.final_id == second.final_id

    def test_two_executors_agree(self):
        genes = ((1, 0), (0, 1), (4, 3))
        runs = [
            FuzzExecutor(candidate_target(STRONG_SA)).execute(genes)
            for _ in range(2)
        ]
        assert runs[0].edges == runs[1].edges

    def test_huge_genes_are_valid(self):
        # Interpretation is modulo the live option counts: any int pair
        # is executable, which is what makes mutation and ddmin safe.
        executor = FuzzExecutor(candidate_target(STRONG_SA))
        run = executor.execute(((10**9, 10**9), (7**20, 3**30)))
        assert run.steps == 2
        assert all(isinstance(edge, Edge) for edge in run.edges)

    def test_quiescent_stop_consumes_no_further_genes(self):
        executor = FuzzExecutor(candidate_target(STRONG_SA))
        # Two processes, one operation each: the system is quiescent
        # after at most a handful of steps, far before 50.
        run = executor.execute(tuple((0, 0) for _ in range(50)))
        assert run.steps < 50
        assert len(run.edges) == run.steps

    def test_max_steps_bounds_the_run(self):
        executor = FuzzExecutor(algorithm2_target(3, (1, 0, 0)), max_steps=4)
        run = executor.execute(tuple((0, 0) for _ in range(50)))
        assert run.steps <= 4


class TestFindings:
    def test_crafted_safety_violation(self):
        # p0 gets choice 0 (its own proposal), p1 choice 1: the strong
        # 2-SA answers them different values -> agreement broken.
        executor = FuzzExecutor(candidate_target(STRONG_SA))
        run = executor.execute(((0, 0), (0, 1)))
        assert run.kind == SAFETY
        assert run.verdict is not None and not run.verdict.ok
        assert run.violating

    def test_crafted_cycle(self):
        # Always move the first enabled process: p0 and p1 exhaust the
        # 2-consensus object, p2 receives ⊥, falls back to spinning on
        # the register, and the configuration repeats.
        executor = FuzzExecutor(candidate_target(SPIN))
        run = executor.execute(tuple((0, 0) for _ in range(10)))
        assert run.kind == CYCLE
        assert run.cycle_start is not None
        assert run.cycle_start < run.steps

    def test_cycle_detection_gated_by_target(self):
        target = candidate_target(SPIN)
        target.detect_cycles = False
        executor = FuzzExecutor(target)
        run = executor.execute(tuple((0, 0) for _ in range(10)))
        assert run.kind is None

    def test_clean_target_never_violates(self):
        executor = FuzzExecutor(candidate_target(CLEAN_QUEUE))
        for seed_gene in range(8):
            run = executor.execute(
                tuple((seed_gene + k, k) for k in range(30))
            )
            assert run.kind is None


class TestCoverage:
    def test_new_coverage_counts_interned_configurations(self):
        executor = FuzzExecutor(candidate_target(STRONG_SA))
        seen = set()
        first = executor.execute(((0, 0), (0, 1)), coverage=seen)
        # Initial configuration + one per step.
        assert first.new_coverage == first.steps + 1
        repeat = executor.execute(((0, 0), (0, 1)), coverage=seen)
        assert repeat.new_coverage == 0

    def test_coverage_none_is_side_effect_free(self):
        executor = FuzzExecutor(candidate_target(STRONG_SA))
        seen = set()
        executor.execute(((0, 0),), coverage=seen)
        before = set(seen)
        executor.execute(((0, 0), (0, 1)))
        assert seen == before


class TestTargets:
    def test_candidate_spec_round_trip(self):
        target = target_from_spec(("candidate", STRONG_SA))
        assert target.key == ("candidate", STRONG_SA)
        assert target.expected_failure == "safety"

    def test_algorithm2_target_disables_cycles(self):
        target = algorithm2_target(3, (1, 0, 0))
        assert target.detect_cycles is False
        assert target.expected_failure == "none"

    def test_bad_specs_raise(self):
        from repro.errors import SpecificationError

        with pytest.raises(SpecificationError):
            target_from_spec(("nope",))
        with pytest.raises(SpecificationError):
            candidate_target(999)
        with pytest.raises(SpecificationError):
            algorithm2_target(3, (1, 0))
