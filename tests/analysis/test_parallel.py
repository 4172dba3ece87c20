"""Tests for the crash-isolated verification work pool.

The pool's contract (``docs/performance.md``): results merge by work
item in submission order regardless of completion order or worker
count; an item that raises becomes a structured :class:`WorkFailure`
instead of poisoning the batch; unpicklable work falls back to inline
execution with identical results.
"""

import pickle

import pytest

from repro.analysis.parallel import (
    VerificationPool,
    WorkFailure,
    WorkItem,
    WorkResult,
)
from repro.api.execute import algorithm2_instance_check, candidate_outcome


# Module-level so worker processes can import them by qualified name.


def _square(x):
    return x * x


def _raise_value_error(message):
    raise ValueError(message)


def _items(count):
    return [
        WorkItem(key=("square", i), fn=_square, args=(i,))
        for i in range(count)
    ]


class TestDeterministicOrdering:
    def test_results_in_submission_order_inline(self):
        results = VerificationPool(jobs=1).run(_items(7))
        assert [r.key for r in results] == [("square", i) for i in range(7)]
        assert [r.value for r in results] == [i * i for i in range(7)]

    def test_results_in_submission_order_pooled(self):
        # One chunk per worker: 7 items at jobs=2 span two chunks.
        pool = VerificationPool(jobs=2)
        results = pool.run(_items(7))
        assert [r.key for r in results] == [("square", i) for i in range(7)]
        assert [r.value for r in results] == [i * i for i in range(7)]

    def test_serial_and_pooled_agree(self):
        items = _items(5)
        serial = VerificationPool(jobs=1).run(items)
        pooled = VerificationPool(jobs=3).run(items)
        assert [(r.key, r.value) for r in serial] == [
            (r.key, r.value) for r in pooled
        ]

    def test_empty_batch(self):
        assert VerificationPool(jobs=4).run([]) == []


class TestCrashIsolation:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raising_item_becomes_structured_failure(self, jobs):
        items = [
            WorkItem(key="ok-before", fn=_square, args=(3,)),
            WorkItem(key="boom", fn=_raise_value_error, args=("kaput",)),
            WorkItem(key="ok-after", fn=_square, args=(4,)),
        ]
        results = VerificationPool(jobs=jobs).run(items)
        assert [r.key for r in results] == ["ok-before", "boom", "ok-after"]
        assert results[0].ok and results[0].value == 9
        assert results[2].ok and results[2].value == 16
        failed = results[1]
        assert not failed.ok
        assert isinstance(failed.failure, WorkFailure)
        assert failed.failure.error_type == "ValueError"
        assert "kaput" in failed.failure.message
        assert "ValueError" in failed.failure.render()

    def test_failure_carries_traceback(self):
        [result] = VerificationPool(jobs=1).run(
            [WorkItem(key="boom", fn=_raise_value_error, args=("why",))]
        )
        assert "_raise_value_error" in result.failure.traceback


class TestInlineFallback:
    def test_unpicklable_work_runs_inline(self):
        captured = []

        def closure(x):  # closures cannot cross a process boundary
            captured.append(x)
            return x + 1

        with pytest.raises(Exception):
            pickle.dumps(closure)
        pool = VerificationPool(jobs=4)
        results = pool.run(
            [WorkItem(key=i, fn=closure, args=(i,)) for i in range(3)]
        )
        assert [r.value for r in results] == [1, 2, 3]
        assert captured == [0, 1, 2]
        assert pool.last_run_parallel is False

    def test_single_item_runs_inline(self):
        pool = VerificationPool(jobs=4)
        [result] = pool.run([WorkItem(key="one", fn=_square, args=(9,))])
        assert result.value == 81
        assert pool.last_run_parallel is False


class TestConvenience:
    def test_jobs_default_is_cpu_count(self):
        import multiprocessing

        assert VerificationPool().jobs == multiprocessing.cpu_count()
        assert VerificationPool(jobs=0).jobs == multiprocessing.cpu_count()


class TestInstanceCheckItems:
    def test_algorithm2_instance_check_shape(self):
        record = algorithm2_instance_check(2, (0, 1), max_configurations=50_000)
        assert record["inputs"] == (0, 1)
        assert record["ok"] is True
        assert record["counterexample"] is None
        assert record["solo_failures"] == []
        assert record["configurations"] > 0

    def test_candidate_outcome_matches_expectation(self):
        outcome = candidate_outcome(0)
        assert outcome["name"]
        assert outcome["outcome"] == outcome["expected"]
        assert outcome["rendered"]

    def test_pooled_sweep_matches_serial(self):
        items = [
            WorkItem(
                key=inputs,
                fn=algorithm2_instance_check,
                args=(2, inputs),
            )
            for inputs in [(0, 0), (0, 1), (1, 0), (1, 1)]
        ]
        serial = VerificationPool(jobs=1).run(items)
        pooled = VerificationPool(jobs=2).run(items)
        assert [r.value for r in serial] == [r.value for r in pooled]
