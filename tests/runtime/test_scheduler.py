"""Tests for schedulers (the process-scheduling adversary)."""

import pytest

from repro.errors import SchedulingError
from repro.runtime.scheduler import (
    AlternatingScheduler,
    RoundRobinScheduler,
    ScriptedScheduler,
    SeededScheduler,
)
from tests.oracles import BlockingScheduler, SoloScheduler


class TestRoundRobin:
    def test_cycles_fairly(self):
        scheduler = RoundRobinScheduler()
        picks = [scheduler.choose([0, 1, 2], i) for i in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_skips_disabled(self):
        scheduler = RoundRobinScheduler()
        assert scheduler.choose([0, 1, 2], 0) == 0
        assert scheduler.choose([0, 2], 1) == 2
        assert scheduler.choose([0, 2], 2) == 0

    def test_single_process(self):
        scheduler = RoundRobinScheduler()
        assert [scheduler.choose([3], i) for i in range(3)] == [3, 3, 3]


class TestSeeded:
    def test_reproducible(self):
        a = SeededScheduler(5)
        b = SeededScheduler(5)
        enabled = [0, 1, 2, 3]
        assert [a.choose(enabled, i) for i in range(20)] == [
            b.choose(enabled, i) for i in range(20)
        ]

    def test_covers_all_processes_eventually(self):
        scheduler = SeededScheduler(1)
        picks = {scheduler.choose([0, 1, 2], i) for i in range(100)}
        assert picks == {0, 1, 2}

    def test_choice_always_enabled(self):
        scheduler = SeededScheduler(2)
        for i in range(50):
            assert scheduler.choose([4, 7], i) in (4, 7)


class TestSolo:
    def test_always_picks_its_process(self):
        scheduler = SoloScheduler(1)
        assert scheduler.choose([0, 1, 2], 0) == 1

    def test_errors_when_not_enabled(self):
        scheduler = SoloScheduler(1)
        with pytest.raises(SchedulingError):
            scheduler.choose([0, 2], 0)


class TestScripted:
    def test_replays_schedule(self):
        scheduler = ScriptedScheduler([2, 0, 1])
        assert scheduler.choose([0, 1, 2], 0) == 2
        assert scheduler.choose([0, 1, 2], 1) == 0
        assert scheduler.choose([0, 1, 2], 2) == 1
        assert scheduler.exhausted

    def test_strict_raises_on_exhaustion(self):
        scheduler = ScriptedScheduler([0])
        scheduler.choose([0], 0)
        with pytest.raises(SchedulingError, match="exhausted"):
            scheduler.choose([0], 1)

    def test_strict_raises_on_disabled_pick(self):
        scheduler = ScriptedScheduler([5])
        with pytest.raises(SchedulingError, match="not enabled"):
            scheduler.choose([0, 1], 0)

    def test_lenient_falls_back(self):
        scheduler = ScriptedScheduler([5], strict=False)
        assert scheduler.choose([0, 1], 0) in (0, 1)
        assert scheduler.choose([0, 1], 1) in (0, 1)

    def test_faithful_replay_never_diverges(self):
        scheduler = ScriptedScheduler([1, 0], strict=False)
        assert scheduler.choose([0, 1], 0) == 1
        assert scheduler.choose([0, 1], 1) == 0
        assert scheduler.exhausted


class TestBlocking:
    def test_suppresses_victims(self):
        scheduler = BlockingScheduler([0])
        picks = [scheduler.choose([0, 1, 2], i) for i in range(4)]
        assert 0 not in picks

    def test_victims_run_when_alone(self):
        scheduler = BlockingScheduler([0])
        assert scheduler.choose([0], 0) == 0

    def test_multiple_victims(self):
        scheduler = BlockingScheduler([0, 1])
        assert scheduler.choose([0, 1, 2], 0) == 2


class TestAlternating:
    def test_alternates_between_pair(self):
        scheduler = AlternatingScheduler(0, 1)
        picks = [scheduler.choose([0, 1, 2], i) for i in range(4)]
        assert picks == [0, 1, 0, 1]

    def test_falls_back_when_pair_disabled(self):
        scheduler = AlternatingScheduler(0, 1)
        assert scheduler.choose([2, 3], 0) in (2, 3)

    def test_skips_missing_partner(self):
        scheduler = AlternatingScheduler(0, 1)
        assert scheduler.choose([1, 2], 0) == 1
