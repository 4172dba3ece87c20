"""Property tests: obstruction-free consensus under arbitrary schedules.

The explorer proves small instances exhaustively; here hypothesis draws
longer schedules over bigger instances and checks safety plus the
obstruction-freedom contract (a decided value is unique and valid; solo
suffixes decide)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.properties import audit_task_run
from repro.protocols.obstruction_free import (
    adopt_commit_round_objects,
    obstruction_free_processes,
)
from repro.protocols.tasks import ConsensusTask
from repro.runtime.scheduler import ScriptedScheduler
from repro.runtime.system import ProcessStatus, System
from tests.oracles import SoloScheduler


def run_schedule(inputs, schedule, max_rounds=3, max_steps=400):
    system = System(
        adopt_commit_round_objects(len(inputs), max_rounds),
        obstruction_free_processes(inputs, max_rounds=max_rounds),
    )
    system.run(ScriptedScheduler(schedule, strict=False), max_steps=len(schedule))
    return system


class TestSafetyUnderArbitrarySchedules:
    @given(
        st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
        st.lists(st.integers(0, 2), max_size=120),
    )
    @settings(max_examples=120, deadline=None)
    def test_three_processes(self, inputs, schedule):
        system = run_schedule(inputs, schedule)
        audit = audit_task_run(
            ConsensusTask(3), inputs, system.history
        )
        assert audit.ok, audit.safety.violations

    @given(st.lists(st.integers(0, 1), max_size=150))
    @settings(max_examples=120, deadline=None)
    def test_two_processes_contended(self, schedule):
        inputs = (0, 1)
        system = run_schedule(inputs, schedule)
        audit = audit_task_run(ConsensusTask(2), inputs, system.history)
        assert audit.ok, audit.safety.violations


class TestSoloSuffixDecides:
    @given(st.lists(st.integers(0, 1), max_size=40), st.integers(0, 1))
    @settings(max_examples=80, deadline=None)
    def test_solo_suffix_always_decides(self, prefix, survivor):
        """Whatever contention prefix the adversary ran, once `survivor`
        runs alone it decides (unless it already exhausted its rounds,
        which a 40-step prefix cannot cause with 3 rounds x 2 procs —
        each round costs 6 steps per process, so at most ~3 rounds of
        joint progress)."""
        inputs = (0, 1)
        system = run_schedule(inputs, prefix, max_rounds=8)
        if system.status_of(survivor) != ProcessStatus.RUNNING:
            return  # already decided during the prefix — fine
        system.run(
            SoloScheduler(survivor),
            max_steps=len(system.history.steps) + 100,
            stop_when=lambda s: s.status_of(survivor)
            != ProcessStatus.RUNNING,
        )
        assert system.status_of(survivor) == ProcessStatus.DECIDED
        audit = audit_task_run(ConsensusTask(2), inputs, system.history)
        assert audit.ok, audit.safety.violations
