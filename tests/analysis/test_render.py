"""Tests for the text renderers."""

import pytest

from repro.analysis.explorer import Explorer
from repro.analysis.render import (
    render_counterexample,
    render_livelock,
    render_schedule,
)
from repro.objects.consensus import MConsensusSpec
from repro.protocols.candidates import (
    consensus_via_strong_sa,
    dac_via_consensus,
)
from repro.protocols.consensus import one_shot_consensus_processes


def one_shot_explorer(inputs=(0, 1)):
    return Explorer(
        {"CONS": MConsensusSpec(len(inputs))},
        one_shot_consensus_processes(list(inputs)),
    )


class TestRenderSchedule:
    def test_full_schedule(self):
        explorer = one_shot_explorer()
        result = explorer.explore()
        quiescent = next(
            c for c in result.configurations if not c.enabled()
        )
        text = render_schedule(explorer, result.schedule_to(quiescent))
        assert "p0" in text or "p1" in text
        assert "propose" in text

    def test_empty_schedule(self):
        explorer = one_shot_explorer()
        assert render_schedule(explorer, []) == ""

    def test_choice_annotation(self):
        candidate = consensus_via_strong_sa(2)
        explorer = Explorer(candidate.objects, candidate.processes)
        counterexample = explorer.check_safety(candidate.task, candidate.inputs)
        text = render_schedule(explorer, counterexample.schedule)
        assert "choice" in text  # the adversary's response pick is shown


class TestRenderCounterexample:
    def test_contains_schedule_and_violation(self):
        candidate = consensus_via_strong_sa(2)
        explorer = Explorer(candidate.objects, candidate.processes)
        counterexample = explorer.check_safety(candidate.task, candidate.inputs)
        text = render_counterexample(explorer, counterexample)
        assert "violating schedule" in text
        assert "violated: agreement" in text
        assert "decisions:" in text


class TestRenderLivelock:
    def test_contains_cycle_and_starvers(self):
        candidate = dac_via_consensus(2, fallback="spin")
        explorer = Explorer(candidate.objects, candidate.processes)
        livelock = explorer.find_livelock()
        text = render_livelock(explorer, livelock)
        assert "cycle" in text
        assert "starving processes" in text
        assert "repeats forever" in text
