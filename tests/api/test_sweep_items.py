"""The pool-ready sweep items walk each instance's graph once.

``algorithm2_instance_check`` (one Theorem 4.1 instance) and
``candidate_outcome`` (one refuted candidate) explore once and hand the
one exploration to every analysis that needs the graph. Their records
are the same as those of analyses that each walk the graph afresh.
"""

import itertools

import pytest

from repro.analysis.explorer import Explorer
from repro.analysis.render import render_counterexample, render_livelock
from repro.api.execute import algorithm2_instance_check, candidate_outcome
from repro.core.pac import NPacSpec
from repro.protocols.candidates import all_candidates
from repro.protocols.dac_from_pac import algorithm2_processes
from repro.protocols.tasks import DacDecisionTask

N3_INPUTS = list(itertools.product((0, 1), repeat=3))


@pytest.mark.parametrize("symmetry", [False, True])
@pytest.mark.parametrize("inputs", N3_INPUTS)
def test_algorithm2_item_explores_once(explore_calls, inputs, symmetry):
    record = algorithm2_instance_check(3, inputs, symmetry=symmetry)
    assert len(explore_calls) == 1
    assert record["ok"]


@pytest.mark.parametrize("index", range(len(all_candidates())))
def test_candidate_item_explores_once(explore_calls, index):
    candidate_outcome(index)
    assert len(explore_calls) == 1


@pytest.mark.parametrize("inputs", [(0, 1, 1, 0), (1, 1, 1, 1)])
def test_algorithm2_record_matches_separate_walks(inputs):
    explorer = Explorer({"PAC": NPacSpec(4)}, algorithm2_processes(inputs))
    assert explorer.check_safety(DacDecisionTask(4), inputs) is None
    assert algorithm2_instance_check(4, inputs) == {
        "inputs": inputs,
        "ok": all(explorer.solo_termination(pid) for pid in range(4)),
        "counterexample": None,
        "solo_failures": [],
        "configurations": len(explorer.explore(max_configurations=400_000)),
    }


@pytest.mark.parametrize("index", range(len(all_candidates())))
def test_candidate_record_matches_separate_walks(index):
    candidate = all_candidates()[index]
    explorer = Explorer(candidate.objects, candidate.processes)
    counterexample = explorer.check_safety(candidate.task, candidate.inputs)
    record = candidate_outcome(index)
    if counterexample is not None:
        assert record["outcome"] == "safety"
        assert record["rendered"] == render_counterexample(
            explorer, counterexample
        )
        return
    livelock = explorer.find_livelock()
    if livelock is not None:
        assert record["outcome"] == "liveness"
        assert record["rendered"] == render_livelock(explorer, livelock)
    else:
        assert record["outcome"] == "none"
