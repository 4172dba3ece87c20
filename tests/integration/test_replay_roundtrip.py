"""Round trip: explorer counterexample -> strict scripted replay.

The refutation suite's witnesses are only evidence if the live
simulator, driven by a :class:`ScriptedScheduler` plus a
:class:`ScriptedOracle`, reproduces the exact run the explorer
predicted — same pid sequence, same oracle choices, same responses,
same final decisions. This is the executable form of the
"replayability contract" that lint rules R001–R006 guard statically.
"""

import pytest

from repro.analysis.explorer import Explorer
from repro.analysis.replay import (
    oracle_script,
    replay_counterexample,
    verify_replay,
)
from repro.errors import ReplayDivergenceError
from repro.objects.base import ScriptedOracle
from repro.protocols.candidates import all_candidates
from repro.runtime.scheduler import ScriptedScheduler
from repro.runtime.system import System


def safety_witnesses():
    """(name, explorer, counterexample) per doomed candidate."""
    cases = []
    for candidate in all_candidates():
        if candidate.expected_failure != "safety":
            continue
        explorer = Explorer(candidate.objects, candidate.processes)
        counterexample = explorer.check_safety(candidate.task, candidate.inputs)
        assert counterexample is not None, candidate.name
        cases.append((candidate.name, explorer, counterexample))
    return cases


WITNESSES = safety_witnesses()


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name, explorer, counterexample",
        WITNESSES,
        ids=[name for name, _, _ in WITNESSES],
    )
    def test_counterexample_replays_exactly(self, name, explorer,
                                            counterexample):
        report = verify_replay(explorer, counterexample, strict=True)
        assert report.matches, f"{name}: {report.mismatches}"
        assert report.run.schedule() == tuple(
            edge.pid for edge in counterexample.schedule
        )

    def test_replay_reaches_witness_decisions(self):
        name, explorer, counterexample = WITNESSES[0]
        run = replay_counterexample(explorer, counterexample)
        assert run.decisions == counterexample.configuration.decisions()

    def test_bare_edge_sequences_replay_too(self):
        _, explorer, counterexample = WITNESSES[0]
        prefix = list(counterexample.schedule)[:2]
        report = verify_replay(explorer, prefix, strict=True)
        assert report.matches


def nondeterministic_witness():
    """A witness whose replay actually consults the oracle."""
    for name, explorer, counterexample in WITNESSES:
        script = oracle_script(explorer, counterexample.schedule)
        if script:
            return explorer, counterexample, script
    pytest.skip("no candidate witness consults the oracle")


class TestStrictDivergence:
    def test_truncated_oracle_script_raises(self):
        explorer, counterexample, script = nondeterministic_witness()
        schedule = list(counterexample.schedule)
        scheduler = ScriptedScheduler(
            [edge.pid for edge in schedule], strict=True
        )
        oracle = ScriptedOracle(script[:-1], strict=True)
        system = System(
            dict(zip(explorer.object_names, explorer.specs)),
            explorer.processes,
            oracle=oracle,
        )
        with pytest.raises(ReplayDivergenceError):
            system.run(scheduler=scheduler, max_steps=len(schedule))

    def test_lenient_truncated_script_diverges_silently(self):
        # The failure mode R006 exists to outlaw: same truncated script,
        # strict off — the run completes but is no longer the witness.
        explorer, counterexample, script = nondeterministic_witness()
        schedule = list(counterexample.schedule)
        scheduler = ScriptedScheduler(
            [edge.pid for edge in schedule], strict=False
        )
        oracle = ScriptedOracle(script[:-1], strict=False)
        system = System(
            dict(zip(explorer.object_names, explorer.specs)),
            explorer.processes,
            oracle=oracle,
        )
        run = system.run(scheduler=scheduler, max_steps=len(schedule))
        assert run.choices() != tuple(edge.choice for edge in schedule)
