"""Tests for the valency / bivalency machinery."""

from repro.analysis.explorer import Explorer
from repro.analysis.valency import (
    BIVALENT,
    DECISIONLESS,
    ONE_VALENT,
    ZERO_VALENT,
    classify,
    contended_object,
    find_critical_configuration,
    initial_valency_report,
)
from repro.objects.classic import TestAndSetSpec
from repro.objects.consensus import MConsensusSpec
from repro.objects.register import RegisterSpec
from repro.core.pac import NPacSpec
from repro.protocols.consensus import (
    TestAndSetConsensusProcess,
    one_shot_consensus_processes,
)
from repro.protocols.dac_from_pac import algorithm2_processes
from repro.runtime.events import Decide, Invoke
from repro.types import op
from tests.oracles import FunctionalAutomaton


def one_shot_explorer(inputs):
    return Explorer(
        {"CONS": MConsensusSpec(len(inputs))},
        one_shot_consensus_processes(list(inputs)),
    )


def tas_explorer(inputs):
    processes = [
        TestAndSetConsensusProcess(pid, value)
        for pid, value in enumerate(inputs)
    ]
    return Explorer(
        {"TAS": TestAndSetSpec(), "R0": RegisterSpec(), "R1": RegisterSpec()},
        processes,
    )


class TestClassify:
    def test_mixed_inputs_bivalent(self):
        explorer = one_shot_explorer((0, 1))
        valency = classify(explorer, explorer.initial_configuration())
        assert valency.label == BIVALENT
        assert valency.bivalent

    def test_uniform_inputs_univalent(self):
        explorer = one_shot_explorer((1, 1))
        valency = classify(explorer, explorer.initial_configuration())
        assert valency.label == ONE_VALENT

    def test_zero_valent(self):
        explorer = one_shot_explorer((0, 0))
        valency = classify(explorer, explorer.initial_configuration())
        assert valency.label == ZERO_VALENT

    def test_decisionless(self):
        spinner = FunctionalAutomaton(
            0,
            ("spin",),
            lambda s: Invoke("R", op("read")),
            lambda s, r: ("spin",),
        )
        explorer = Explorer({"R": RegisterSpec()}, [spinner])
        valency = classify(explorer, explorer.initial_configuration())
        assert valency.label == DECISIONLESS
        assert valency.values == frozenset()

    def test_valency_flips_after_decisive_step(self):
        explorer = one_shot_explorer((0, 1))
        config = explorer.initial_configuration()
        zero_config = explorer.step(config, 0)
        one_config = explorer.step(config, 1)
        assert classify(explorer, zero_config).label == ZERO_VALENT
        assert classify(explorer, one_config).label == ONE_VALENT


class TestInitialValencyReport:
    def test_one_shot_consensus_report(self):
        """Claim 5.2.1-style: mixed inputs produce bivalent initial
        configurations; uniform inputs produce univalent ones."""
        report = initial_valency_report(
            one_shot_explorer, [(0, 0), (0, 1), (1, 0), (1, 1)]
        )
        assert dict(report.entries) == {
            (0, 0): ZERO_VALENT,
            (0, 1): BIVALENT,
            (1, 0): BIVALENT,
            (1, 1): ONE_VALENT,
        }

    def test_algorithm2_paper_initial_config_is_bivalent(self):
        """Claim 4.2.4: the configuration I (p has input 1, others 0) is
        bivalent — computed, not assumed."""

        def make(inputs):
            return Explorer(
                {"PAC": NPacSpec(len(inputs))}, algorithm2_processes(inputs)
            )

        report = initial_valency_report(make, [(1, 0, 0)])
        assert report.entries == (((1, 0, 0), BIVALENT),)


class TestCriticalConfiguration:
    def test_one_shot_consensus_critical_at_start(self):
        explorer = one_shot_explorer((0, 1))
        critical = find_critical_configuration(explorer)
        assert critical is not None
        assert critical.schedule == ()
        assert contended_object(critical) == "CONS"
        labels = {label for _edge, label in critical.successor_valences}
        assert labels == {ZERO_VALENT, ONE_VALENT}

    def test_tas_critical_lands_on_tas_not_registers(self):
        """Claim 4.2.8 / 5.2.3 in action: the descent walks past the
        register writes; at the critical configuration every process is
        poised at the consensus-power object (TAS)."""
        explorer = tas_explorer((0, 1))
        critical = find_critical_configuration(explorer)
        assert critical is not None
        assert contended_object(critical) == "TAS"
        # Both processes already wrote their registers on the way.
        assert len(critical.schedule) == 2

    def test_univalent_initial_returns_none(self):
        explorer = one_shot_explorer((1, 1))
        assert find_critical_configuration(explorer) is None

    def test_critical_schedule_replays(self):
        explorer = tas_explorer((0, 1))
        critical = find_critical_configuration(explorer)
        cursor = explorer.initial_configuration()
        for edge in critical.schedule:
            cursor = explorer.step(cursor, edge.pid, edge.choice)
        assert cursor == critical.configuration

    def test_poised_objects_cover_enabled(self):
        explorer = tas_explorer((0, 1))
        critical = find_critical_configuration(explorer)
        poised_pids = {pid for pid, _obj in critical.poised_objects}
        assert poised_pids == set(critical.configuration.enabled())
