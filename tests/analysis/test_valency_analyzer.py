"""Tests for the whole-graph valency analyzer."""

import pytest

from repro.analysis.explorer import Explorer
from repro.analysis.valency import (
    BIVALENT,
    ONE_VALENT,
    ZERO_VALENT,
    classify,
)
from repro.analysis.valency_analyzer import ValencyAnalyzer
from repro.errors import AnalysisError
from repro.core.pac import NPacSpec
from repro.objects.classic import TestAndSetSpec
from repro.objects.consensus import MConsensusSpec
from repro.objects.register import RegisterSpec
from repro.protocols.candidates import consensus_via_strong_sa
from repro.protocols.consensus import (
    TestAndSetConsensusProcess,
    one_shot_consensus_processes,
)
from repro.protocols.dac_from_pac import algorithm2_processes


def one_shot_analyzer(inputs):
    explorer = Explorer(
        {"CONS": MConsensusSpec(len(inputs))},
        one_shot_consensus_processes(list(inputs)),
    )
    return explorer, ValencyAnalyzer(explorer)


class TestAgreementWithClassify:
    def test_labels_match_per_configuration_classify(self):
        """The memoized analyzer must agree with the per-config
        explorer-based classification everywhere."""
        explorer, analyzer = one_shot_analyzer((0, 1))
        for config in analyzer.graph.configurations:
            assert analyzer.label(config) == classify(explorer, config).label

    def test_algorithm2_graph_labels_match(self):
        inputs = (1, 0)
        explorer = Explorer(
            {"PAC": NPacSpec(2)}, algorithm2_processes(inputs)
        )
        analyzer = ValencyAnalyzer(explorer)
        sampled = list(analyzer.graph.configurations)[:25]
        for config in sampled:
            assert analyzer.label(config) == classify(explorer, config).label


class TestQueries:
    def test_initial_bivalent(self):
        _explorer, analyzer = one_shot_analyzer((0, 1))
        initial = analyzer.graph.initial
        assert analyzer.label(initial) == BIVALENT
        assert analyzer.decision_set(initial) == frozenset({0, 1})

    def test_summary_counts(self):
        _explorer, analyzer = one_shot_analyzer((0, 1))
        summary = analyzer.summary()
        assert summary[BIVALENT] >= 1
        assert summary[ZERO_VALENT] >= 1
        assert summary[ONE_VALENT] >= 1
        assert sum(summary.values()) == len(analyzer.graph.configurations)

    def test_interned_but_unreached_configuration_raises(self):
        """Membership is "reached by this analyzer's graph", not "known
        to the explorer": the initial configuration is interned but
        unreachable from the analyzed subgraph's root."""
        explorer = Explorer(
            {"CONS": MConsensusSpec(2)}, one_shot_consensus_processes([0, 1])
        )
        initial = explorer.initial_configuration()
        start = explorer.step(initial, 0)
        analyzer = ValencyAnalyzer(explorer, initial=start)
        assert analyzer.decision_set(start) == frozenset({0})
        for config in analyzer.graph.order[1:]:
            assert analyzer.decision_set(config) == frozenset({0})
        with pytest.raises(AnalysisError, match="not in the analyzed"):
            analyzer.decision_set(initial)

    def test_unknown_configuration_raises(self):
        from repro.analysis.explorer import Configuration, RUNNING

        _explorer, analyzer = one_shot_analyzer((0, 1))
        foreign = Configuration(
            (("nonsense",), ("nonsense",)), (RUNNING, RUNNING), ((),)
        )
        with pytest.raises(AnalysisError):
            analyzer.decision_set(foreign)

    def test_bivalent_configurations_listed(self):
        _explorer, analyzer = one_shot_analyzer((0, 1))
        bivalent = analyzer.bivalent_configurations()
        assert analyzer.graph.initial in bivalent


class TestCriticalConfigurations:
    def test_one_shot_initial_is_the_critical_config(self):
        _explorer, analyzer = one_shot_analyzer((0, 1))
        reports = analyzer.critical_configurations()
        assert len(reports) == 1
        report = reports[0]
        assert report.configuration == analyzer.graph.initial
        assert report.directions() == {ZERO_VALENT, ONE_VALENT}

    def test_tas_critical_configs_all_poised_at_tas(self):
        """Claim 5.2.3 over *every* critical configuration, not just the
        greedy descent's first one."""
        from repro.analysis.valency import _poised_objects

        explorer = Explorer(
            {
                "TAS": TestAndSetSpec(),
                "R0": RegisterSpec(),
                "R1": RegisterSpec(),
            },
            [
                TestAndSetConsensusProcess(0, 0),
                TestAndSetConsensusProcess(1, 1),
            ],
        )
        analyzer = ValencyAnalyzer(explorer)
        reports = analyzer.critical_configurations()
        assert reports
        for report in reports:
            poised = _poised_objects(explorer, report.configuration)
            assert set(poised.values()) == {"TAS"}

    def test_broken_protocol_violated_leaves_not_critical(self):
        """A quiescent configuration holding two decisions is bivalent
        but has no successors — it must NOT be reported as critical."""
        candidate = consensus_via_strong_sa(2)
        explorer = Explorer(candidate.objects, candidate.processes)
        analyzer = ValencyAnalyzer(explorer)
        for report in analyzer.critical_configurations():
            assert report.configuration.enabled()

    def test_hooks_have_schedules(self):
        _explorer, analyzer = one_shot_analyzer((0, 1))
        report = analyzer.critical_configurations()[0]
        schedule = analyzer.schedule_to(report.configuration)
        assert schedule == []


class TestUniformInputs:
    def test_no_bivalent_configs_with_uniform_inputs(self):
        _explorer, analyzer = one_shot_analyzer((1, 1))
        assert analyzer.bivalent_configurations() == []
        assert analyzer.critical_configurations() == []
