"""Tests for the hierarchy probe API."""

import pytest

from repro.core.hierarchy import (
    REFUTED,
    SOLVES,
    UNKNOWN,
    HierarchyProbe,
    builtin_catalog,
)
from repro.errors import SpecificationError


class TestProbeValidation:
    def test_needs_some_factory(self):
        with pytest.raises(SpecificationError):
            HierarchyProbe("empty", None, 0, None)

    def test_count_must_be_positive(self):
        probe = builtin_catalog()["2-consensus"]
        with pytest.raises(SpecificationError):
            probe.probe(0)


class TestBuiltinCatalog:
    def test_m_consensus_solves_up_to_m(self):
        probe = builtin_catalog()["2-consensus"]
        assert probe.probe(2).grade == SOLVES

    def test_m_consensus_refuted_beyond_m(self):
        probe = builtin_catalog()["2-consensus"]
        cell = probe.probe(3)
        assert cell.grade == REFUTED
        assert "witness" in cell.detail

    def test_three_consensus(self):
        probe = builtin_catalog()["3-consensus"]
        assert probe.probe(2).grade == SOLVES
        assert probe.probe(3).grade == SOLVES
        assert probe.probe(4).grade == REFUTED

    @pytest.mark.parametrize("m, count", [(2, 3), (2, 4), (3, 4)])
    def test_m_consensus_candidate_runs_count_processes(
        self, explorers_built, m, count
    ):
        """Beyond ``m`` the cell grades the candidate built over
        ``count`` processes, never the (m+1)-process one."""
        cell = builtin_catalog(max_count=4)[f"{m}-consensus"].probe(count)
        assert cell.grade == REFUTED
        assert [len(explorer.processes) for explorer in explorers_built] == [
            count
        ]

    def test_tas_level_two(self):
        probe = builtin_catalog()["test-and-set"]
        assert probe.probe(2).grade == SOLVES
        assert probe.probe(3).grade == REFUTED

    def test_cas_solves_everything_probed(self):
        probe = builtin_catalog(max_count=4)["compare-and-swap"]
        for count in (2, 3, 4):
            assert probe.probe(count).grade == SOLVES

    def test_sa_refuted_from_two(self):
        probe = builtin_catalog()["strong 2-SA"]
        assert probe.probe(2).grade == REFUTED
        assert probe.probe(3).grade == REFUTED


class TestBounds:
    def test_consensus_number_bounds(self):
        probe = builtin_catalog()["2-consensus"]
        lower, first_refuted = probe.consensus_number_bounds(3)
        assert lower == 2
        assert first_refuted == 3

    def test_cas_bounds_open_above(self):
        probe = builtin_catalog(max_count=4)["compare-and-swap"]
        lower, first_refuted = probe.consensus_number_bounds(4)
        assert lower == 4
        assert first_refuted is None

    def test_sa_bounds(self):
        probe = builtin_catalog()["strong 2-SA"]
        lower, first_refuted = probe.consensus_number_bounds(3)
        assert lower == 1
        assert first_refuted == 2

    def test_probe_range_counts(self):
        probe = builtin_catalog()["2-consensus"]
        cells = probe.probe_range(3)
        assert [cell.count for cell in cells] == [2, 3]


class TestUnknownGrades:
    def test_no_coverage_is_unknown(self):
        probe = HierarchyProbe(
            "narrow",
            protocol_factory=lambda inputs: ({}, []),
            protocol_reach=0,
        )
        assert probe.probe(2).grade == UNKNOWN

    def test_surviving_candidate_is_unknown_not_solves(self):
        """A candidate that happens to be correct yields UNKNOWN — the
        probe never upgrades survival to membership."""
        from repro.protocols.candidates import consensus_via_queue

        def candidate(inputs):
            system = consensus_via_queue(len(inputs))
            return system.objects, system.processes

        probe = HierarchyProbe(
            "queue-candidate-only",
            protocol_factory=None,
            protocol_reach=0,
            candidate_factory=candidate,
        )
        assert probe.probe(2).grade == UNKNOWN
        assert probe.probe(3).grade == REFUTED


class TestWalkOnce:
    def test_catalog_grid_walks_each_explorer_once(
        self, explore_calls, explorers_built
    ):
        solves = (SOLVES, "model-checked: all binary inputs × all schedules")
        refuted = (REFUTED, "natural candidate refuted (safety witness)")
        grid = {
            name: [(cell.grade, cell.detail) for cell in probe.probe_range(3)]
            for name, probe in builtin_catalog(3).items()
        }
        assert grid == {
            "2-consensus": [solves, refuted],
            "3-consensus": [solves, solves],
            "test-and-set": [solves, refuted],
            "compare-and-swap": [solves, solves],
            "strong 2-SA": [refuted, refuted],
        }
        assert len(explorers_built) == 36
        assert len(explore_calls) == 36
