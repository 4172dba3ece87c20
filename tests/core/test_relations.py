"""Tests for the implementability ledger and separation report."""

import pytest

from repro.core.relations import Edge, Ledger, paper_ledger, separation_report
from repro.errors import AnalysisError, SpecificationError


class TestLedgerBasics:
    def test_verify_requires_passing_check(self):
        ledger = Ledger()
        with pytest.raises(AnalysisError, match="verification failed"):
            ledger.verify("A", "B", lambda: False, "broken")
        assert not ledger.implements("A", "B")

    def test_verify_records_edge(self):
        ledger = Ledger()
        edge = ledger.verify("A", "B", lambda: True, "trivial")
        assert edge.positive
        assert ledger.implements("A", "B")

    def test_implements_is_reflexive(self):
        assert Ledger().implements("A", "A")

    def test_implements_is_transitive(self):
        ledger = Ledger()
        ledger.verify("A", "B", lambda: True, "ab")
        ledger.verify("B", "C", lambda: True, "bc")
        assert ledger.implements("A", "C")
        assert not ledger.implements("C", "A")

    def test_refute_requires_candidates(self):
        ledger = Ledger()
        with pytest.raises(SpecificationError):
            ledger.refute("A", "B", 0, "Thm")

    def test_refuted_lookup(self):
        ledger = Ledger()
        ledger.refute("A", "B", 3, "Theorem 4.2")
        edge = ledger.refuted("A", "B")
        assert edge is not None and not edge.positive
        assert "Theorem 4.2" in edge.evidence
        assert ledger.refuted("B", "A") is None

    def test_consistency_detects_conflicts(self):
        ledger = Ledger()
        ledger.verify("A", "B", lambda: True, "ab")
        ledger.refute("A", "B", 1, "contradiction")
        assert ledger.check_consistency()

    def test_consistency_respects_closure(self):
        ledger = Ledger()
        ledger.verify("A", "B", lambda: True, "ab")
        ledger.verify("B", "C", lambda: True, "bc")
        ledger.refute("A", "C", 1, "contradiction via closure")
        assert ledger.check_consistency()

    def test_nodes_and_edges(self):
        ledger = Ledger()
        ledger.verify("A", "B", lambda: True, "ab")
        ledger.refute("C", "D", 1, "cd")
        assert len(ledger.edges()) == 2


class TestPaperLedger:
    def test_level_2_assembles_and_is_consistent(self):
        ledger = paper_ledger(2, seeds=2)
        assert ledger.check_consistency() == []
        # The constructive spine:
        assert ledger.implements("O_2", "3-PAC")
        assert ledger.implements("O_2", "3-DAC")  # via 3-PAC (transitive)
        assert ledger.implements("2-consensus + 2-SA + registers", "O'_2")
        # The separation edge:
        assert ledger.refuted("O'_2", "O_2") is not None

    def test_base_family_refuted_against_dac(self):
        ledger = paper_ledger(2, seeds=2)
        edge = ledger.refuted("2-consensus + 2-SA + registers", "3-DAC")
        assert edge is not None
        assert "Theorem 4.2" in edge.evidence

    def test_levels_start_at_2(self):
        with pytest.raises(SpecificationError):
            paper_ledger(1)


class TestSeparationReport:
    def test_corollary_6_6_reproduced_at_level_2(self):
        report = separation_report(2)
        assert report.same_power
        assert report.on_implements_witness_task
        assert report.on_prime_refuted
        assert report.conflicts == ()
        assert report.reproduces_corollary_6_6

    def test_level_3(self):
        report = separation_report(3)
        assert report.reproduces_corollary_6_6

    def test_report_carries_its_evidence(self):
        report = separation_report(2, seeds=1)
        assert report.on_solves_dac
        assert [name for name, _outcome in report.candidates] == [
            "3-DAC from 2-consensus (fallback=own)",
            "3-DAC from 2-consensus (fallback=spin)",
            "3-DAC from 2-consensus + 2-SA arbiter",
        ]
        assert all(outcome != "none" for _name, outcome in report.candidates)
        assert report.survivors == ()
        assert report.on_power.name == "O_2"
        assert report.on_prime_power.name == "O'_2"
        for name, cells in report.power_cells:
            assert [(c.k, c.process_count, c.certified) for c in cells] == [
                (1, 2, True),
                (2, 4, True),
            ], name
        assert report.uncertified == ()

    def test_failed_cell_breaks_same_power(self, monkeypatch):
        from repro.core import relations
        from repro.core.power_certification import Certification

        monkeypatch.setattr(
            relations,
            "certify_combined_pac",
            lambda n, m, k: Certification(k, m * k, "broken", certified=k != 1),
        )
        report = separation_report(2, seeds=1)
        assert report.uncertified == ("O_2 k=1",)
        assert report.on_power.agrees_with(report.on_prime_power, 8)
        assert not report.same_power
        assert not report.reproduces_corollary_6_6

    def test_walks_each_explorer_once(self, explore_calls, explorers_built):
        separation_report(2, seeds=1)
        # 4 evidence explorers plus 4 certified power cells.
        assert len(explorers_built) == 8
        assert len(explore_calls) == 8


class TestOneCriterion:
    """A candidate that survives is a violation, not a crash."""

    def test_surviving_candidate_records_no_negative_edge(
        self, surviving_candidate
    ):
        report = separation_report(2, seeds=1)
        assert report.survivors == (surviving_candidate,)
        assert (surviving_candidate, "none") in report.candidates
        assert not report.on_prime_refuted
        assert all(edge.positive for edge in report.ledger.edges())
        assert report.conflicts == ()
        assert not report.reproduces_corollary_6_6

    def test_paper_ledger_does_not_raise(self, surviving_candidate):
        ledger = paper_ledger(2, seeds=1)
        assert ledger.refuted("O'_2", "O_2") is None
        assert ledger.implements("O_2", "3-DAC")

    def test_failed_termination_drops_the_theorem_4_1_edge(self, monkeypatch):
        from repro.analysis.explorer import Explorer

        monkeypatch.setattr(
            Explorer, "solo_termination", lambda self, pid, *a, **k: False
        )
        report = separation_report(2, seeds=1)
        assert not report.on_solves_dac
        assert not report.ledger.implements("3-PAC", "3-DAC")
        assert not report.on_implements_witness_task
        assert not report.reproduces_corollary_6_6
