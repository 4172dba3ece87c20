"""Tests for the mechanized commuting lemmas."""

import pytest

from repro.analysis.commuting import (
    check_pair_commutes,
    verify_disjoint_commutativity,
    verify_read_transparency,
)
from repro.analysis.explorer import Explorer
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


def tas_explorer():
    return Explorer(
        {
            "TAS": TestAndSetSpec(),
            "R0": RegisterSpec(),
            "R1": RegisterSpec(),
        },
        [TestAndSetConsensusProcess(0, 0), TestAndSetConsensusProcess(1, 1)],
    )


class TestDisjointCommutativity:
    def test_tas_protocol_disjoint_steps_commute(self):
        """Claim 4.2.7 Case 1 over the whole reachable graph: the two
        processes' announce writes target different registers and must
        commute everywhere."""
        checked, violations = verify_disjoint_commutativity(tas_explorer())
        assert checked > 0
        assert violations == []

    def test_algorithm2_single_object_nothing_to_check(self):
        """Algorithm 2 uses a single PAC: there are no disjoint pairs —
        exactly why the proof's commuting case never fires against it."""
        inputs = (1, 0, 0)
        explorer = Explorer(
            {"PAC": NPacSpec(3)}, algorithm2_processes(inputs)
        )
        checked, violations = verify_disjoint_commutativity(explorer)
        assert checked == 0
        assert violations == []

    def test_nondeterministic_objects_commute_as_sets(self):
        """Two processes on different objects where one object is a
        2-SA: outcome *sets* must coincide across orders."""
        from repro.core.set_agreement import StrongSetAgreementSpec
        from repro.runtime.events import Decide, Invoke
        from tests.oracles import FunctionalAutomaton
        from repro.types import op

        def sa_process(pid):
            return FunctionalAutomaton(
                pid,
                ("go",),
                lambda s: Invoke("SA", op("propose", pid))
                if s[0] == "go"
                else Decide(s[1]),
                lambda s, r: ("done", r),
            )

        def register_process(pid):
            return FunctionalAutomaton(
                pid,
                ("go",),
                lambda s: Invoke("R", op("write", pid))
                if s[0] == "go"
                else Decide(s[1]),
                lambda s, r: ("done", "w"),
            )

        explorer = Explorer(
            {"SA": StrongSetAgreementSpec(2), "R": RegisterSpec()},
            [sa_process(0), register_process(1)],
        )
        checked, violations = verify_disjoint_commutativity(explorer)
        assert checked > 0
        assert violations == []

    def test_same_object_steps_can_fail_to_commute(self):
        """Sanity: steps on the SAME object genuinely do not commute in
        general (first consensus proposer wins) — the commuting lemma's
        disjointness hypothesis is necessary."""
        explorer = Explorer(
            {"CONS": MConsensusSpec(2)},
            one_shot_consensus_processes([0, 1]),
        )
        config = explorer.initial_configuration()
        violation = check_pair_commutes(explorer, config, 0, 1)
        assert violation is not None


class TestReadTransparency:
    def test_tas_reads_never_change_state(self):
        checked, violations = verify_read_transparency(tas_explorer())
        assert checked > 0
        assert violations == []

    def test_spin_candidate_reads_transparent(self):
        from repro.protocols.candidates import dac_via_consensus

        candidate = dac_via_consensus(2, fallback="spin")
        explorer = Explorer(candidate.objects, candidate.processes)
        checked, violations = verify_read_transparency(explorer)
        assert checked > 0
        assert violations == []

    def test_no_registers_means_nothing_checked(self):
        explorer = Explorer(
            {"CONS": MConsensusSpec(2)},
            one_shot_consensus_processes([0, 1]),
        )
        checked, violations = verify_read_transparency(explorer)
        assert checked == 0
        assert violations == []
