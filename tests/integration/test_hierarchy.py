"""Integration: the consensus hierarchy tour (experiment E13).

Constructive memberships (object X solves consensus among n processes)
are model-checked; the classical separations (registers cannot do 2,
test-and-set cannot do 3, 2-SA cannot do 2) are evidenced on the
natural candidate protocols with explorer-found witnesses.
"""

import pytest

from repro.analysis.explorer import Explorer
from repro.analysis.valency import classify, BIVALENT
from repro.objects.classic import (
    CompareAndSwapSpec,
    StickyBitSpec,
    TestAndSetSpec,
)
from repro.objects.consensus import MConsensusSpec
from repro.objects.register import RegisterSpec
from repro.core.set_agreement import StrongSetAgreementSpec
from repro.protocols.candidates import (
    consensus_via_exhausted_consensus,
    consensus_via_strong_sa,
)
from repro.protocols.consensus import (
    CasConsensusProcess,
    StickyBitConsensusProcess,
    TestAndSetConsensusProcess,
    one_shot_consensus_processes,
)
from repro.protocols.tasks import ConsensusTask
from repro.runtime.events import Decide, Invoke
from repro.types import op
from tests.oracles import FunctionalAutomaton


class TestLevelMemberships:
    def test_m_consensus_at_level_m(self):
        for m in (1, 2, 3, 4):
            inputs = tuple(pid % 2 for pid in range(m))
            explorer = Explorer(
                {"CONS": MConsensusSpec(m)},
                one_shot_consensus_processes(list(inputs)),
            )
            assert explorer.check_safety(ConsensusTask(max(m, 2)) if m >= 2
                                         else ConsensusTask(2), inputs) is None

    def test_tas_solves_2(self):
        explorer = Explorer(
            {"TAS": TestAndSetSpec(), "R0": RegisterSpec(), "R1": RegisterSpec()},
            [TestAndSetConsensusProcess(0, 0), TestAndSetConsensusProcess(1, 1)],
        )
        assert explorer.check_safety(ConsensusTask(2), (0, 1)) is None

    def test_cas_solves_any_n(self):
        for count in (2, 3, 4, 5):
            inputs = tuple(pid % 2 for pid in range(count))
            explorer = Explorer(
                {"CAS": CompareAndSwapSpec()},
                [CasConsensusProcess(pid, v) for pid, v in enumerate(inputs)],
            )
            assert explorer.check_safety(ConsensusTask(count), inputs) is None

    def test_sticky_bit_solves_binary_any_n(self):
        for count in (2, 3, 4):
            inputs = tuple(pid % 2 for pid in range(count))
            explorer = Explorer(
                {"STICKY": StickyBitSpec()},
                [
                    StickyBitConsensusProcess(pid, v)
                    for pid, v in enumerate(inputs)
                ],
            )
            assert explorer.check_safety(ConsensusTask(count), inputs) is None


class TestSeparationEvidence:
    def test_register_write_read_candidate_fails_consensus(self):
        """The natural register protocol (write yours, read the other,
        pick deterministically) violates agreement under interleaving —
        the register level-1 separation on a concrete candidate."""

        def make_process(pid, value):
            other = 1 - pid

            def action(state):
                if state[0] == "write":
                    return Invoke(f"R{pid}", op("write", value))
                if state[0] == "read":
                    return Invoke(f"R{other}", op("read"))
                return Decide(state[1])

            def update(state, response):
                if state[0] == "write":
                    return ("read",)
                # Deterministic tie-break: decide the minimum of the two
                # values seen (NIL counts as "only mine").
                from repro.types import NIL

                if response is NIL:
                    return ("done", value)
                return ("done", min(value, response))

            return FunctionalAutomaton(pid, ("write",), action, update)

        explorer = Explorer(
            {"R0": RegisterSpec(), "R1": RegisterSpec()},
            [make_process(0, 0), make_process(1, 1)],
        )
        # min() agrees when both see both... the asymmetric schedule
        # where one sees NIL and the other doesn't splits them.
        counterexample = explorer.check_safety(ConsensusTask(2), (0, 1))
        assert counterexample is not None

    def test_exhausted_consensus_candidate_fails(self):
        for m in (2, 3):
            candidate = consensus_via_exhausted_consensus(m)
            explorer = Explorer(candidate.objects, candidate.processes)
            assert explorer.check_safety(candidate.task, candidate.inputs)

    def test_strong_sa_fails_consensus_any_n(self):
        """2-SA has consensus number 1: already at n = 2 the natural
        protocol is refuted by the adversary's response choices."""
        for count in (2, 3):
            candidate = consensus_via_strong_sa(count)
            explorer = Explorer(candidate.objects, candidate.processes)
            assert explorer.check_safety(candidate.task, candidate.inputs)

    def test_sa_commuting_argument_shape(self):
        """The Subclaim 4.2.6.2 insight, executed: after p's propose,
        the 2-SA's *state* is insensitive to the response the adversary
        hands out, so p's step cannot split valence by state — only by
        p's own view. Check: all outcome states equal."""
        spec = StrongSetAgreementSpec(2)
        state, _resp = spec.apply(spec.initial_state(), op("propose", "a"))
        outcomes = spec.responses(state, op("propose", "b"))
        assert len({s for s, _r in outcomes}) == 1
