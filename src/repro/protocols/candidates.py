"""Doomed candidate algorithms for the paper's impossibility results.

Theorems 4.2, 5.2, and 6.5 quantify over *all* algorithms, which no
test suite can enumerate. What we *can* do — and what these candidates
are for — is run the paper's adversary against the natural algorithms a
practitioner would actually write, and watch each one fail in exactly
the way the proofs predict (experiments E4, E5, E7, E13):

* safety candidates fail with a concrete violating schedule found by
  the explorer (agreement or validity broken);
* liveness candidates fail with a concrete *adversarial loop*: a
  reachable cycle in the configuration graph in which some process
  takes steps forever without deciding (the "infinitely many steps
  without deciding" runs the bivalency inductions construct).

Each candidate is packaged as a :class:`CandidateSystem` so the
experiment harness can run them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Sequence, Tuple

from ..errors import SpecificationError
from ..types import BOTTOM, ProcessId, Value, op, require
from ..objects.consensus import MConsensusSpec
from ..objects.register import RegisterSpec, register_array
from ..objects.spec import SequentialSpec
from ..core.combined import CombinedPacSpec
from ..core.set_agreement import StrongSetAgreementSpec
from ..runtime.events import Abort, Action, Decide, Invoke
from ..runtime.process import ProcessAutomaton
from .tasks import ConsensusTask, DacDecisionTask, DecisionTask


@dataclass
class CandidateSystem:
    """A candidate algorithm bundled with its target task.

    ``expected_failure`` is ``"safety"`` (the explorer should find a
    violating schedule) or ``"liveness"`` (the explorer should find an
    adversarial non-deciding loop); ``"none"`` marks control candidates
    that are actually correct (used to validate the harness itself).
    """

    name: str
    objects: Dict[str, SequentialSpec]
    processes: List[ProcessAutomaton]
    task: DecisionTask
    inputs: Tuple[Value, ...]
    expected_failure: str
    notes: str = ""


class ConsensusViaExhaustedConsensus(ProcessAutomaton):
    """Try (m+1)-consensus with one m-consensus object.

    Propose; decide a non-⊥ response; on ⊥ (you were the (m+1)-th)
    decide your own input. The ⊥ path breaks Agreement: the adversary
    schedules the odd process out last with a conflicting input.
    """

    def __init__(self, pid: ProcessId, value: Value, obj: str = "CONS") -> None:
        super().__init__(pid)
        self.value = value
        self.obj = obj

    def initial_state(self) -> Hashable:
        return ("propose",)

    def next_action(self, state: Hashable) -> Action:
        if state[0] == "propose":
            return Invoke(self.obj, op("propose", self.value))
        return Decide(state[1])

    def transition(self, state: Hashable, response: Value) -> Hashable:
        if response is BOTTOM:
            return ("decided", self.value)
        return ("decided", response)


class ConsensusViaStrongSA(ProcessAutomaton):
    """Try consensus with one strong 2-SA object: decide its response.

    The 2-SA answers with *either* of the first two distinct proposals,
    adversary's choice — so two processes with different inputs can be
    told different things. Safety failure; the explorer exhibits the
    response choices. (This is the constructive face of "2-SA has
    consensus number 1", experiment E13.)
    """

    def __init__(self, pid: ProcessId, value: Value, obj: str = "SA") -> None:
        super().__init__(pid)
        self.value = value
        self.obj = obj

    def initial_state(self) -> Hashable:
        return ("propose",)

    def next_action(self, state: Hashable) -> Action:
        if state[0] == "propose":
            return Invoke(self.obj, op("propose", self.value))
        return Decide(state[1])

    def transition(self, state: Hashable, response: Value) -> Hashable:
        return ("decided", response)


class DacViaConsensusProcess(ProcessAutomaton):
    """Try (n+1)-DAC with one n-consensus object.

    Everyone proposes its input. Non-⊥ → decide it. On ⊥, the
    distinguished process aborts; a non-distinguished process falls back
    to ``fallback``:

    * ``"own"`` — decide your own input (Agreement/Validity failure);
    * ``"spin"`` — re-read a register forever (Termination (b) failure:
      the explorer finds the solo non-deciding loop).
    """

    def __init__(
        self,
        pid: ProcessId,
        value: Value,
        distinguished: bool,
        fallback: str = "own",
        obj: str = "CONS",
        spin_register: str = "R0",
    ) -> None:
        super().__init__(pid)
        require(
            fallback in ("own", "spin"),
            SpecificationError,
            f"unknown fallback {fallback!r}",
        )
        self.value = value
        self.distinguished = distinguished
        self.fallback = fallback
        self.obj = obj
        self.spin_register = spin_register

    def initial_state(self) -> Hashable:
        return ("propose",)

    def next_action(self, state: Hashable) -> Action:
        tag = state[0]
        if tag == "propose":
            return Invoke(self.obj, op("propose", self.value))
        if tag == "spin":
            return Invoke(self.spin_register, op("read"))
        if tag == "abort":
            return Abort()
        return Decide(state[1])

    def transition(self, state: Hashable, response: Value) -> Hashable:
        tag = state[0]
        if tag == "spin":
            return ("spin",)
        assert tag == "propose"
        if response is not BOTTOM:
            return ("decided", response)
        if self.distinguished:
            return ("abort",)
        if self.fallback == "own":
            return ("decided", self.value)
        return ("spin",)


class DacViaSaArbiterProcess(ProcessAutomaton):
    """Try (n+1)-DAC by funnelling through a 2-SA before n-consensus.

    Each process first proposes its input to a 2-SA "arbiter", then
    proposes the arbiter's answer to an n-consensus object; ⊥ from the
    consensus object means deciding the arbiter's answer directly (the
    distinguished process aborts instead). Looks clever — the arbiter
    squeezes n+1 opinions into ≤ 2 — but the ⊥-path decision skips the
    consensus object, and the adversary desynchronizes the two answers
    (Agreement failure), exactly the kind of hope Theorem 4.2 forecloses.
    """

    def __init__(
        self,
        pid: ProcessId,
        value: Value,
        distinguished: bool,
        sa: str = "SA",
        cons: str = "CONS",
    ) -> None:
        super().__init__(pid)
        self.value = value
        self.distinguished = distinguished
        self.sa = sa
        self.cons = cons

    def initial_state(self) -> Hashable:
        return ("arbiter",)

    def next_action(self, state: Hashable) -> Action:
        tag = state[0]
        if tag == "arbiter":
            return Invoke(self.sa, op("propose", self.value))
        if tag == "consensus":
            return Invoke(self.cons, op("propose", state[1]))
        if tag == "abort":
            return Abort()
        return Decide(state[1])

    def transition(self, state: Hashable, response: Value) -> Hashable:
        tag = state[0]
        if tag == "arbiter":
            return ("consensus", response)
        assert tag == "consensus"
        if response is not BOTTOM:
            return ("decided", response)
        if self.distinguished:
            return ("abort",)
        return ("decided", state[1])


class PacRetryConsensusProcess(ProcessAutomaton):
    """Try (m+1)-consensus through the PAC face of an (n, m)-PAC.

    Everyone hammers label 1: ``proposeP(v, 1)``; ``decideP(1)``; retry
    on ⊥. Two consecutive proposes on one label upset the PAC forever
    (Algorithm 1, line 2), after which every decide returns ⊥ — the
    upset-flooding run of Claim 5.2.7. Liveness failure: the explorer
    finds the non-deciding loop.
    """

    def __init__(self, pid: ProcessId, value: Value, obj: str = "NMPAC") -> None:
        super().__init__(pid)
        self.value = value
        self.obj = obj

    def initial_state(self) -> Hashable:
        return ("propose",)

    def next_action(self, state: Hashable) -> Action:
        tag = state[0]
        if tag == "propose":
            return Invoke(self.obj, op("proposeP", self.value, 1))
        if tag == "decide":
            return Invoke(self.obj, op("decideP", 1))
        return Decide(state[1])

    def transition(self, state: Hashable, response: Value) -> Hashable:
        tag = state[0]
        if tag == "propose":
            return ("decide",)
        assert tag == "decide"
        if response is not BOTTOM:
            return ("decided", response)
        return ("propose",)


class ScanningRacerProcess(ProcessAutomaton):
    """Try n-consensus with a one-winner race object plus registers.

    Shape shared by the queue and test-and-set candidates: announce
    your input in ``R{pid}``, race on a level-2 object; the winner
    decides its own input; a loser *scans* the other announce registers
    and decides the smallest announced value it sees (its own included).
    With two processes the winner's register is the only other one, so
    this is exactly Herlihy's correct protocol; with three processes the
    loser cannot tell *which* racer won, and the deterministic tie-break
    disagrees with the winner on some schedule — the classical "queue
    and test-and-set are at level 2" separation, candidate-ized.

    ``race_obj``/``race_operation``/``win_predicate`` parameterize the
    race (queue dequeue returning "winner", or test_and_set returning 0).
    """

    def __init__(
        self,
        pid: ProcessId,
        value: Value,
        num_processes: int,
        race_obj: str,
        race_operation,
        win_response: Value,
        register_prefix: str = "R",
    ) -> None:
        super().__init__(pid)
        self.value = value
        self.num_processes = num_processes
        self.race_obj = race_obj
        self.race_operation = race_operation
        self.win_response = win_response
        self.register_prefix = register_prefix
        self.others = tuple(
            other for other in range(num_processes) if other != pid
        )

    def initial_state(self) -> Hashable:
        return ("announce",)

    def next_action(self, state: Hashable) -> Action:
        tag = state[0]
        if tag == "announce":
            return Invoke(
                f"{self.register_prefix}{self.pid}", op("write", self.value)
            )
        if tag == "race":
            return Invoke(self.race_obj, self.race_operation)
        if tag == "scan":
            index = state[1]
            return Invoke(
                f"{self.register_prefix}{self.others[index]}", op("read")
            )
        return Decide(state[1])

    def transition(self, state: Hashable, response: Value) -> Hashable:
        from ..types import NIL

        tag = state[0]
        if tag == "announce":
            return ("race",)
        if tag == "race":
            if response == self.win_response:
                return ("decided", self.value)
            return ("scan", 0, ())
        assert tag == "scan"
        index, seen = state[1], state[2]
        seen = seen + ((response,) if response is not NIL else ())
        if index + 1 < len(self.others):
            return ("scan", index + 1, seen)
        # A loser adopts an announced value (the winner's, it hopes).
        # With n = 2 the only announced value IS the winner's, so this
        # is Herlihy's correct protocol; with n >= 3 the min tie-break
        # can pick a fellow loser's value.
        if seen:
            return ("decided", min(seen))
        return ("decided", self.value)


# ---------------------------------------------------------------------------
# Candidate factories
# ---------------------------------------------------------------------------


def consensus_via_exhausted_consensus(m: int = 2) -> CandidateSystem:
    """(m+1)-consensus from one m-consensus object: safety failure."""
    n = m + 1
    inputs = tuple(pid % 2 for pid in range(n))
    return CandidateSystem(
        name=f"{n}-consensus from {m}-consensus (decide own on ⊥)",
        objects={"CONS": MConsensusSpec(m)},
        processes=[
            ConsensusViaExhaustedConsensus(pid, inputs[pid]) for pid in range(n)
        ],
        task=ConsensusTask(n),
        inputs=inputs,
        expected_failure="safety",
        notes="The ⊥ receiver decides its own input; schedule it last "
        "with a minority input.",
    )


def consensus_via_strong_sa(n: int = 2) -> CandidateSystem:
    """n-consensus from one strong 2-SA object: safety failure (n >= 2)."""
    inputs = tuple(pid % 2 for pid in range(n))
    return CandidateSystem(
        name=f"{n}-consensus from one 2-SA",
        objects={"SA": StrongSetAgreementSpec(2)},
        processes=[ConsensusViaStrongSA(pid, inputs[pid]) for pid in range(n)],
        task=ConsensusTask(n),
        inputs=inputs,
        expected_failure="safety",
        notes="The 2-SA may answer the two processes with different "
        "members of STATE.",
    )


def dac_via_consensus(n: int = 2, fallback: str = "own") -> CandidateSystem:
    """(n+1)-DAC from one n-consensus object + a register.

    ``fallback='own'`` → safety failure; ``fallback='spin'`` → liveness
    failure (Termination (b) broken in a q-solo run).
    """
    total = n + 1
    inputs = DacDecisionTask.paper_initial_inputs(total)
    processes: List[ProcessAutomaton] = [
        DacViaConsensusProcess(
            pid=pid,
            value=inputs[pid],
            distinguished=(pid == 0),
            fallback=fallback,
        )
        for pid in range(total)
    ]
    return CandidateSystem(
        name=f"{total}-DAC from {n}-consensus (fallback={fallback})",
        objects={"CONS": MConsensusSpec(n), "R0": RegisterSpec()},
        processes=processes,
        task=DacDecisionTask(total, distinguished=0),
        inputs=inputs,
        expected_failure="safety" if fallback == "own" else "liveness",
        notes="Theorem 4.2 says no fallback can work; this one fails "
        f"by {fallback}-path.",
    )


def dac_via_sa_arbiter(n: int = 2) -> CandidateSystem:
    """(n+1)-DAC from n-consensus + 2-SA: the arbiter hope, refuted."""
    total = n + 1
    inputs = DacDecisionTask.paper_initial_inputs(total)
    processes: List[ProcessAutomaton] = [
        DacViaSaArbiterProcess(
            pid=pid, value=inputs[pid], distinguished=(pid == 0)
        )
        for pid in range(total)
    ]
    return CandidateSystem(
        name=f"{total}-DAC from {n}-consensus + 2-SA arbiter",
        objects={"SA": StrongSetAgreementSpec(2), "CONS": MConsensusSpec(n)},
        processes=processes,
        task=DacDecisionTask(total, distinguished=0),
        inputs=inputs,
        expected_failure="safety",
        notes="The ⊥-path decision bypasses the consensus object; the "
        "adversary desynchronizes the SA answers.",
    )


def consensus_via_pac_retry(n: int = 3, m: int = 2) -> CandidateSystem:
    """(m+1)-consensus from an (n, m)-PAC's PAC face: liveness failure.

    This is the Claim 5.2.7 upset-flooding scenario made concrete.
    """
    total = m + 1
    inputs = tuple(pid % 2 for pid in range(total))
    return CandidateSystem(
        name=f"{total}-consensus from ({n},{m})-PAC via PAC retries",
        objects={"NMPAC": CombinedPacSpec(n, m)},
        processes=[
            PacRetryConsensusProcess(pid, inputs[pid]) for pid in range(total)
        ],
        task=ConsensusTask(total),
        inputs=inputs,
        expected_failure="liveness",
        notes="Two consecutive proposes on label 1 upset the PAC; all "
        "subsequent decides return ⊥ forever.",
    )


def consensus_via_queue(n: int = 3) -> CandidateSystem:
    """n-consensus from one pre-loaded queue + registers.

    Correct for n = 2 (Herlihy's protocol); the ``expected_failure``
    field flips accordingly, so the harness can also use the 2-process
    instance as a positive control.
    """
    from ..objects.classic import QueueSpec

    inputs = tuple(pid % 2 for pid in range(n))
    tokens = ("winner",) + tuple(f"loser{i}" for i in range(n - 1))
    objects: Dict[str, SequentialSpec] = {
        "Q": QueueSpec(initial=tokens),
        **register_array(n),
    }
    processes: List[ProcessAutomaton] = [
        ScanningRacerProcess(
            pid=pid,
            value=inputs[pid],
            num_processes=n,
            race_obj="Q",
            race_operation=op("dequeue"),
            win_response="winner",
        )
        for pid in range(n)
    ]
    return CandidateSystem(
        name=f"{n}-consensus from queue + registers",
        objects=objects,
        processes=processes,
        task=ConsensusTask(n),
        inputs=inputs,
        expected_failure="none" if n <= 2 else "safety",
        notes="A loser cannot tell which racer won; the scan's "
        "tie-break disagrees with the winner for n >= 3.",
    )


def consensus_via_test_and_set(n: int = 3) -> CandidateSystem:
    """n-consensus from one test-and-set + registers (correct iff n=2)."""
    from ..objects.classic import TestAndSetSpec

    inputs = tuple(pid % 2 for pid in range(n))
    objects: Dict[str, SequentialSpec] = {
        "TAS": TestAndSetSpec(),
        **register_array(n),
    }
    processes: List[ProcessAutomaton] = [
        ScanningRacerProcess(
            pid=pid,
            value=inputs[pid],
            num_processes=n,
            race_obj="TAS",
            race_operation=op("test_and_set"),
            win_response=0,
        )
        for pid in range(n)
    ]
    return CandidateSystem(
        name=f"{n}-consensus from test-and-set + registers",
        objects=objects,
        processes=processes,
        task=ConsensusTask(n),
        inputs=inputs,
        expected_failure="none" if n <= 2 else "safety",
        notes="Same scanning weakness as the queue candidate — "
        "test-and-set is at level 2.",
    )


def all_candidates() -> List[CandidateSystem]:
    """The default candidate suite for experiments E4/E5/E7/E13.

    Includes two *positive controls* (the 2-process queue and TAS
    instances, which are correct protocols) so the harness's "no
    violation found" answer is itself validated.
    """
    return [
        consensus_via_exhausted_consensus(2),
        consensus_via_strong_sa(2),
        dac_via_consensus(2, fallback="own"),
        dac_via_consensus(2, fallback="spin"),
        dac_via_sa_arbiter(2),
        consensus_via_pac_retry(3, 2),
        consensus_via_queue(2),
        consensus_via_queue(3),
        consensus_via_test_and_set(2),
        consensus_via_test_and_set(3),
    ]
