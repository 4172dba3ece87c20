"""Mutation tests: broken Algorithm 1 variants must be caught.

Each mutant alters one line of Algorithm 1. If our auditors
(Theorem 3.5 checker, Lemma 3.2 equivalence) are worth anything, every
mutant must be *killed* — some history must expose it. This validates
the test suite itself, not the spec: a suite that passes mutants
silently would prove nothing about the real object either.
"""

import pytest

from repro.analysis.explorer import Explorer
from repro.core.pac import NPacSpec, PacState, check_theorem_3_5, is_legal_history
from repro.protocols.dac_from_pac import algorithm2_processes
from repro.types import BOTTOM, DONE, NIL
from repro.workloads.histories import all_pac_histories, random_pac_history


class ForgetsToClearLabel(NPacSpec):
    """Mutant: decide omits ``L ← NIL`` (Algorithm 1 line 15)."""

    def _decide(self, state, label):
        next_state, response = super()._decide(state, label)
        if not next_state.upset:
            next_state = PacState(
                upset=next_state.upset,
                proposals=next_state.proposals,
                last_label=state.last_label,  # forgot to clear/update
                value=next_state.value,
            )
        return next_state, response


class FixesValueOnBottom(NPacSpec):
    """Mutant: the ⊥ branch also runs ``val ← V[i]`` (line 13 leaks)."""

    def _decide(self, state, label):
        index = label - 1
        proposal = state.proposals[index]
        next_state, response = super()._decide(state, label)
        if (
            response is BOTTOM
            and not next_state.upset
            and proposal is not NIL
            and next_state.value is NIL
        ):
            next_state = PacState(
                upset=next_state.upset,
                proposals=next_state.proposals,
                last_label=next_state.last_label,
                value=proposal,  # leaked assignment
            )
        return next_state, response


class ForgetsToClearSlot(NPacSpec):
    """Mutant: decide omits ``V[i] ← NIL`` (line 16)."""

    def _decide(self, state, label):
        index = label - 1
        next_state, response = super()._decide(state, label)
        if not next_state.upset:
            proposals = list(next_state.proposals)
            proposals[index] = state.proposals[index]  # not cleared
            next_state = PacState(
                upset=next_state.upset,
                proposals=tuple(proposals),
                last_label=next_state.last_label,
                value=next_state.value,
            )
        return next_state, response


class ForgivingUpset(NPacSpec):
    """Mutant: a propose on an upset object un-upsets it (violates
    Observation 3.1)."""

    def _propose(self, state, value, label):
        if state.upset:
            proposals = list(state.proposals)
            proposals[label - 1] = value
            return PacState(
                upset=False,  # illegal recovery
                proposals=tuple(proposals),
                last_label=label,
                value=state.value,
            )
        return super()._propose(state, value, label)


def theorem_killed(spec_type, n=2, tries=400, length=12) -> bool:
    """Does some history expose the mutant to the Theorem 3.5 auditor?

    The auditor replays Algorithm 1 itself, so we re-point it at the
    mutant by monkey-running: we reimplement the replay inline against
    the mutant spec and reuse the audit conditions via response
    comparison with the true spec (divergence = killed)."""
    true_spec = NPacSpec(n)
    mutant = spec_type(n)
    for seed in range(tries):
        history = random_pac_history(n, length, seed=seed, legal_bias=0.4)
        _state, true_responses = true_spec.run(history)
        _state, mutant_responses = mutant.run(history)
        if true_responses != mutant_responses:
            return True
        # Also compare upset flags on every prefix (Lemma 3.2 face).
        for cut in range(len(history) + 1):
            t_state, _ = true_spec.run(history[:cut])
            m_state, _ = mutant.run(history[:cut])
            if t_state.upset != m_state.upset:
                return True
    return False


def property_killed(spec_type, n=2, tries=400, length=12) -> bool:
    """Stronger: the mutant produces a history violating Theorem 3.5 or
    the Lemma 3.2 equivalence *as observed from the outside* — i.e. via
    the mutant's own responses, not by comparison with the true spec."""
    mutant = spec_type(n)
    for seed in range(tries):
        history = random_pac_history(n, length, seed=seed, legal_bias=0.4)
        _state, responses = mutant.run(history)
        # Agreement + validity from the response stream alone:
        decided = [
            response
            for operation, response in zip(history, responses)
            if operation.name == "decide" and response is not BOTTOM
        ]
        if len({repr(v) for v in decided}) > 1:
            return True
        proposed = {
            operation.args[0]
            for operation in history
            if operation.name == "propose"
        }
        if any(value not in proposed for value in decided):
            return True
        # Nontriviality: non-⊥ decide must follow its matching propose;
        # strong validity: the FIRST non-⊥ decide fixes the consensus
        # value, so it must echo its own matching propose (Theorem
        # 3.5(b): the value was proposed *and decided* by that pair).
        first_decided = True
        for position, (operation, response) in enumerate(
            zip(history, responses)
        ):
            if operation.name != "decide" or response is BOTTOM:
                continue
            if position == 0:
                return True
            previous = history[position - 1]
            if previous.name != "propose" or previous.args[1] != operation.args[0]:
                return True
            if first_decided:
                first_decided = False
                if response != previous.args[0]:
                    return True
        # Lemma 3.2 equivalence on the mutant:
        state, _ = mutant.run(history)
        if state.upset == is_legal_history(history, n):
            # upset == legal means the biconditional broke (legal but
            # upset, or illegal but calm).
            return True
    return False


MUTANTS = [
    ForgetsToClearLabel,
    FixesValueOnBottom,
    ForgetsToClearSlot,
    ForgivingUpset,
]


class TestMutantsAreKilled:
    @pytest.mark.parametrize(
        "mutant", MUTANTS, ids=[m.__name__ for m in MUTANTS]
    )
    def test_divergence_detected(self, mutant):
        assert theorem_killed(mutant), (
            f"{mutant.__name__} survived the differential check — the "
            f"auditors have a blind spot"
        )

    @pytest.mark.parametrize(
        "mutant",
        [ForgetsToClearLabel, FixesValueOnBottom, ForgivingUpset],
        ids=["ForgetsToClearLabel", "FixesValueOnBottom", "ForgivingUpset"],
    )
    def test_property_level_kill(self, mutant):
        """These mutants break an externally-observable property (not
        just internal state), so the black-box auditors catch them."""
        assert property_killed(mutant), (
            f"{mutant.__name__} survived the black-box property check"
        )

    def test_true_spec_survives_both_checks(self):
        """Sanity: the real Algorithm 1 is NOT killed."""
        assert not theorem_killed(NPacSpec, tries=200)
        assert not property_killed(NPacSpec, tries=200)


def algorithm2_graph(spec_type, inputs=(1, 0, 0)):
    """Algorithm 2's reachable configurations, in discovery order, over
    an object of ``spec_type``."""
    explorer = Explorer(
        {"PAC": spec_type(len(inputs))}, algorithm2_processes(inputs)
    )
    result = explorer.explore()
    return tuple(repr(result.intern.value(cid)) for cid in result.order_ids)


class TestMutantsStayApart:
    """No transition answer outlives its spec: a mutant explored in the
    same process as Algorithm 1 sees only its own relation, and the
    true object's graph is the same before and after."""

    def test_interleaved_explorations_do_not_mix(self):
        truth = algorithm2_graph(NPacSpec)
        first = {m: algorithm2_graph(m) for m in MUTANTS}
        assert algorithm2_graph(NPacSpec) == truth
        again = {m: algorithm2_graph(m) for m in MUTANTS}
        assert again == first
        # ForgivingUpset differs only on upset objects, which Algorithm 2
        # never reaches; the other three change the reachable graph.
        assert [m for m in MUTANTS if first[m] != truth] == [
            ForgetsToClearLabel,
            FixesValueOnBottom,
            ForgetsToClearSlot,
        ]
