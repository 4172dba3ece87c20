"""The fast exploration core is an optimization, not a semantics change.

Three angles pin that down:

1. a **naive reference expansion** (raw automaton/spec calls, no
   interning, no caches) must agree with the memoized explorer on the
   full successor relation and BFS order;
2. a **baseline digest** over order, witnesses, decision sets, and
   safety verdicts of the E18 instances — computed from the pre-fast-core
   implementation — must still come out bit-for-bit, in-process and in
   subprocesses under varied ``PYTHONHASHSEED`` (the replayability
   contract, R001);
3. the **symmetry-reduced** explorer must agree with the unreduced one
   on every orbit-invariant verdict across E18 input assignments.

Plus two regressions for satellite fixes: ``solo_termination`` on a
deep solo chain (must not hit the recursion limit) and ``step``
computing only the requested process's outcomes.
"""

import hashlib
import os
import subprocess
import sys
from collections import deque

import pytest

from repro.analysis.explorer import Configuration, Edge, Explorer, RUNNING
from repro.core.pac import NPacSpec
from repro.objects.consensus import MConsensusSpec
from repro.objects.register import RegisterSpec
from repro.protocols.consensus import one_shot_consensus_processes
from repro.protocols.dac_from_pac import (
    algorithm2_processes,
    algorithm2_symmetry,
)
from repro.protocols.obstruction_free import (
    adopt_commit_round_objects,
    obstruction_free_processes,
)
from repro.protocols.tasks import ConsensusTask, DacDecisionTask
from repro.runtime.events import Abort, Decide, Halt, Invoke
from repro.types import op
from tests.oracles import FunctionalAutomaton

#: sha256 over (order, witness schedules, decision sets, safety
#: verdicts) of the three E18 instances below, computed from the
#: pre-fast-core explorer (commit cbd348e). The fast core must
#: reproduce it bit-for-bit.
SEED_DIGEST = "ac0bfa469fc4354b295683c0de69f2bc5deed61fc0955d0d7713d6bf12c67c77"


# -- a naive reference expansion (deliberately cache-free) ------------------


def _reference_successors(explorer, config):
    """Seed-semantics expansion via raw automaton/spec calls."""
    result = []
    for pid in config.enabled():
        automaton = explorer.processes[pid]
        action = automaton.next_action(config.process_states[pid])
        assert isinstance(action, Invoke)
        obj_index = explorer.object_names.index(action.obj)
        spec = explorer.specs[obj_index]
        outcomes = spec.responses(
            config.object_states[obj_index], action.operation
        )
        for choice, (obj_state, response) in enumerate(outcomes):
            local = automaton.transition(config.process_states[pid], response)
            states = (
                config.process_states[:pid]
                + (local,)
                + config.process_states[pid + 1 :]
            )
            objects = (
                config.object_states[:obj_index]
                + (obj_state,)
                + config.object_states[obj_index + 1 :]
            )
            successor = _absorb_all(
                explorer, Configuration(states, config.statuses, objects)
            )
            result.append((Edge(pid, choice, response), successor))
    return result


def _absorb_all(explorer, config):
    from repro.analysis.explorer import ABORTED, HALTED

    statuses = list(config.statuses)
    changed = False
    for pid, automaton in enumerate(explorer.processes):
        if statuses[pid] is not RUNNING:
            continue
        action = automaton.next_action(config.process_states[pid])
        if isinstance(action, Decide):
            statuses[pid] = ("decided", action.value)
            changed = True
        elif isinstance(action, Abort):
            statuses[pid] = ABORTED
            changed = True
        elif isinstance(action, Halt):
            statuses[pid] = HALTED
            changed = True
    if not changed:
        return config
    return Configuration(
        config.process_states, tuple(statuses), config.object_states
    )


def _reference_bfs(explorer, initial):
    order = [initial]
    seen = {initial}
    successors = {}
    frontier = deque([initial])
    while frontier:
        config = frontier.popleft()
        entries = _reference_successors(explorer, config)
        successors[config] = entries
        for _edge, successor in entries:
            if successor not in seen:
                seen.add(successor)
                order.append(successor)
                frontier.append(successor)
    return order, successors


def _instances():
    return [
        (
            "algorithm2_n3",
            Explorer({"PAC": NPacSpec(3)}, algorithm2_processes((1, 0, 0))),
        ),
        (
            "one_shot_consensus",
            Explorer(
                {"CONS": MConsensusSpec(2)},
                one_shot_consensus_processes([0, 1]),
            ),
        ),
        (
            "obstruction_free",
            Explorer(
                adopt_commit_round_objects(2, 2),
                obstruction_free_processes((0, 1), max_rounds=2),
            ),
        ),
    ]


class TestMemoizedMatchesReference:
    @pytest.mark.parametrize(
        "name", ["algorithm2_n3", "one_shot_consensus", "obstruction_free"]
    )
    def test_order_and_successor_relation_agree(self, name):
        explorer = dict(_instances())[name]
        initial = explorer.initial_configuration()
        ref_order, ref_successors = _reference_bfs(explorer, initial)
        graph = explorer.explore(max_configurations=400_000)
        assert graph.order == ref_order
        for config in ref_order:
            assert explorer.successors(config) == ref_successors[config]


class TestBaselineDigest:
    def digest(self):
        blob = hashlib.sha256()
        tasks = {
            "algorithm2_n3": (DacDecisionTask(3), (1, 0, 0)),
            "one_shot_consensus": (ConsensusTask(2), (0, 1)),
            "obstruction_free": (ConsensusTask(2), (0, 1)),
        }
        for name, explorer in _instances():
            graph = explorer.explore(max_configurations=400_000)
            blob.update(name.encode())
            for config in graph.order:
                blob.update(
                    repr(
                        (
                            config.process_states,
                            config.statuses,
                            config.object_states,
                        )
                    ).encode()
                )
                blob.update(repr(graph.schedule_to(config)).encode())
                blob.update(
                    repr(sorted(explorer.decision_values(config))).encode()
                )
            task, inputs = tasks[name]
            blob.update(repr(explorer.check_safety(task, inputs)).encode())
        return blob.hexdigest()

    def test_matches_pre_fast_core_baseline(self):
        assert self.digest() == SEED_DIGEST

    def test_bit_stable_across_hash_seeds(self):
        # The digest covers BFS order and witness schedules, so this is
        # the R001 replayability contract end to end: identical bytes
        # under different PYTHONHASHSEED values.
        here = os.path.abspath(__file__)
        program = (
            "import runpy, sys; "
            f"module = runpy.run_path({here!r}); "
            "print(module['TestBaselineDigest']().digest())"
        )
        for seed in ("0", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (env.get("PYTHONPATH"), *sys.path) if p
            )
            output = subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            ).stdout.strip()
            assert output == SEED_DIGEST, f"digest drifted at seed {seed}"


class TestSymmetryVerdictEquivalence:
    def test_safety_verdicts_agree_across_all_assignments(self):
        n = 3
        task = DacDecisionTask(n)
        for inputs in task.input_assignments():
            plain = Explorer(
                {"PAC": NPacSpec(n)}, algorithm2_processes(inputs)
            )
            reduced = Explorer(
                {"PAC": NPacSpec(n)}, algorithm2_processes(inputs)
            )
            symmetry = algorithm2_symmetry(inputs)
            plain_verdict = plain.check_safety(task, inputs)
            reduced_verdict = reduced.check_safety(
                task, inputs, symmetry=symmetry
            )
            assert (plain_verdict is None) == (reduced_verdict is None)

    def test_decision_sets_agree_across_all_assignments(self):
        n = 3
        task = DacDecisionTask(n)
        for inputs in task.input_assignments():
            plain = Explorer(
                {"PAC": NPacSpec(n)}, algorithm2_processes(inputs)
            )
            symmetry = algorithm2_symmetry(inputs)
            full = plain.explore()
            plain_set = plain.decision_table(exploration=full)[
                full.order_ids[0]
            ]
            reduced_explorer = Explorer(
                {"PAC": NPacSpec(n)}, algorithm2_processes(inputs)
            )
            reduced = reduced_explorer.explore(symmetry=symmetry)
            reduced_set = reduced_explorer.decision_table(
                exploration=reduced
            )[reduced.order_ids[0]]
            assert plain_set == reduced_set


class TestSoloTerminationDeepChain:
    def test_long_solo_chain_does_not_hit_recursion_limit(self):
        # Regression: solo_termination used to recurse once per solo
        # step; a chain longer than the interpreter recursion limit
        # (default 1000) blew the stack. The iterative version walks
        # arbitrarily deep chains.
        depth = 2 * sys.getrecursionlimit()

        def next_action(k):
            return Invoke("R", op("read")) if k < depth else Decide(0)

        auto = FunctionalAutomaton(0, 0, next_action, lambda k, _r: k + 1)
        explorer = Explorer({"R": RegisterSpec()}, [auto])
        assert explorer.solo_termination(0, max_configurations=depth + 10)


class TestTargetedStep:
    def test_step_expands_only_the_requested_pid(self):
        explorer = Explorer(
            {"PAC": NPacSpec(3)}, algorithm2_processes((1, 0, 0))
        )
        config = explorer.initial_configuration()
        explorer.step(config, 0)
        cid = explorer._intern.id_of(config)
        # Only the (config, pid=0) slice was computed: no full-relation
        # entry, no other pid's slice.
        assert cid not in explorer._succ_cache
        assert explorer._backend.adjacency(cid) is None
        assert sorted(explorer._codes.invokes) == [(0, 0)]
