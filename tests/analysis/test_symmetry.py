"""Tests for symmetry reduction (groups, permuters, quotient graphs).

The representative rule — the permuted variant with the least ``repr``
over ``symmetry.permutations`` — lives here as an object-level oracle
(:func:`least_repr_canonical`); the explorer's row canonicalizer and
its reduced walk are checked against it on every available backend.
"""

import hashlib
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.explorer import Configuration, ExplorationResult, Explorer
from repro.analysis.kernel import compiled_available
from repro.analysis.replay import verify_replay
from repro.analysis.symmetry import ProcessSymmetry, groups_by_input
from repro.core.pac import NIL, NPacSpec, PacState, permute_pac_state
from repro.errors import AnalysisError
from repro.protocols.consensus import one_shot_consensus_processes
from repro.protocols.dac_from_pac import (
    algorithm2_processes,
    algorithm2_symmetry,
)
from repro.protocols.tasks import DacDecisionTask, DecisionTask, SafetyVerdict

AVAILABLE_KERNELS = ("python", "compiled") if compiled_available() else (
    "python",
)


def algorithm2_explorer(inputs, kernel=None):
    return Explorer(
        {"PAC": NPacSpec(len(inputs))},
        algorithm2_processes(inputs),
        kernel=kernel,
    )


# -- the object-level oracle -------------------------------------------------


def permute_configuration(sym, config, perm, object_names):
    """``config`` with every process ``i`` renamed ``perm[i]`` and each
    object state relabelled through its permuter (if any)."""
    states = [None] * sym.n
    statuses = [None] * sym.n
    for source, image in enumerate(perm):
        states[image] = config.process_states[source]
        statuses[image] = config.statuses[source]
    objects = []
    for name, state in zip(object_names, config.object_states):
        permuter = sym.object_permuters.get(name)
        objects.append(state if permuter is None else permuter(state, perm))
    return Configuration(tuple(states), tuple(statuses), tuple(objects))


def least_repr_canonical(sym, config, object_names):
    """(representative, perm): the permuted variant with the least
    ``repr`` of its field triple, the first such permutation on a tie."""
    best = best_key = best_perm = None
    for perm in sym.permutations:
        candidate = permute_configuration(sym, config, perm, object_names)
        key = repr(
            (
                candidate.process_states,
                candidate.statuses,
                candidate.object_states,
            )
        )
        if best is None or key < best_key:
            best, best_key, best_perm = candidate, key, perm
    return best, best_perm


class DecidedAlone(DecisionTask):
    """Violated once exactly one process has decided (``pid``, if
    given, must be that process)."""

    def __init__(self, num_processes, pid=None):
        super().__init__(num_processes)
        self.pid = pid

    def input_assignments(self):
        return ()

    def check_safety(self, inputs, decisions, aborted=()):
        if len(decisions) == 1 and (self.pid is None or self.pid in decisions):
            return SafetyVerdict.failed("one process decided alone")
        return SafetyVerdict.passed()


def reference_reduced_walk(explorer, sym, max_configurations):
    """The reduced BFS at object level: every successor configuration
    is materialized, canonicalized by the oracle, then interned."""
    names = explorer.object_names
    start = explorer.initial_configuration()
    explorer.intern_id(start)
    rep, initial_perm = least_repr_canonical(sym, start, names)
    start_id = explorer.intern_id(rep)
    order_ids = [start_id]
    parent_ids, parent_perms, successor_ids = {}, {}, {}
    complete = True
    cursor = 0
    while cursor < len(order_ids) and complete:
        cid = order_ids[cursor]
        cursor += 1
        entries = []
        for edge, successor in explorer.successors(explorer._intern.value(cid)):
            crep, perm = least_repr_canonical(sym, successor, names)
            entries.append((edge, explorer.intern_id(crep), perm))
        successor_ids[cid] = tuple((edge, tid) for edge, tid, _ in entries)
        for edge, tid, perm in entries:
            if tid == start_id or tid in parent_ids:
                continue
            if len(order_ids) >= max_configurations:
                complete = False
                break
            order_ids.append(tid)
            parent_ids[tid] = (cid, edge)
            parent_perms[tid] = perm
    return ExplorationResult(
        initial=explorer._intern.value(start_id),
        complete=complete,
        intern=explorer._intern,
        order_ids=order_ids,
        successor_ids=successor_ids,
        parent_ids=parent_ids,
        reduced=True,
        source_initial=start,
        initial_permutation=initial_perm,
        parent_perms=parent_perms,
        expansions=cursor,
    )


def render_reduced(result):
    """Every field a reduced walk pins, as one deterministic string:
    order, parents, perms, successors, intern size, and the witness
    schedule (plus mapping permutation) of every reached node."""

    def edge(e):
        return (e.pid, e.choice, e.response)

    witnesses = [
        (
            [edge(e) for e in result.schedule_to(config)],
            result.permutation_to(config),
        )
        for config in result.order
    ]
    return repr(
        (
            result.order_ids,
            sorted(
                (tid, cid, edge(e))
                for tid, (cid, e) in result.parent_ids.items()
            ),
            sorted(result.parent_perms.items()),
            sorted(
                (cid, [(edge(e), tid) for e, tid in entries])
                for cid, entries in result.successor_ids.items()
            ),
            len(result.intern),
            result.initial_permutation,
            result.complete,
            witnesses,
        )
    )


class TestGroupsByInput:
    def test_groups_equal_inputs(self):
        assert groups_by_input((1, 0, 0, 0)) == ((1, 2, 3),)

    def test_exclude_removes_distinguished_pid(self):
        assert groups_by_input((0, 0, 0), exclude=(0,)) == ((1, 2),)

    def test_singletons_are_dropped(self):
        assert groups_by_input((1, 2, 3)) == ()

    def test_multiple_groups(self):
        assert groups_by_input((0, 0, 1, 1)) == ((0, 1), (2, 3))


class TestProcessSymmetry:
    def test_rejects_out_of_range_pid(self):
        with pytest.raises(AnalysisError, match="outside"):
            ProcessSymmetry(2, [(0, 2)])

    def test_rejects_overlapping_groups(self):
        with pytest.raises(AnalysisError, match="disjoint"):
            ProcessSymmetry(3, [(0, 1), (1, 2)])

    def test_enumerates_product_of_symmetric_groups(self):
        sym = ProcessSymmetry(5, [(0, 1), (2, 3, 4)])
        assert len(sym.permutations) == 2 * 6
        assert sym.permutations[0] == (0, 1, 2, 3, 4)  # identity first

    def test_canonical_is_orbit_invariant(self):
        inputs = (1, 0, 0)
        sym = algorithm2_symmetry(inputs)
        explorer = algorithm2_explorer(inputs)
        names = explorer.object_names
        canonicalize = explorer.row_canonicalizer(sym)
        config = explorer.initial_configuration()
        rep_id, perm = canonicalize(explorer.intern_id(config))
        rep = explorer._intern.value(rep_id)
        assert permute_configuration(sym, config, perm, names) == rep
        # Every orbit member canonicalizes to the same representative.
        for other_perm in sym.permutations:
            member = permute_configuration(sym, config, other_perm, names)
            other_id, _ = canonicalize(explorer.intern_id(member))
            assert explorer._intern.value(other_id) == rep


class TestPermutePacState:
    def test_proposals_move_with_the_permutation(self):
        state = PacState(
            upset=False, proposals=("a", "b", "c"), last_label=NIL, value=NIL
        )
        permuted = permute_pac_state(state, (0, 2, 1))
        assert permuted.proposals == ("a", "c", "b")

    def test_last_label_is_relabelled(self):
        state = PacState(
            upset=False, proposals=(NIL, "x", NIL), last_label=2, value=NIL
        )
        permuted = permute_pac_state(state, (0, 2, 1))
        # Old pid 1 (label 2) becomes pid 2 (label 3).
        assert permuted.last_label == 3
        assert permuted.proposals == (NIL, NIL, "x")

    def test_nil_label_passes_through(self):
        state = NPacSpec(3).initial_state()
        assert permute_pac_state(state, (2, 0, 1)).last_label is NIL

    def test_identity_permutation_is_a_fixpoint(self):
        state = PacState(
            upset=True, proposals=("v", NIL), last_label=1, value="v"
        )
        assert permute_pac_state(state, (0, 1)) == state


class TestSymmetryFactories:
    def test_algorithm2_symmetry_groups_non_distinguished(self):
        sym = algorithm2_symmetry((1, 0, 0, 0))
        assert sym is not None
        assert sym.groups == ((1, 2, 3),)
        assert "PAC" in sym.object_permuters

    def test_algorithm2_symmetry_none_without_groups(self):
        assert algorithm2_symmetry((1, 0)) is None


class TestReducedExploration:
    """The E18 state-space instance, quotiented."""

    def test_reduction_shrinks_algorithm2_graph(self):
        inputs = DacDecisionTask.paper_initial_inputs(4)
        sym = algorithm2_symmetry(inputs)
        full = algorithm2_explorer(inputs).explore()
        reduced = algorithm2_explorer(inputs).explore(symmetry=sym)
        assert len(reduced) < len(full)

    def test_reduction_preserves_decision_sets(self):
        inputs = DacDecisionTask.paper_initial_inputs(4)
        sym = algorithm2_symmetry(inputs)
        full_explorer = algorithm2_explorer(inputs)
        full = full_explorer.explore()
        reduced_explorer = algorithm2_explorer(inputs)
        reduced = reduced_explorer.explore(symmetry=sym)
        full_table = full_explorer.decision_table(exploration=full)
        reduced_table = reduced_explorer.decision_table(exploration=reduced)
        assert (
            full_table[full.order_ids[0]]
            == reduced_table[reduced.order_ids[0]]
        )

    def test_reduced_safety_check_passes_algorithm2(self):
        inputs = (1, 0, 0)
        sym = algorithm2_symmetry(inputs)
        explorer = algorithm2_explorer(inputs)
        assert (
            explorer.check_safety(
                DacDecisionTask(3), inputs, symmetry=sym
            )
            is None
        )

    def test_symmetric_violation_is_reported_concretely(self):
        # "Some process decided alone" is invariant under the symmetry:
        # the first violating representative in BFS order comes back as
        # its concrete preimage, with a schedule that replays onto it.
        inputs = (1, 0, 0)
        explorer = algorithm2_explorer(inputs)
        task = DecidedAlone(3)
        counterexample = explorer.check_safety(
            task, inputs, symmetry=algorithm2_symmetry(inputs)
        )
        assert counterexample is not None
        assert not counterexample.verdict.ok
        concrete = explorer.initial_configuration()
        for edge in counterexample.schedule:
            concrete = explorer.step(concrete, edge.pid, edge.choice)
        assert concrete == counterexample.configuration
        assert len(concrete.decisions()) == 1

    @pytest.mark.parametrize("kernel", AVAILABLE_KERNELS)
    @pytest.mark.parametrize("pid", (None, 0, 1, 2))
    def test_reduced_verdict_equals_full_for_one_sided_predicates(
        self, kernel, pid
    ):
        # "pid 2 decided alone" holds only at configurations the walk
        # never keeps as representatives (the least repr renames pid 2
        # to pid 1), so auditing representatives alone misses it. Every
        # permutation of each representative's status row is audited,
        # and the violating one's witness replays concretely.
        inputs = (1, 0, 0)
        task = DecidedAlone(3, pid=pid)
        full = algorithm2_explorer(inputs, kernel).check_safety(task, inputs)
        explorer = algorithm2_explorer(inputs, kernel)
        reduced = explorer.check_safety(
            task, inputs, symmetry=algorithm2_symmetry(inputs)
        )
        assert (reduced is None) == (full is None)
        assert reduced is not None
        assert not task.check_safety(
            inputs,
            reduced.configuration.decisions(),
            reduced.configuration.aborted(),
        ).ok
        concrete = explorer.initial_configuration()
        for edge in reduced.schedule:
            concrete = explorer.step(concrete, edge.pid, edge.choice)
        assert concrete == reduced.configuration
        assert verify_replay(explorer, reduced.schedule).matches

    def test_asymmetric_predicate_is_reported_unsound(self):
        # "pid 1 decided alone" is not invariant under swapping pids 1
        # and 2. From a start where pid 2 moved first, the walk's
        # representatives rename pid 2 to pid 1: the first violating
        # representative's concrete preimage has pid 2 decided alone.
        inputs = (1, 0, 0)
        explorer = algorithm2_explorer(inputs)
        start = explorer.step(explorer.initial_configuration(), 2)
        with pytest.raises(AnalysisError, match="reduction is unsound"):
            explorer.check_safety(
                DecidedAlone(3, pid=1),
                inputs,
                initial=start,
                symmetry=algorithm2_symmetry(inputs),
            )

    def test_witnesses_map_back_to_the_concrete_system(self):
        # For every quotient node: replaying schedule_to concretely
        # from source_initial lands on a configuration in the node's
        # orbit, and permutation_to carries it onto the representative.
        inputs = (1, 0, 0)
        sym = algorithm2_symmetry(inputs)
        explorer = algorithm2_explorer(inputs)
        reduced = explorer.explore(symmetry=sym)
        names = explorer.object_names
        for rep in reduced.order:
            concrete = reduced.source_initial
            for edge in reduced.schedule_to(rep):
                concrete = explorer.step(concrete, edge.pid, edge.choice)
            canon, _ = least_repr_canonical(sym, concrete, names)
            assert canon == rep
            perm = reduced.permutation_to(rep)
            assert permute_configuration(sym, concrete, perm, names) == rep

    def test_reduced_livelock_analysis_runs_on_quotient_ids(self):
        # successor_ids of a reduced graph must stay inside the graph
        # (canonical targets), so graph-level passes work unchanged.
        inputs = (1, 0, 0)
        sym = algorithm2_symmetry(inputs)
        explorer = algorithm2_explorer(inputs)
        reduced = explorer.explore(symmetry=sym)
        in_graph = set(reduced.order_ids)
        for entries in reduced.successor_ids.values():
            for _edge, tid in entries:
                assert tid in in_graph


def _assignments(n, values):
    return [
        inputs
        for inputs in itertools.product(values, repeat=n)
        if algorithm2_symmetry(inputs) is not None
    ]


class TestRowCanonicalizerOracle:
    """The row canonicalizer picks the oracle's representative and
    permutation on every reachable configuration."""

    @pytest.mark.parametrize("kernel", AVAILABLE_KERNELS)
    @pytest.mark.parametrize(
        "n, values", [(3, range(3)), (4, range(3)), (5, range(2))]
    )
    def test_agrees_with_least_repr_on_every_reachable_configuration(
        self, kernel, n, values
    ):
        checked = 0
        for inputs in _assignments(n, values):
            sym = algorithm2_symmetry(inputs)
            explorer = algorithm2_explorer(inputs, kernel=kernel)
            names = explorer.object_names
            full = explorer.explore()
            assert full.complete
            canonicalize = explorer.row_canonicalizer(sym)
            for cid in full.order_ids:
                rep_id, perm = canonicalize(cid)
                rep, oracle_perm = least_repr_canonical(
                    sym, explorer._intern.value(cid), names
                )
                assert perm == oracle_perm
                assert explorer._intern.value(rep_id) == rep
                checked += 1
        assert checked > 0


#: sha256 over :func:`render_reduced` of the reduced walk at every
#: budget in :data:`DIGEST_BUDGETS`, computed from the object-level
#: canonicalizer the row canonicalizer replaced (commit a82d5fc).
REDUCED_DIGEST = (
    "c6d88362ca83b552bcd1948fb483311c497adef22d770ed21bca4cf8ade399cd"
)

#: (inputs, budgets): every truncation point of the n=4 quotient (81
#: configurations), and the first 60 plus complete at n=5.
DIGEST_BUDGETS = (
    ((0, 1, 1, 1), tuple(range(1, 83))),
    ((0, 1, 1, 1, 1), tuple(range(1, 61)) + (400_000,)),
)


class TestReducedWalkPinned:
    @pytest.mark.parametrize("kernel", AVAILABLE_KERNELS)
    def test_matches_the_object_level_digest(self, kernel):
        digest = hashlib.sha256()
        for inputs, budgets in DIGEST_BUDGETS:
            for budget in budgets:
                explorer = algorithm2_explorer(inputs, kernel=kernel)
                result = explorer.explore(
                    max_configurations=budget,
                    symmetry=algorithm2_symmetry(inputs),
                )
                digest.update(render_reduced(result).encode())
        assert digest.hexdigest() == REDUCED_DIGEST

    @given(
        kernel=st.sampled_from(AVAILABLE_KERNELS),
        inputs=st.sampled_from(
            _assignments(3, range(3))
            + _assignments(4, range(3))
            + [(0, 1, 1, 1, 1), (1, 0, 0, 1, 0)]
        ),
        budget=st.integers(min_value=1, max_value=120),
    )
    @example(kernel="python", inputs=(0, 1, 1, 1), budget=81)
    @example(kernel="python", inputs=(0, 1, 1, 1), budget=80)
    @example(kernel="python", inputs=(0, 1, 1, 1), budget=1)
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_the_object_level_walk(self, kernel, inputs, budget):
        sym = algorithm2_symmetry(inputs)
        explorer = algorithm2_explorer(inputs, kernel=kernel)
        result = explorer.explore(max_configurations=budget, symmetry=sym)
        reference = algorithm2_explorer(inputs, kernel=kernel)
        expected = reference_reduced_walk(reference, sym, budget)
        assert result.complete == expected.complete
        assert result.expansions == expected.expansions
        assert render_reduced(result) == render_reduced(expected)
