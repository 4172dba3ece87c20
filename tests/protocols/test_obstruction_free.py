"""Tests for obstruction-free consensus from registers (round-based adopt-commit)."""

import pytest

from repro.analysis.explorer import Explorer
from repro.analysis.valency import classify, BIVALENT
from repro.errors import SpecificationError
from repro.protocols.obstruction_free import (
    adopt_commit_round_objects,
    obstruction_free_processes,
)
from repro.protocols.tasks import ConsensusTask
from repro.runtime.scheduler import SoloScheduler
from repro.runtime.system import ProcessStatus, System


def build_explorer(inputs, max_rounds=2):
    return Explorer(
        adopt_commit_round_objects(len(inputs), max_rounds),
        obstruction_free_processes(inputs, max_rounds=max_rounds),
    )


class TestObstructionFreeSafety:
    @pytest.mark.parametrize("inputs", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_agreement_and_validity_all_schedules(self, inputs):
        explorer = build_explorer(inputs)
        assert explorer.check_safety(ConsensusTask(2), inputs) is None

    def test_three_processes_one_round_cap(self):
        inputs = (0, 1, 1)
        explorer = build_explorer(inputs, max_rounds=1)
        assert (
            explorer.check_safety(
                ConsensusTask(3), inputs, max_configurations=400_000
            )
            is None
        )

    def test_at_most_one_true_value_per_round(self):
        """The classical lemma: two (True, v) / (True, w) entries with
        v != w cannot coexist in one round — checked at every reachable
        configuration by inspecting the B registers."""
        inputs = (0, 1)
        explorer = build_explorer(inputs)
        graph = explorer.explore(max_configurations=400_000)
        b_indices = [
            i
            for i, name in enumerate(explorer.object_names)
            if "B" in name
        ]
        round_of = {
            i: explorer.object_names[i].split("B")[0]
            for i in b_indices
        }
        from repro.types import NIL

        for config in graph.configurations:
            per_round = {}
            for i in b_indices:
                cell = config.object_states[i]
                if cell is NIL:
                    continue
                flag, value = cell
                if flag:
                    per_round.setdefault(round_of[i], set()).add(value)
            for round_name, trues in per_round.items():
                assert len(trues) <= 1, (round_name, trues)


class TestObstructionFreeLiveness:
    def test_solo_runs_decide(self):
        """Obstruction-freedom: every solo run from the initial
        configuration decides within one round."""
        explorer = build_explorer((0, 1))
        for pid in (0, 1):
            assert explorer.solo_termination(pid)

    def test_solo_system_run_decides_own_value(self):
        inputs = (0, 1)
        system = System(
            adopt_commit_round_objects(2, 2),
            obstruction_free_processes(inputs, max_rounds=2),
        )
        system.run(
            SoloScheduler(1),
            stop_when=lambda s: s.status_of(1) != ProcessStatus.RUNNING,
        )
        assert system.history.decisions == {1: 1}

    def test_contention_can_exhaust_rounds(self):
        """Not wait-free: some schedule drives a process through every
        round without deciding (the bounded image of the classical
        obstruction-free non-termination)."""
        explorer = build_explorer((0, 1))
        graph = explorer.explore(max_configurations=400_000)
        exhausted = [
            config
            for config in graph.configurations
            if any(status[0] == "halted" for status in config.statuses)
        ]
        assert exhausted  # reachable: adversary kept them colliding

    def test_initial_configuration_bivalent(self):
        explorer = build_explorer((0, 1))
        valency = classify(
            explorer,
            explorer.initial_configuration(),
            max_configurations=400_000,
        )
        assert valency.label == BIVALENT


class TestFactoryValidation:
    def test_round_cap_required(self):
        with pytest.raises(SpecificationError):
            obstruction_free_processes((0, 1), max_rounds=0)

    def test_object_table_shape(self):
        objects = adopt_commit_round_objects(2, 3)
        assert len(objects) == 2 * 2 * 3
        assert "AC0A0" in objects and "AC2B1" in objects
