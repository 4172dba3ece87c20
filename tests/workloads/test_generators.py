"""Tests for client workload generators."""

import pytest

from repro.types import op
from repro.workloads.generators import snapshot_workloads
from tests.random_workloads import (
    bundle_workloads,
    counter_workloads,
    pac_workloads,
    queue_workloads,
    register_workloads,
)


class TestShapes:
    def test_queue_workloads_shape(self):
        workloads = queue_workloads(3, 5, seed=1)
        assert sorted(workloads) == [0, 1, 2]
        assert all(len(ops) == 5 for ops in workloads.values())
        for ops in workloads.values():
            for operation in ops:
                assert operation.name in ("enqueue", "dequeue")

    def test_register_workloads_shape(self):
        workloads = register_workloads(2, 4, seed=0)
        for ops in workloads.values():
            for operation in ops:
                assert operation.name in ("read", "write")

    def test_counter_workloads_deltas_positive(self):
        workloads = counter_workloads(2, 6, seed=2)
        for ops in workloads.values():
            for operation in ops:
                assert operation.name == "fetch_and_add"
                assert 1 <= operation.args[0] <= 5


class TestSingleWriterDiscipline:
    def test_snapshot_updates_own_segment_only(self):
        workloads = snapshot_workloads(4, 6, seed=3)
        for pid, ops in workloads.items():
            for operation in ops:
                if operation.name == "update":
                    assert operation.args[0] == pid


class TestBundleWorkloads:
    def test_levels_respected(self):
        workloads = bundle_workloads(3, levels=(1, 3), ops_per_process=5, seed=4)
        for ops in workloads.values():
            for operation in ops:
                assert operation.name == "propose"
                assert operation.args[1] in (1, 3)

    def test_values_unique_per_op(self):
        workloads = bundle_workloads(2, levels=(1,), ops_per_process=3, seed=5)
        values = [
            operation.args[0]
            for ops in workloads.values()
            for operation in ops
        ]
        assert len(values) == len(set(values))


class TestPacWorkloads:
    def test_pairs_alternate(self):
        workloads = pac_workloads(2, rounds=3, n_labels=2, seed=6)
        for pid, ops in workloads.items():
            names = [operation.name for operation in ops]
            assert names == ["propose", "decide"] * 3

    def test_label_assignment(self):
        workloads = pac_workloads(4, rounds=1, n_labels=2, seed=7)
        labels = {
            pid: ops[0].args[1] for pid, ops in workloads.items()
        }
        assert labels == {0: 1, 1: 2, 2: 1, 3: 2}

    def test_reproducible(self):
        assert pac_workloads(2, 2, 2, seed=8) == pac_workloads(2, 2, 2, seed=8)


#: (family name, generator called as f(num_processes, size, seed)).
_FAMILIES = [
    ("queue", lambda n, k, s: queue_workloads(n, k, seed=s)),
    ("register", lambda n, k, s: register_workloads(n, k, seed=s)),
    ("counter", lambda n, k, s: counter_workloads(n, k, seed=s)),
    ("snapshot", lambda n, k, s: snapshot_workloads(n, k, seed=s)),
    (
        "bundle",
        lambda n, k, s: bundle_workloads(
            n, levels=(1, 2), ops_per_process=k, seed=s
        ),
    ),
    ("pac", lambda n, k, s: pac_workloads(n, rounds=k, n_labels=2, seed=s)),
]

_FAMILY_IDS = [name for name, _generate in _FAMILIES]


class TestEdgeCases:
    @pytest.mark.parametrize(
        "generate", [g for _n, g in _FAMILIES], ids=_FAMILY_IDS
    )
    def test_zero_length_workloads(self, generate):
        workloads = generate(3, 0, 1)
        assert sorted(workloads) == [0, 1, 2]
        assert all(ops == [] for ops in workloads.values())

    @pytest.mark.parametrize(
        "generate", [g for _n, g in _FAMILIES], ids=_FAMILY_IDS
    )
    def test_single_process_family(self, generate):
        workloads = generate(1, 4, 1)
        assert sorted(workloads) == [0]
        assert len(workloads[0]) >= 4

    @pytest.mark.parametrize(
        "generate", [g for _n, g in _FAMILIES], ids=_FAMILY_IDS
    )
    def test_zero_processes(self, generate):
        assert generate(0, 5, 1) == {}


class TestSeedDisjointness:
    @staticmethod
    def _decision_pattern(workloads, heads):
        # The branch each coin flip took, encoded family-agnostically:
        # 1 for the "first" operation name, 0 otherwise.
        return [
            1 if operation.name == heads else 0
            for pid in sorted(workloads)
            for operation in workloads[pid]
        ]

    def test_register_and_snapshot_streams_differ(self):
        # Both families flip `rng.random() < 0.5` per op; without the
        # per-family salt they made bitwise-identical decisions for
        # every shared base seed.
        for seed in range(5):
            registers = self._decision_pattern(
                register_workloads(3, 16, seed=seed), "write"
            )
            snapshots = self._decision_pattern(
                snapshot_workloads(3, 16, seed=seed), "update"
            )
            assert registers != snapshots, f"correlated at seed {seed}"

    def test_queue_and_register_streams_differ(self):
        queues = self._decision_pattern(
            queue_workloads(3, 16, seed=0), "enqueue"
        )
        registers = self._decision_pattern(
            register_workloads(3, 16, seed=0), "write"
        )
        assert queues != registers

    def test_salt_does_not_break_per_family_reproducibility(self):
        for _name, generate in _FAMILIES:
            assert generate(2, 6, 9) == generate(2, 6, 9)

    def test_different_seeds_differ_within_a_family(self):
        assert register_workloads(3, 16, seed=0) != register_workloads(
            3, 16, seed=1
        )
