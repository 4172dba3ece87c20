"""Tests for k-set agreement protocols (the power lower bounds)."""

import pytest

from repro.analysis.explorer import Explorer
from repro.core.separation import make_on_prime
from repro.core.set_agreement import (
    NKSetAgreementSpec,
    StrongSetAgreementSpec,
    UNBOUNDED,
)
from repro.protocols.set_agreement import bundle_processes
from repro.protocols.tasks import KSetAgreementTask
from tests.set_agreement_protocols import (
    NkSaProcess,
    collection_partition,
    group_partition_objects,
    group_partition_processes,
    strong_sa_processes,
    trivial_processes,
)


def check_k_set_agreement(objects, processes, k, inputs):
    """Safety over all schedules + all response choices; no starvation."""
    task = KSetAgreementTask(len(inputs), k, domain=None)
    explorer = Explorer(objects, processes)
    assert explorer.check_safety(task, inputs) is None
    assert explorer.find_livelock() is None
    return explorer


class TestTrivialProtocol:
    def test_k_processes_for_k_set(self):
        """n <= k needs nothing: everyone decides its own input."""
        inputs = (10, 20, 30)
        explorer = check_k_set_agreement({}, trivial_processes(inputs), 3, inputs)
        config = explorer.initial_configuration()
        assert config.decisions() == {0: 10, 1: 20, 2: 30}

    def test_violates_smaller_k(self):
        inputs = (10, 20, 30)
        task = KSetAgreementTask(3, 2)
        explorer = Explorer({}, trivial_processes(inputs))
        config = explorer.initial_configuration()
        assert not task.check_safety(inputs, config.decisions()).ok


class TestGroupPartition:
    def test_objects_factory(self):
        objects = group_partition_objects(6, 2)
        assert sorted(objects) == ["CONS0", "CONS1", "CONS2"]
        assert objects["CONS0"].m == 2

    def test_2_set_agreement_among_4_with_2_consensus(self):
        """m·k = 2·2: four processes, two 2-consensus objects."""
        inputs = (0, 1, 2, 3)
        check_k_set_agreement(
            group_partition_objects(4, 2),
            group_partition_processes(inputs, 2),
            2,
            inputs,
        )

    def test_3_set_agreement_among_6_with_2_consensus(self):
        inputs = tuple(range(6))
        check_k_set_agreement(
            group_partition_objects(6, 2),
            group_partition_processes(inputs, 2),
            3,
            inputs,
        )

    def test_group_membership(self):
        processes = group_partition_processes((0, 1, 2, 3), 2)
        assert [p.group for p in processes] == [0, 0, 1, 1]
        assert [p.obj for p in processes] == ["CONS0", "CONS0", "CONS1", "CONS1"]

    def test_decisions_are_group_winners(self):
        inputs = ("a", "b", "c", "d")
        explorer = Explorer(
            group_partition_objects(4, 2),
            group_partition_processes(inputs, 2),
        )
        result = explorer.explore()
        for config in result.configurations:
            if not config.enabled():
                decisions = config.decisions()
                # Within a group all decisions agree.
                assert decisions[0] == decisions[1]
                assert decisions[2] == decisions[3]


class TestStrongSaProtocol:
    @pytest.mark.parametrize("count", [2, 3, 4])
    def test_2_set_agreement_any_count(self, count):
        inputs = tuple(range(count))
        check_k_set_agreement(
            {"SA": StrongSetAgreementSpec(2)},
            strong_sa_processes(inputs),
            2,
            inputs,
        )

    def test_c3_object_for_3_set(self):
        inputs = tuple(range(5))
        check_k_set_agreement(
            {"SA": StrongSetAgreementSpec(3)},
            strong_sa_processes(inputs),
            3,
            inputs,
        )

    def test_violates_consensus(self):
        """The 2-SA protocol does NOT solve 1-set agreement: the
        explorer finds the adversarial response split."""
        inputs = (0, 1)
        task = KSetAgreementTask(2, 1)
        explorer = Explorer(
            {"SA": StrongSetAgreementSpec(2)}, strong_sa_processes(inputs)
        )
        assert explorer.check_safety(task, inputs) is not None


class TestNkSaProtocol:
    def test_defining_use(self):
        inputs = (0, 1, 2)
        check_k_set_agreement(
            {"NKSA": NKSetAgreementSpec(3, 2)},
            [NkSaProcess(pid, v) for pid, v in enumerate(inputs)],
            2,
            inputs,
        )

    def test_unbounded_port_count(self):
        inputs = tuple(range(4))
        check_k_set_agreement(
            {"NKSA": NKSetAgreementSpec(UNBOUNDED, 2)},
            [NkSaProcess(pid, v) for pid, v in enumerate(inputs)],
            2,
            inputs,
        )


class TestBundleProtocol:
    """O'_n solving k-set agreement through its level-k face — the
    defining property of the embodiment object (experiment E10)."""

    def test_level_1_is_consensus_for_n_processes(self):
        inputs = (0, 1)
        check_k_set_agreement(
            {"OPRIME": make_on_prime(2, levels=2)},
            bundle_processes(inputs, level=1),
            1,
            inputs,
        )

    def test_level_2_is_2_set_agreement(self):
        inputs = (0, 1, 2)
        check_k_set_agreement(
            {"OPRIME": make_on_prime(2, levels=2)},
            bundle_processes(inputs, level=2),
            2,
            inputs,
        )

    def test_level_2_not_consensus(self):
        inputs = (0, 1)
        task = KSetAgreementTask(2, 1)
        explorer = Explorer(
            {"OPRIME": make_on_prime(2, levels=2)},
            bundle_processes(inputs, level=2),
        )
        assert explorer.check_safety(task, inputs) is not None

    def test_level_guard(self):
        from repro.errors import SpecificationError

        with pytest.raises(SpecificationError):
            bundle_processes((0, 1), level=0)


class TestCollectionPartition:
    """Mixed set-consensus collections ([7]-style): groups of consensus
    and strong-SA objects composed into one k-set agreement solution."""

    def test_consensus_plus_sa_collection(self):
        inputs = (0, 1, 2, 3, 4)
        objects, processes, k_total = collection_partition(
            inputs, [("consensus", 2), ("strong_sa", 2, 3)]
        )
        assert k_total == 3  # 1 (consensus group) + 2 (2-SA group)
        check_k_set_agreement(objects, processes, k_total, inputs)

    def test_two_consensus_groups(self):
        inputs = (0, 1, 2, 3)
        objects, processes, k_total = collection_partition(
            inputs, [("consensus", 2), ("consensus", 2)]
        )
        assert k_total == 2
        check_k_set_agreement(objects, processes, 2, inputs)

    def test_collection_is_tight(self):
        """The composed protocol does NOT solve (k_total - 1)-set
        agreement: the adversary realizes all k_total values."""
        from repro.analysis.explorer import Explorer

        inputs = (0, 1, 2, 3)
        objects, processes, k_total = collection_partition(
            inputs, [("consensus", 2), ("consensus", 2)]
        )
        task = KSetAgreementTask(4, k_total - 1, domain=None)
        explorer = Explorer(objects, processes)
        assert explorer.check_safety(task, inputs) is not None

    def test_plan_must_cover_inputs(self):
        from repro.errors import SpecificationError

        with pytest.raises(SpecificationError, match="covers"):
            collection_partition((0, 1, 2), [("consensus", 2)])

    def test_unknown_group_kind(self):
        from repro.errors import SpecificationError

        with pytest.raises(SpecificationError, match="unknown group"):
            collection_partition((0,), [("mystery", 1)])
