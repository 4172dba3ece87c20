"""Integration: implementations under *random* workloads.

Cross-product of {universal construction, Afek snapshot, Lemma 6.4
bundle, Obs 5.1 redirects} × random client workloads × random
adversarial schedules, every run linearizability-checked. This is the
wide statistical net behind the targeted hand-written scenarios.
"""

import pytest

from repro.analysis.linearizability import LinearizabilityChecker
from repro.core.pac import NPacSpec
from repro.objects.classic import FetchAndAddSpec, QueueSpec
from repro.protocols.embodiment import on_prime_from_consensus_and_sa
from repro.protocols.implementation import check_implementation
from repro.protocols.snapshot import AfekSnapshotImplementation
from repro.protocols.universal import UniversalConstruction
from repro.runtime.scheduler import SeededScheduler
from repro.workloads.generators import snapshot_workloads
from tests.random_workloads import (
    bundle_workloads,
    counter_workloads,
    pac_workloads,
    queue_workloads,
)


class TestUniversalRandomWorkloads:
    @pytest.mark.parametrize("seed", range(6))
    def test_queue_random_traffic(self, seed):
        workloads = queue_workloads(3, 3, seed=seed)
        impl = UniversalConstruction(QueueSpec(), n=3, max_operations=12)
        verdict, _result = check_implementation(
            impl, workloads, scheduler=SeededScheduler(seed + 50)
        )
        assert verdict.ok, seed

    @pytest.mark.parametrize("seed", range(4))
    def test_counter_random_traffic(self, seed):
        workloads = counter_workloads(2, 4, seed=seed)
        impl = UniversalConstruction(FetchAndAddSpec(), n=2, max_operations=12)
        verdict, _result = check_implementation(
            impl, workloads, scheduler=SeededScheduler(seed + 70)
        )
        assert verdict.ok, seed

    @pytest.mark.parametrize("seed", range(4))
    def test_pac_random_pairs(self, seed):
        workloads = pac_workloads(2, rounds=2, n_labels=2, seed=seed)
        impl = UniversalConstruction(NPacSpec(2), n=2, max_operations=12)
        verdict, _result = check_implementation(
            impl, workloads, scheduler=SeededScheduler(seed + 90)
        )
        assert verdict.ok, seed


class TestSnapshotRandomWorkloads:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_update_scan_mix(self, seed):
        workloads = snapshot_workloads(3, 3, seed=seed)
        impl = AfekSnapshotImplementation(3)
        verdict, _result = check_implementation(
            impl, workloads, scheduler=SeededScheduler(seed + 11)
        )
        assert verdict.ok, seed


class TestBundleRandomWorkloads:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_level_traffic(self, seed):
        workloads = bundle_workloads(3, levels=(1, 2, 3), ops_per_process=2,
                                     seed=seed)
        impl = on_prime_from_consensus_and_sa(3, levels=3)
        verdict, _result = check_implementation(
            impl, workloads, scheduler=SeededScheduler(seed + 31)
        )
        assert verdict.ok, seed
