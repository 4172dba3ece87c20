"""Integration: Theorem 4.1 — Algorithm 2 solves n-DAC from one n-PAC.

Exhaustive bounded model checking for n in {2, 3} over every binary
input assignment and every schedule (including every adversarial
response interleaving — the PAC is deterministic, so the branching is
purely over schedules), plus randomized adversarial simulation for
larger n. This is experiment E3's test-suite face.
"""

import pytest

from repro.analysis.explorer import Explorer
from repro.analysis.properties import audit_dac_run, audit_wait_freedom
from repro.core.pac import NPacSpec
from repro.protocols.dac_from_pac import algorithm2_processes
from repro.protocols.tasks import DacDecisionTask
from repro.runtime.scheduler import (
    AlternatingScheduler,
    BlockingScheduler,
    RoundRobinScheduler,
    SeededScheduler,
    SoloScheduler,
)
from repro.runtime.system import System


def adversary_suite(
    num_processes, random_count=10, base_seed=0, include_solos=True
):
    """The standard named adversary family for ``num_processes``.

    Includes fair round-robin, seeded randoms, all pairwise
    alternations, per-process solo runs (optional; only valid for
    protocols whose solo runs terminate), and single-victim blocking
    (crash) schedulers.
    """
    suite = [("round-robin", RoundRobinScheduler())]
    for seed in range(base_seed, base_seed + random_count):
        suite.append((f"random[{seed}]", SeededScheduler(seed=seed)))
    for first in range(num_processes):
        for second in range(first + 1, num_processes):
            suite.append(
                (f"alternate[{first},{second}]", AlternatingScheduler(first, second))
            )
    if include_solos:
        for pid in range(num_processes):
            suite.append((f"solo[{pid}]", SoloScheduler(pid)))
    for victim in range(num_processes):
        suite.append((f"crash[{victim}]", BlockingScheduler([victim])))
    return suite


def build_system(inputs, distinguished=0):
    return System(
        {"PAC": NPacSpec(len(inputs))},
        algorithm2_processes(inputs, distinguished=distinguished),
    )


class TestExhaustive:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("distinguished", [0, 1])
    def test_all_schedules_all_inputs(self, n, distinguished):
        task = DacDecisionTask(n, distinguished=distinguished)
        for inputs in task.input_assignments():
            explorer = Explorer(
                {"PAC": NPacSpec(n)},
                algorithm2_processes(inputs, distinguished=distinguished),
            )
            assert explorer.check_safety(task, inputs) is None, inputs
            for pid in range(n):
                assert explorer.solo_termination(pid), (inputs, pid)


class TestAdversarySuite:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_full_adversary_family(self, n):
        task = DacDecisionTask(n)
        inputs = DacDecisionTask.paper_initial_inputs(n)
        for name, scheduler in adversary_suite(n, random_count=5,
                                               include_solos=False):
            system = build_system(inputs)
            history = system.run(scheduler, max_steps=3000)
            audit = audit_dac_run(task, inputs, history)
            assert audit.ok, (name, audit.safety.violations)

    def test_distinguished_is_wait_free(self):
        """Termination (a) quantitatively: p terminates within 2 of its
        own steps under every adversary we throw at it."""
        inputs = (1, 0, 0, 0)
        for seed in range(30):
            system = build_system(inputs)
            history = system.run(SeededScheduler(seed), max_steps=3000)
            audit = audit_wait_freedom(history, step_bound=2, exempt=[1, 2, 3])
            assert audit.ok, seed

    @pytest.mark.parametrize("n", [6, 8])
    def test_larger_systems_randomized(self, n):
        task = DacDecisionTask(n)
        inputs = tuple(pid % 2 for pid in range(n))
        for seed in range(10):
            system = build_system(inputs)
            history = system.run(SeededScheduler(seed), max_steps=8000)
            audit = audit_dac_run(task, inputs, history)
            assert audit.ok, (seed, audit.safety.violations)


class TestAdversaryFamily:
    def test_contains_each_family(self):
        suite = dict(adversary_suite(3, random_count=2))
        assert isinstance(suite["round-robin"], RoundRobinScheduler)
        assert any(isinstance(s, SeededScheduler) for s in suite.values())
        assert isinstance(suite["alternate[0,1]"], AlternatingScheduler)
        assert isinstance(suite["solo[2]"], SoloScheduler)
        assert isinstance(suite["crash[1]"], BlockingScheduler)

    def test_solos_optional(self):
        suite = dict(adversary_suite(2, include_solos=False))
        assert not any(name.startswith("solo") for name in suite)

    def test_pairwise_alternations_complete(self):
        suite = dict(adversary_suite(4, random_count=0, include_solos=False))
        alternations = [n for n in suite if n.startswith("alternate")]
        assert len(alternations) == 6  # C(4, 2)

    def test_names_unique(self):
        names = [name for name, _s in adversary_suite(3)]
        assert len(names) == len(set(names))


class TestSingleObjectSufficiency:
    def test_exactly_one_pac_is_used(self):
        """Theorem 4.1 says a *single* n-PAC object suffices — the
        system table contains exactly one object and no registers."""
        system = build_system((1, 0, 0))
        assert list(system.objects) == ["PAC"]
