"""Integration: substrates composed in non-obvious ways.

Smoke-level but end-to-end: the abortable DAC object driven as a shared
object, and a snapshot built on top of the universal construction —
compositions a downstream user would reach for.
"""

import pytest

from repro.objects.snapshot import SnapshotSpec
from repro.protocols.implementation import check_implementation
from repro.protocols.universal import UniversalConstruction
from repro.runtime.events import Decide, Invoke
from repro.runtime.scheduler import RoundRobinScheduler, SeededScheduler
from repro.runtime.system import System
from repro.types import ABORT, op
from tests.oracles import AbortableDacSpec, FunctionalAutomaton


class TestAbortableDacAsSharedObject:
    def make_process(self, pid, value):
        port = pid + 1

        def action(state):
            if state[0] == "try":
                return Invoke("DAC", op("try_propose", value, port))
            return Decide(state[1])

        def update(state, response):
            return ("done", response)

        return FunctionalAutomaton(pid, ("try",), action, update)

    def test_two_ports_agree(self):
        system = System(
            {"DAC": AbortableDacSpec(2)},
            [self.make_process(0, "a"), self.make_process(1, "b")],
        )
        history = system.run(RoundRobinScheduler())
        values = set(history.decisions.values())
        # Atomic try_propose never aborts (no interleaving inside the
        # composite op) and both ports learn the first value.
        assert values == {"a"}
        assert ABORT not in values


class TestSnapshotViaUniversalConstruction:
    def test_snapshot_spec_from_consensus(self):
        """Even the snapshot *spec* can be fed to Herlihy's construction
        — objects about objects, as the theorem promises."""
        uni = UniversalConstruction(SnapshotSpec(2), n=2, max_operations=10)
        workloads = {
            0: [op("update", 0, "x"), op("scan")],
            1: [op("update", 1, "y"), op("scan")],
        }
        for seed in range(5):
            uni = UniversalConstruction(
                SnapshotSpec(2), n=2, max_operations=10
            )
            verdict, _result = check_implementation(
                uni, workloads, scheduler=SeededScheduler(seed)
            )
            assert verdict.ok, seed
