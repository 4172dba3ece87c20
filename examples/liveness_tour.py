#!/usr/bin/env python3
"""A tour of the liveness classes the paper's model distinguishes.

Three termination guarantees appear in the paper and its surroundings:

* **wait-free** — every process that keeps stepping decides
  (consensus, k-set agreement; Herlihy's hierarchy measures this);
* **solo / obstruction-free** — a process that eventually runs *alone*
  decides (the n-DAC Termination (b) clause);
* **distinguished-bounded** — the n-DAC Termination (a) clause: the
  distinguished process decides or aborts within a bounded number of
  its own steps.

This example exhibits each class on a concrete protocol and shows the
explorer's tooling telling them apart.

Run:  python examples/liveness_tour.py
"""

from repro.analysis import Explorer
from repro.core.pac import NPacSpec
from repro.objects import MConsensusSpec
from repro.protocols import (
    DacDecisionTask,
    algorithm2_processes,
    adopt_commit_round_objects,
    obstruction_free_processes,
)
from repro.protocols.consensus import one_shot_consensus_processes
from repro.protocols.tasks import ConsensusTask


def banner(title):
    print()
    print("=" * 70)
    print(title)
    print("=" * 70)


def wait_free_example():
    banner("1. Wait-free: one-shot consensus on an m-consensus object")
    inputs = (0, 1)
    explorer = Explorer(
        {"CONS": MConsensusSpec(2)}, one_shot_consensus_processes(list(inputs))
    )
    graph = explorer.explore()
    assert explorer.check_safety(
        ConsensusTask(2), inputs, exploration=graph
    ) is None
    livelock = explorer.find_livelock(exploration=graph)
    print(f"safety over all schedules: ✓")
    print(f"adversarial starvation loop: "
          f"{'none — wait-free ✓' if livelock is None else 'FOUND'}")


def obstruction_free_example():
    banner("2. Obstruction-free: round-based consensus from registers")
    inputs = (0, 1)
    explorer = Explorer(
        adopt_commit_round_objects(2, 2),
        obstruction_free_processes(inputs, max_rounds=2),
    )
    graph = explorer.explore(max_configurations=400_000)
    assert explorer.check_safety(
        ConsensusTask(2), inputs, exploration=graph
    ) is None
    solo = all(explorer.solo_termination(pid) for pid in (0, 1))
    exhausted = sum(
        1
        for config in graph.configurations
        if any(status[0] == "halted" for status in config.statuses)
    )
    print("safety over all schedules: ✓")
    print(f"solo runs decide (obstruction-free): {'✓' if solo else '✗'}")
    print(f"adversary can exhaust every round: {exhausted} reachable "
          f"exhaustion configurations — NOT wait-free")
    print("(registers are at level 1, yet obstruction-free consensus is")
    print(" theirs — the liveness axis is orthogonal to the hierarchy)")


def dac_example():
    banner("3. The n-DAC mix: bounded-p + solo-others (Algorithm 2)")
    inputs = (1, 0, 0)
    explorer = Explorer({"PAC": NPacSpec(3)}, algorithm2_processes(inputs))
    graph = explorer.explore()
    assert explorer.check_safety(
        DacDecisionTask(3), inputs, exploration=graph
    ) is None
    livelock = explorer.find_livelock(exploration=graph)
    solo = all(explorer.solo_termination(pid) for pid in range(3))
    print("safety over all schedules: ✓")
    print(f"solo runs decide (Termination (b)): {'✓' if solo else '✗'}")
    if livelock is not None:
        starving = sorted(
            pid
            for pid in livelock.moving
            if livelock.entry.statuses[pid][0] == "running"
        )
        print(f"adversarial loop exists starving {starving} — allowed! "
              f"their guarantee is solo-run only")
        assert 0 not in starving
        print("the distinguished process is never in the loop: it decides")
        print("or aborts within 2 of its own steps (Termination (a))")


if __name__ == "__main__":
    wait_free_example()
    obstruction_free_example()
    dac_example()
    print("\nLiveness tour complete.")
