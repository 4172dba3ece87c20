#!/usr/bin/env python3
"""A tour of the consensus hierarchy with the object catalog.

Builds the solvability table the paper's Section 1 background assumes:
for each catalog object, which consensus instances it solves
(model-checked constructive protocols) and where the natural protocol
breaks (explorer-found witnesses). Also prints the set agreement power
of each object from :mod:`repro.core.power`.

Run:  python examples/hierarchy_tour.py
"""

from repro.analysis import Explorer
from repro.core.power import (
    combined_pac_power,
    m_consensus_power,
    register_power,
    strong_sa_power,
)
from repro.objects import (
    CompareAndSwapSpec,
    MConsensusSpec,
    RegisterSpec,
    StickyBitSpec,
    TestAndSetSpec,
)
from repro.protocols import ConsensusTask
from repro.protocols.candidates import (
    consensus_via_exhausted_consensus,
    consensus_via_strong_sa,
)
from repro.protocols.consensus import (
    CasConsensusProcess,
    StickyBitConsensusProcess,
    TestAndSetConsensusProcess,
    one_shot_consensus_processes,
)


def solves_consensus(objects, processes, count):
    inputs = tuple(pid % 2 for pid in range(count))
    explorer = Explorer(objects, processes(inputs))
    return explorer.find_violation(ConsensusTask(count), inputs)[0] == "none"


def row(name, cells, power_text):
    rendered = " ".join(f"{cell:^7s}" for cell in cells)
    print(f"{name:22s} {rendered}   {power_text}")


def main():
    counts = (2, 3, 4)
    print("Consensus solvability (model-checked constructive protocols)")
    print(f"{'object':22s} " + " ".join(f"{f'n={c}':^7s}" for c in counts)
          + "   set agreement power (first 4)")
    print("-" * 100)

    # m-consensus at each level.
    for m in (2, 3):
        cells = []
        for count in counts:
            if count <= m:
                ok = solves_consensus(
                    {"CONS": MConsensusSpec(m)},
                    lambda inputs: one_shot_consensus_processes(list(inputs)),
                    count,
                )
                cells.append("✓" if ok else "✗!")
            else:
                candidate = consensus_via_exhausted_consensus(m)
                explorer = Explorer(candidate.objects, candidate.processes)
                broken = explorer.check_safety(candidate.task, candidate.inputs)
                cells.append("✗" if broken is not None else "?")
        row(f"{m}-consensus", cells,
            m_consensus_power(m).describe(4))

    # test-and-set: level 2.
    cells = []
    for count in counts:
        if count == 2:
            ok = solves_consensus(
                {
                    "TAS": TestAndSetSpec(),
                    "R0": RegisterSpec(),
                    "R1": RegisterSpec(),
                },
                lambda inputs: [
                    TestAndSetConsensusProcess(pid, v)
                    for pid, v in enumerate(inputs)
                ],
                count,
            )
            cells.append("✓" if ok else "✗!")
        else:
            cells.append("✗*")  # Herlihy's impossibility (not mechanized)
    row("test-and-set", cells, "(2, ..?)")

    # CAS: level ∞.
    cells = []
    for count in counts:
        ok = solves_consensus(
            {"CAS": CompareAndSwapSpec()},
            lambda inputs: [
                CasConsensusProcess(pid, v) for pid, v in enumerate(inputs)
            ],
            count,
        )
        cells.append("✓" if ok else "✗!")
    row("compare-and-swap", cells, "(∞, ∞, ...)")

    # sticky bit (binary): all levels for binary inputs.
    cells = []
    for count in counts:
        ok = solves_consensus(
            {"STICKY": StickyBitSpec()},
            lambda inputs: [
                StickyBitConsensusProcess(pid, v)
                for pid, v in enumerate(inputs)
            ],
            count,
        )
        cells.append("✓" if ok else "✗!")
    row("sticky bit (binary)", cells, "binary-∞")

    # 2-SA: consensus number 1 — the candidate fails already at 2.
    cells = []
    for count in counts:
        candidate = consensus_via_strong_sa(count)
        explorer = Explorer(candidate.objects, candidate.processes)
        broken = explorer.check_safety(candidate.task, candidate.inputs)
        cells.append("✗" if broken is not None else "?")
    row("strong 2-SA", cells, strong_sa_power(2).describe(4))

    # registers alone.
    row("registers", ["✗*"] * len(counts), register_power().describe(4))

    # The paper's objects.
    for n in (2, 3):
        power = combined_pac_power(n + 1, n)
        cells = []
        for count in counts:
            if count <= n:
                cells.append("✓")
            elif count == n + 1:
                cells.append("✗")
            else:
                cells.append("✗")
        row(f"O_{n} = ({n + 1},{n})-PAC", cells, power.describe(4))

    print()
    print("legend: ✓ model-checked over all schedules; ✗ natural candidate")
    print("refuted by an explorer-found witness; ✗* classical impossibility")
    print("(FLP/Herlihy), taken as known; powers from repro.core.power with")
    print("certified lower bounds backing every finite entry.")


if __name__ == "__main__":
    main()
