#!/usr/bin/env python3
"""A tour of the consensus hierarchy with the object catalog.

Builds the solvability table the paper's Section 1 background assumes:
for each catalog object, which consensus instances it solves
(model-checked constructive protocols) and where the natural protocol
breaks (explorer-found witnesses). Every cell is a
:class:`repro.core.hierarchy.HierarchyProbe` verdict: the library's
:func:`~repro.core.hierarchy.builtin_catalog`, plus probes built here
for the sticky bit and the paper's O_n. Also prints the set agreement
power of each object from :mod:`repro.core.power`.

Run:  python examples/hierarchy_tour.py
"""

from repro.core.combined import CombinedPacSpec
from repro.core.hierarchy import REFUTED, SOLVES, HierarchyProbe, builtin_catalog
from repro.core.power import (
    combined_pac_power,
    m_consensus_power,
    register_power,
    strong_sa_power,
)
from repro.core.separation import make_on
from repro.objects import StickyBitSpec
from repro.protocols.candidates import PacRetryConsensusProcess
from repro.protocols.consensus import (
    CombinedPacConsensusProcess,
    StickyBitConsensusProcess,
)

MAX_COUNT = 4
MARKS = {SOLVES: "✓", REFUTED: "✗"}


def row(name, cells, power_text):
    rendered = " ".join(f"{cell:^7s}" for cell in cells)
    print(f"{name:22s} {rendered}   {power_text}")


def probe_row(probe, power_text):
    cells = [MARKS.get(cell.grade, "?") for cell in probe.probe_range(MAX_COUNT)]
    row(probe.name, cells, power_text)


def sticky_bit_probe():
    def protocol(inputs):
        return (
            {"STICKY": StickyBitSpec()},
            [
                StickyBitConsensusProcess(pid, value)
                for pid, value in enumerate(inputs)
            ],
        )

    return HierarchyProbe("sticky bit (binary)", protocol, MAX_COUNT)


def on_probe(n):
    """O_n's consensus face up to n processes; beyond, the PAC-retry
    candidate over the probed count (Theorem 5.2's upset flooding)."""

    def protocol(inputs):
        return (
            {"ON": make_on(n)},
            [
                CombinedPacConsensusProcess(pid, value, obj="ON")
                for pid, value in enumerate(inputs)
            ],
        )

    def candidate(inputs):
        # Everyone proposes on label 1, so any process count fits.
        return (
            {"NMPAC": CombinedPacSpec(n + 1, n)},
            [
                PacRetryConsensusProcess(pid, value)
                for pid, value in enumerate(inputs)
            ],
        )

    return HierarchyProbe(
        f"O_{n} = ({n + 1},{n})-PAC", protocol, n, candidate_factory=candidate
    )


def main():
    counts = range(2, MAX_COUNT + 1)
    print("Consensus solvability (model-checked constructive protocols)")
    print(f"{'object':22s} " + " ".join(f"{f'n={c}':^7s}" for c in counts)
          + "   set agreement power (first 4)")
    print("-" * 100)

    catalog = builtin_catalog(MAX_COUNT)
    powers = {
        "2-consensus": m_consensus_power(2).describe(4),
        "3-consensus": m_consensus_power(3).describe(4),
        "test-and-set": "(2, ..?)",
        "compare-and-swap": "(∞, ∞, ...)",
        "strong 2-SA": strong_sa_power(2).describe(4),
    }
    for name, probe in catalog.items():
        probe_row(probe, powers[name])
    probe_row(sticky_bit_probe(), "binary-∞")
    row("registers", ["✗*"] * len(counts), register_power().describe(4))
    for n in (2, 3):
        probe_row(on_probe(n), combined_pac_power(n + 1, n).describe(4))

    print()
    print("legend: ✓ model-checked over all binary inputs and schedules; ✗")
    print("natural candidate refuted by an explorer-found witness; ? no")
    print("verdict; ✗* classical impossibility (FLP/Herlihy), taken as known;")
    print("powers from repro.core.power with certified lower bounds backing")
    print("every finite entry.")


if __name__ == "__main__":
    main()
