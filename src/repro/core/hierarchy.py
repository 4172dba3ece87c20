"""Consensus-number probing: evidence-graded hierarchy placement.

Herlihy's hierarchy assigns each object the largest ``n`` for which it
(plus registers) solves ``n``-process consensus. For a concrete object
this is semi-decidable in each direction:

* **membership at n** — exhibit a protocol and model-check it
  (decisive);
* **non-membership at n** — refute candidate protocols (evidence, not
  proof; the generalization is the relevant theorem).

:class:`HierarchyProbe` packages both directions for one object family:
give it a protocol factory (``inputs -> (objects, processes)``) with a
``max_processes`` reach, and optionally a candidate factory for counts
beyond it. :meth:`HierarchyProbe.probe` grades each count with
``"solves"`` / ``"refuted"`` / ``"unknown"``;
:meth:`HierarchyProbe.consensus_number_bounds` summarizes.

:func:`builtin_catalog` instantiates probes for the library's objects;
experiment E13's grid and ``examples/hierarchy_tour.py`` render it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import SpecificationError
from ..types import Value, require

#: Grades a probe can assign to one process count.
SOLVES = "solves"
REFUTED = "refuted"
UNKNOWN = "unknown"

#: ``inputs -> (object table, process list)``.
SystemFactory = Callable[[Tuple[Value, ...]], Tuple[dict, list]]


@dataclass(frozen=True)
class ProbeCell:
    """One graded cell: object × process count."""

    count: int
    grade: str
    detail: str


class HierarchyProbe:
    """Evidence-graded consensus-number probe for one object family."""

    def __init__(
        self,
        name: str,
        protocol_factory: Optional[SystemFactory],
        protocol_reach: int,
        candidate_factory: Optional[SystemFactory] = None,
    ) -> None:
        require(
            protocol_factory is not None or candidate_factory is not None,
            SpecificationError,
            "a probe needs a protocol or a candidate factory",
        )
        self.name = name
        self.protocol_factory = protocol_factory
        self.protocol_reach = protocol_reach
        self.candidate_factory = candidate_factory

    def probe(self, count: int) -> ProbeCell:
        """Grade consensus among ``count`` processes."""
        from ..analysis.explorer import Explorer
        from ..protocols.tasks import ConsensusTask

        require(count >= 1, SpecificationError, "count must be positive")
        task = ConsensusTask(max(count, 2))
        if self.protocol_factory is not None and count <= self.protocol_reach:
            violations = 0
            for inputs in _binary_assignments(count):
                objects, processes = self.protocol_factory(inputs)
                outcome, _witness = Explorer(objects, processes).find_violation(
                    task, inputs
                )
                if outcome != "none":
                    violations += 1
            if violations == 0:
                return ProbeCell(
                    count,
                    SOLVES,
                    "model-checked: all binary inputs × all schedules",
                )
            return ProbeCell(
                count, UNKNOWN, f"protocol failed on {violations} assignments"
            )
        if self.candidate_factory is not None:
            inputs = tuple(pid % 2 for pid in range(count))
            objects, processes = self.candidate_factory(inputs)
            outcome, _witness = Explorer(objects, processes).find_violation(
                task, inputs
            )
            if outcome == "none":
                return ProbeCell(count, UNKNOWN, "candidate survived")
            return ProbeCell(
                count,
                REFUTED,
                f"natural candidate refuted ({outcome} witness)",
            )
        return ProbeCell(count, UNKNOWN, "no factory covers this count")

    def probe_range(self, max_count: int) -> List[ProbeCell]:
        return [self.probe(count) for count in range(2, max_count + 1)]


def _binary_assignments(count: int):
    import itertools

    return itertools.product((0, 1), repeat=count)


def builtin_catalog(max_count: int = 3) -> Dict[str, HierarchyProbe]:
    """Probes for the library's object catalog (E13's grid as API)."""
    from ..objects.classic import CompareAndSwapSpec, TestAndSetSpec
    from ..objects.consensus import MConsensusSpec
    from ..objects.register import RegisterSpec
    from ..protocols.candidates import (
        ConsensusViaExhaustedConsensus,
        consensus_via_strong_sa,
        consensus_via_test_and_set,
    )
    from ..protocols.consensus import (
        CasConsensusProcess,
        TestAndSetConsensusProcess,
        one_shot_consensus_processes,
    )

    def m_consensus_probe(m: int) -> HierarchyProbe:
        def protocol(inputs):
            return (
                {"CONS": MConsensusSpec(m)},
                one_shot_consensus_processes(list(inputs)),
            )

        def candidate(inputs):
            return (
                {"CONS": MConsensusSpec(m)},
                [
                    ConsensusViaExhaustedConsensus(pid, value)
                    for pid, value in enumerate(inputs)
                ],
            )

        return HierarchyProbe(
            f"{m}-consensus", protocol, protocol_reach=m, candidate_factory=candidate
        )

    def tas_probe() -> HierarchyProbe:
        def protocol(inputs):
            return (
                {
                    "TAS": TestAndSetSpec(),
                    "R0": RegisterSpec(),
                    "R1": RegisterSpec(),
                },
                [
                    TestAndSetConsensusProcess(pid, value)
                    for pid, value in enumerate(inputs)
                ],
            )

        def candidate(inputs):
            system = consensus_via_test_and_set(len(inputs))
            return system.objects, system.processes

        return HierarchyProbe(
            "test-and-set", protocol, protocol_reach=2, candidate_factory=candidate
        )

    def cas_probe() -> HierarchyProbe:
        def protocol(inputs):
            return (
                {"CAS": CompareAndSwapSpec()},
                [
                    CasConsensusProcess(pid, value)
                    for pid, value in enumerate(inputs)
                ],
            )

        return HierarchyProbe(
            "compare-and-swap", protocol, protocol_reach=max_count
        )

    def sa_probe() -> HierarchyProbe:
        def candidate(inputs):
            system = consensus_via_strong_sa(len(inputs))
            return system.objects, system.processes

        return HierarchyProbe(
            "strong 2-SA",
            protocol_factory=None,
            protocol_reach=0,
            candidate_factory=candidate,
        )

    return {
        "2-consensus": m_consensus_probe(2),
        "3-consensus": m_consensus_probe(3),
        "test-and-set": tas_probe(),
        "compare-and-swap": cas_probe(),
        "strong 2-SA": sa_probe(),
    }
