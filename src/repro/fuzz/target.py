"""Fuzz targets: any ProcessAutomaton system, named by a portable spec.

A :class:`FuzzTarget` bundles exactly what the explorer needs — objects,
automata, task, inputs — plus two fuzzing-specific knobs:

* ``detect_cycles`` — whether a configuration repeating *within one
  run* counts as a finding. For the candidate suite this is the
  concrete face of a liveness failure (a process takes steps forever
  without deciding); for Algorithm 2 instances it is off, because the
  n-DAC termination rubric deliberately tolerates non-solo spinning.
* ``key`` — a portable spec tuple (``("candidate", index)`` or
  ``("algorithm2", n, inputs)``) from which :func:`target_from_spec`
  rebuilds the target inside a worker process. Explorers and automata
  never cross a process boundary (same rule as
  :mod:`repro.analysis.parallel`), and the key also names the target's
  corpus entries on disk.

``expected_failure`` mirrors :class:`CandidateSystem`: ``"safety"`` /
``"liveness"`` / ``"none"``. The fuzz CLI compares observed findings
against it, so ``repro fuzz`` exits 0 exactly when every target failed
(or survived) the way the paper says it must.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..errors import SpecificationError
from ..objects.spec import SequentialSpec
from ..protocols.tasks import DecisionTask
from ..runtime.process import ProcessAutomaton
from ..types import Value, require

if TYPE_CHECKING:
    from ..protocols.candidates import CandidateSystem

#: A portable target spec: ("candidate", index) | ("algorithm2", n, inputs).
TargetSpec = Tuple


@dataclass
class FuzzTarget:
    """One fuzzable protocol instance plus its correctness contract."""

    name: str
    objects: Dict[str, SequentialSpec]
    processes: List[ProcessAutomaton]
    task: DecisionTask
    inputs: Tuple[Value, ...]
    key: TargetSpec
    detect_cycles: bool = True
    expected_failure: str = "none"
    notes: str = field(default="", repr=False)


def candidate_target(
    index: int, candidates: Optional[Sequence["CandidateSystem"]] = None
) -> FuzzTarget:
    """The ``index``-th entry of the doomed-candidate suite as a target.

    ``candidates`` is a suite the caller already built (one per
    request); None builds it here.
    """
    if candidates is None:
        from ..protocols.candidates import all_candidates

        candidates = all_candidates()
    require(
        0 <= index < len(candidates),
        SpecificationError,
        f"candidate index {index} out of range 0..{len(candidates) - 1}",
    )
    candidate = candidates[index]
    return FuzzTarget(
        name=candidate.name,
        objects=candidate.objects,
        processes=candidate.processes,
        task=candidate.task,
        inputs=candidate.inputs,
        key=("candidate", index),
        detect_cycles=True,
        expected_failure=candidate.expected_failure,
        notes=candidate.notes,
    )


def algorithm2_target(n: int, inputs: Tuple[Value, ...]) -> FuzzTarget:
    """One Algorithm 2 (Theorem 4.1) instance as a target.

    Cycle detection is off: n-DAC Termination only obliges processes
    under the (a)/(b) rubric, so a raw in-run configuration repeat is
    not a correctness violation for this system.
    """
    from ..core.pac import NPacSpec
    from ..protocols.dac_from_pac import algorithm2_processes
    from ..protocols.tasks import DacDecisionTask

    inputs = tuple(inputs)
    require(
        len(inputs) == n,
        SpecificationError,
        f"algorithm2 target needs {n} inputs, got {len(inputs)}",
    )
    return FuzzTarget(
        name=f"Algorithm 2 @ n={n}, inputs {inputs}",
        objects={"PAC": NPacSpec(n)},
        processes=algorithm2_processes(inputs),
        task=DacDecisionTask(n),
        inputs=inputs,
        key=("algorithm2", n, inputs),
        detect_cycles=False,
        expected_failure="none",
    )


def target_from_spec(
    spec: TargetSpec,
    candidates: Optional[Sequence["CandidateSystem"]] = None,
) -> FuzzTarget:
    """Rebuild a target from its portable spec (worker-side entry);
    ``candidates`` as for :func:`candidate_target`."""
    kind = spec[0]
    if kind == "candidate":
        return candidate_target(spec[1], candidates)
    if kind == "algorithm2":
        return algorithm2_target(spec[1], tuple(spec[2]))
    raise SpecificationError(f"unknown fuzz target spec {spec!r}")
