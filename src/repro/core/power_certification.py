"""Run the protocol behind every claimed set-agreement-power lower bound.

:mod:`repro.core.power` labels each finite lower bound with the
protocol that justifies it. This module *executes* those protocols —
model-checking k-set agreement over all schedules for the claimed
process count — so "certified" is an operational word, not a comment:

* registers, ``n_k >= k`` — the trivial protocol;
* ``m``-consensus, ``n_k >= m·k`` — group partition;
* strong ``c``-SA, ``n_k`` unbounded for ``k >= c`` — the relay
  protocol, sampled at process counts beyond any finite bound we print;
* ``(n, m)``-PAC / ``O_n``, ``n_k >= m·k`` — group partition over the
  consensus faces of ``k`` object instances;
* ``O'_n``, each level — the bundle's own ``PROPOSE(v, k)`` face.

:func:`repro.core.relations.separation_report` runs the last two for
k = 1, 2: Corollary 6.6's "same power" holds only if every one of those
cells is certified (``repro separation``, ``repro ledger`` and E10
render them). The others are the reference certifiers for the rest of
the power table; :func:`certify_power_prefix` runs one of them over a
sequence's first components and returns a row per component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

from ..errors import SpecificationError
from ..types import require
from .power import SetAgreementPower
from .set_agreement import _Unbounded


@dataclass(frozen=True)
class Certification:
    """One certified component: the protocol ran and was model-checked."""

    k: int
    process_count: int
    method: str
    certified: bool


def _check_k_set(objects, processes, k: int, inputs) -> bool:
    from ..analysis.explorer import Explorer
    from ..protocols.tasks import KSetAgreementTask

    explorer = Explorer(objects, processes)
    task = KSetAgreementTask(len(inputs), k, domain=None)
    return explorer.check_safety(task, inputs, max_configurations=400_000) is None


def certify_registers(k: int) -> Certification:
    """``n_k >= k``: everyone decides its own input."""
    from ..protocols.set_agreement import trivial_processes

    inputs = tuple(range(k))
    ok = _check_k_set({}, trivial_processes(inputs), k, inputs)
    return Certification(k, k, "trivial protocol", ok)


def certify_m_consensus(m: int, k: int) -> Certification:
    """``n_k >= m·k``: k groups of m, one consensus object each."""
    from ..protocols.set_agreement import (
        group_partition_objects,
        group_partition_processes,
    )

    count = m * k
    inputs = tuple(range(count))
    ok = _check_k_set(
        group_partition_objects(count, m),
        group_partition_processes(inputs, m),
        k,
        inputs,
    )
    return Certification(k, count, f"group partition ({k} x {m}-consensus)", ok)


def certify_strong_sa(c: int, k: int, sample_count: int = 5) -> Certification:
    """``k >= c`` ⇒ unbounded: relay through one strong c-SA object,
    sampled at ``sample_count`` processes (no finite run certifies ∞;
    we certify a count strictly larger than any claimed finite bound in
    the grid and document the sampling)."""
    from ..core.set_agreement import StrongSetAgreementSpec
    from ..protocols.set_agreement import strong_sa_processes

    require(k >= c, SpecificationError, "the strong c-SA bound needs k >= c")
    inputs = tuple(range(sample_count))
    ok = _check_k_set(
        {"SA": StrongSetAgreementSpec(c)},
        strong_sa_processes(inputs),
        k,
        inputs,
    )
    return Certification(
        k, sample_count, f"strong {c}-SA relay (sampled at {sample_count})", ok
    )


def certify_combined_pac(n: int, m: int, k: int) -> Certification:
    """``n_k >= m·k`` for the (n, m)-PAC: partition over the consensus
    faces of k instances."""
    from ..core.combined import CombinedPacSpec
    from ..protocols.consensus import CombinedPacConsensusProcess

    count = m * k
    inputs = tuple(range(count))
    objects = {f"NM{g}": CombinedPacSpec(n, m) for g in range(k)}

    processes = [
        CombinedPacConsensusProcess(pid, value, obj=f"NM{pid // m}")
        for pid, value in enumerate(inputs)
    ]
    ok = _check_k_set(objects, processes, k, inputs)
    return Certification(
        k, count, f"group partition ({k} x ({n},{m})-PAC consensus faces)", ok
    )


def certify_bundle_level(levels: Tuple, k: int) -> Certification:
    """O'_n's level-k component via its own propose(v, k) face."""
    from ..core.separation import SetAgreementBundleSpec
    from ..protocols.set_agreement import bundle_processes

    level_count = levels[k - 1]
    require(
        not isinstance(level_count, _Unbounded),
        SpecificationError,
        "cannot certify an unbounded level by finite run; sample instead",
    )
    inputs = tuple(range(level_count))
    ok = _check_k_set(
        {"OPRIME": SetAgreementBundleSpec(levels)},
        bundle_processes(inputs, level=k),
        k,
        inputs,
    )
    return Certification(k, level_count, f"bundle level-{k} face", ok)


def certify_power_prefix(
    power: SetAgreementPower,
    length: int,
    certifier: Callable[[int], Certification],
) -> List[Certification]:
    """Certify the first ``length`` components of ``power`` with the
    given per-component certifier; raises if any claimed finite lower
    bound fails its own protocol."""
    results = []
    for k in range(1, length + 1):
        certification = certifier(k)
        if not certification.certified:
            raise SpecificationError(
                f"{power.name}: claimed lower bound at k={k} failed its "
                f"backing protocol ({certification.method})"
            )
        results.append(certification)
    return results
