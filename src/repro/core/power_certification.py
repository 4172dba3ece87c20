"""Run the protocol behind the separation pair's set-agreement-power bounds.

:mod:`repro.core.power` labels each finite lower bound with the
protocol that justifies it. This module *executes* the protocols behind
O_n's and O'_n's bounds — model-checking k-set agreement over all
schedules for the claimed process count — so "certified" is an
operational word, not a comment:

* ``(n, m)``-PAC / ``O_n``, ``n_k >= m·k`` — group partition over the
  consensus faces of ``k`` object instances;
* ``O'_n``, each level — the bundle's own ``PROPOSE(v, k)`` face.

:func:`repro.core.relations.separation_report` runs both for k = 1, 2:
Corollary 6.6's "same power" holds only if every one of those cells is
certified (``repro separation``, ``repro ledger`` and E10 render them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..errors import SpecificationError
from ..types import require
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

