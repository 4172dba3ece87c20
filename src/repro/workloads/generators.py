"""Random client workloads for implementation testing.

The implementation harness (:mod:`repro.protocols.implementation`)
takes per-process operation sequences; :func:`snapshot_workloads`
produces update(pid)/scan traffic for a snapshot (single-writer
discipline respected).

Each workload family salts its RNG with its own name (:func:`_rng`), so
two families sharing a ``base_seed`` draw *disjoint* streams: unsalted,
a write/read family and the update/scan family would make identical
coin flips, which silently correlates "independent" sweeps. String
seeding is sha512-based in CPython, so the salted streams are stable
across runs and ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import random
from typing import Dict, List

from ..types import Operation, ProcessId, op


def _rng(seed: int, family: str) -> random.Random:
    """A seeded RNG salted per workload family (seed-disjointness)."""
    return random.Random(f"{family}:{seed}")


def snapshot_workloads(
    num_processes: int, ops_per_process: int, seed: int = 0
) -> Dict[ProcessId, List[Operation]]:
    rng = _rng(seed, "snapshot")
    workloads: Dict[ProcessId, List[Operation]] = {}
    for pid in range(num_processes):
        operations: List[Operation] = []
        for index in range(ops_per_process):
            if rng.random() < 0.5:
                operations.append(op("update", pid, f"p{pid}v{index}"))
            else:
                operations.append(op("scan"))
        workloads[pid] = operations
    return workloads
