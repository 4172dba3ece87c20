"""Random client workloads for the implementation tests.

Per-process operation sequences for each target object family, so the
linearizability tests sweep random workloads rather than the handful
of hand-written ones:

* :func:`queue_workloads` — mixed enqueue/dequeue traffic;
* :func:`register_workloads` — write/read traffic;
* :func:`counter_workloads` — fetch-and-add bursts;
* :func:`bundle_workloads` — ``propose(v, k)`` traffic over an SA
  bundle's levels;
* :func:`pac_workloads` — label-disciplined propose/decide pairs.

Each family salts its RNG with its own name through the same helper as
:func:`repro.workloads.generators.snapshot_workloads`, so families that
share a seed draw disjoint streams.
"""

from typing import Dict, List, Sequence

from repro.types import Operation, ProcessId, op
from repro.workloads.generators import _rng


def queue_workloads(
    num_processes: int, ops_per_process: int, seed: int = 0
) -> Dict[ProcessId, List[Operation]]:
    rng = _rng(seed, "queue")
    workloads: Dict[ProcessId, List[Operation]] = {}
    for pid in range(num_processes):
        operations: List[Operation] = []
        for index in range(ops_per_process):
            if rng.random() < 0.6:
                operations.append(op("enqueue", f"p{pid}v{index}"))
            else:
                operations.append(op("dequeue"))
        workloads[pid] = operations
    return workloads


def register_workloads(
    num_processes: int, ops_per_process: int, seed: int = 0
) -> Dict[ProcessId, List[Operation]]:
    rng = _rng(seed, "register")
    workloads: Dict[ProcessId, List[Operation]] = {}
    for pid in range(num_processes):
        operations: List[Operation] = []
        for index in range(ops_per_process):
            if rng.random() < 0.5:
                operations.append(op("write", f"p{pid}v{index}"))
            else:
                operations.append(op("read"))
        workloads[pid] = operations
    return workloads


def counter_workloads(
    num_processes: int, ops_per_process: int, seed: int = 0
) -> Dict[ProcessId, List[Operation]]:
    rng = _rng(seed, "counter")
    return {
        pid: [
            op("fetch_and_add", rng.randint(1, 5))
            for _ in range(ops_per_process)
        ]
        for pid in range(num_processes)
    }


def bundle_workloads(
    num_processes: int,
    levels: Sequence[int],
    ops_per_process: int,
    seed: int = 0,
) -> Dict[ProcessId, List[Operation]]:
    rng = _rng(seed, "bundle")
    workloads: Dict[ProcessId, List[Operation]] = {}
    for pid in range(num_processes):
        operations = [
            op("propose", f"p{pid}v{index}", rng.choice(tuple(levels)))
            for index in range(ops_per_process)
        ]
        workloads[pid] = operations
    return workloads


def pac_workloads(
    num_processes: int, rounds: int, n_labels: int, seed: int = 0
) -> Dict[ProcessId, List[Operation]]:
    """Label-disciplined PAC traffic: process ``pid`` works label
    ``(pid % n_labels) + 1`` in propose/decide pairs — legal per label,
    adversarially interleavable across processes."""
    rng = _rng(seed, "pac")
    workloads: Dict[ProcessId, List[Operation]] = {}
    for pid in range(num_processes):
        label = (pid % n_labels) + 1
        operations: List[Operation] = []
        for index in range(rounds):
            operations.append(op("propose", f"p{pid}r{index}", label))
            operations.append(op("decide", label))
        workloads[pid] = operations
    return workloads
