"""Workload generators: operation histories, client workloads, interference."""

from .generators import (
    bundle_workloads,
    counter_workloads,
    pac_workloads,
    queue_workloads,
    register_workloads,
    snapshot_workloads,
)
from .interference import InterferenceScheduler
from .histories import (
    all_pac_histories,
    legal_pac_history,
    pac_operation_space,
    random_pac_history,
)

__all__ = [
    "InterferenceScheduler",
    "bundle_workloads",
    "counter_workloads",
    "pac_workloads",
    "queue_workloads",
    "register_workloads",
    "snapshot_workloads",
    "all_pac_histories",
    "legal_pac_history",
    "pac_operation_space",
    "random_pac_history",
]
