"""Workload generators: operation histories, client workloads, interference."""

from .generators import snapshot_workloads
from .interference import InterferenceScheduler
from .histories import (
    all_pac_histories,
    pac_operation_space,
    random_pac_history,
)

__all__ = [
    "InterferenceScheduler",
    "snapshot_workloads",
    "all_pac_histories",
    "pac_operation_space",
    "random_pac_history",
]
