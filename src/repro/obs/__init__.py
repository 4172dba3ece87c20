"""repro.obs — structured observability: metrics, traces, profiling.

Three layers, all zero-dependency and all opt-in:

* :mod:`repro.obs.metrics` — deterministic counters/gauges/histograms
  whose snapshots are byte-identical across ``--jobs`` values;
* :mod:`repro.obs.trace` / :mod:`repro.obs.schema` — span-based JSONL
  tracing (``--trace``) with a validated schema;
* :mod:`repro.obs.profile` — ``with profile_phase(...)`` cProfile
  tables emitted into the trace (``--profile``).

Engines record through the ambient-session helpers re-exported here
(:func:`session`, :func:`counter`, :func:`span`, :func:`event`, …)
and :func:`profile_phase`; with no session active every helper is a
near-free no-op. ``repro report`` renders a
recorded trace via :mod:`repro.obs.report`.
"""

from .profile import profile_phase
from .runtime import (
    counter,
    current,
    enabled,
    event,
    gauge,
    histogram,
    scoped,
    session,
    span,
    tracing,
)

__all__ = [
    "counter",
    "current",
    "enabled",
    "event",
    "gauge",
    "histogram",
    "profile_phase",
    "scoped",
    "session",
    "span",
    "tracing",
]
