"""repro.obs — structured observability: metrics, traces, profiling.

Three layers, all zero-dependency and all opt-in:

* :mod:`repro.obs.metrics` — deterministic counters/gauges/histograms
  whose snapshots are byte-identical across ``--jobs`` values;
* :mod:`repro.obs.trace` / :mod:`repro.obs.schema` — span-based JSONL
  tracing (``--trace``) with a validated schema;
* :mod:`repro.obs.profile` — ``with profile_phase(...)`` cProfile
  tables emitted into the trace (``--profile``).

Engines record through the ambient-session helpers re-exported here
(:func:`counter`, :func:`span`, :func:`event`, …); with no session
active every helper is a near-free no-op. ``repro report`` renders a
recorded trace via :mod:`repro.obs.report`.
"""

from .metrics import (
    SNAPSHOT_SCHEMA,
    MetricsRegistry,
    empty_snapshot,
    merge_snapshots,
)
from .profile import profile_phase
from .runtime import (
    ObsSession,
    counter,
    current,
    enabled,
    event,
    gauge,
    histogram,
    profiling,
    scoped,
    session,
    snapshot,
    span,
    tracing,
)
from .schema import (
    TraceSchemaError,
    VOLATILE_FIELDS,
    load_trace,
    strip_volatile,
    validate_record,
    validate_trace,
)
from .trace import NULL_SPAN, TRACE_SCHEMA, Span, Tracer

__all__ = [
    "SNAPSHOT_SCHEMA",
    "TRACE_SCHEMA",
    "VOLATILE_FIELDS",
    "MetricsRegistry",
    "NULL_SPAN",
    "ObsSession",
    "Span",
    "TraceSchemaError",
    "Tracer",
    "counter",
    "current",
    "empty_snapshot",
    "enabled",
    "event",
    "gauge",
    "histogram",
    "load_trace",
    "merge_snapshots",
    "profile_phase",
    "profiling",
    "scoped",
    "session",
    "snapshot",
    "span",
    "strip_volatile",
    "tracing",
    "validate_record",
    "validate_trace",
]
