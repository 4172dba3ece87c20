"""Profiling hooks: ``with profile_phase("explore"):`` around any phase.

A thin, opt-in bridge from :mod:`cProfile` into the trace: when the
ambient session has profiling enabled (``--profile``) *and* a trace is
being written, the wrapped block runs under a profiler
and a ``profile`` record with the top-N functions by cumulative time
lands in the trace. Otherwise the context is a strict no-op — no
profiler object is even constructed — so instrumented code pays one
function call when observation is off.

Profiling output is inherently non-deterministic (timings, and even
the function set can vary with memoisation warm-up); it is therefore
trace-only, never part of metrics snapshots, and ``repro report``
renders it as an informational table.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Dict, Iterator, List

from . import runtime

if TYPE_CHECKING:  # pragma: no cover - typing only
    import cProfile

#: How many rows of the cumulative-time table go into the trace.
TOP_N = 15


def _top_rows(profiler: cProfile.Profile, top_n: int) -> List[Dict[str, Any]]:
    import pstats

    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    rows: List[Dict[str, Any]] = []
    for func in stats.fcn_list[:top_n]:  # type: ignore[attr-defined]
        cc, nc, tt, ct, _callers = stats.stats[func]  # type: ignore[attr-defined]
        filename, lineno, name = func
        rows.append(
            {
                "func": "%s:%d:%s" % (filename, lineno, name),
                "ncalls": nc,
                "primitive_calls": cc,
                "tottime_s": round(tt, 6),
                "cumtime_s": round(ct, 6),
            }
        )
    return rows


@contextmanager
def profile_phase(phase: str, top_n: int = TOP_N) -> Iterator[None]:
    """Profile the block and emit a ``profile`` trace record.

    No-op unless the ambient session has profiling on and owns a live
    trace (profiles without a sink would be dropped on the floor).
    """
    if not runtime.profiling():
        yield
        return
    # Imported only when profiling is on: every instrumented phase
    # passes through here, and the profiler is opt-in.
    import cProfile

    session = runtime.current()
    assert session is not None and session.tracer is not None
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        session.tracer.profile(phase, _top_rows(profiler, top_n))
