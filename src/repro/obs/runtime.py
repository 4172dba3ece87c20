"""The ambient observation session: one stack, explicit scoping.

Engines (explorer, pool, cache, fuzzer) do not carry registry/tracer
handles through their signatures; they call the module-level helpers
here (:func:`counter`, :func:`span`, :func:`event`, …), which resolve
against a process-local **session stack**:

* no active session → every helper is a cheap no-op (one truthiness
  check); with a metrics-only session the n=4 exploration of
  ``benchmarks/bench_perf_obs.py`` runs at 1.06× the no-session time
  (``obs_overhead_exploration`` in ``BENCH_perf.json``);
* :func:`session` (the CLI / :mod:`repro.api` entry) pushes a session
  with a fresh :class:`~repro.obs.metrics.MetricsRegistry` and — only
  when a trace path is given — a :class:`~repro.obs.trace.Tracer`;
* :func:`scoped` pushes a *child* session with its own registry but
  the parent's tracer: :class:`~repro.analysis.parallel.VerificationPool`
  wraps every work item in one, so each item's metrics are captured in
  isolation and folded back in submission order (the determinism
  contract of ``docs/observability.md``).

The stack is deliberately not thread-local: the repo's parallelism is
process-based (``multiprocessing``), and a forked worker inherits the
stack — harmless for metrics (the worker's writes land in its own copy
and travel home as snapshots) and guarded for traces (the tracer
refuses to write from a foreign pid).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from .metrics import MetricsRegistry, empty_snapshot
from .trace import NULL_SPAN, Tracer

class ObsSession:
    """One observation scope: a registry plus an optional tracer."""

    __slots__ = ("registry", "tracer", "profiling", "_owns_tracer")

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        profiling: bool = False,
        owns_tracer: bool = True,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer
        self.profiling = profiling
        self._owns_tracer = owns_tracer

    def snapshot(self) -> Dict[str, Any]:
        return self.registry.snapshot()

    def close(self) -> None:
        if self.tracer is not None and self._owns_tracer:
            self.tracer.metrics(self.snapshot())
            self.tracer.close()


_STACK: List[ObsSession] = []


def current() -> Optional[ObsSession]:
    """The innermost active session, or None."""
    return _STACK[-1] if _STACK else None


def enabled() -> bool:
    """Is any observation session active (metrics collected)?"""
    return bool(_STACK)


def tracing() -> bool:
    """Is a trace being written by the *current process*?"""
    if not _STACK:
        return False
    tracer = _STACK[-1].tracer
    return tracer is not None and tracer.owned()


def profiling() -> bool:
    """Should :func:`repro.obs.profile.profile_phase` actually profile?"""
    return bool(_STACK) and _STACK[-1].profiling and tracing()


# -- recording helpers (no-ops without a session) ------------------------


def counter(name: str, delta: float = 1) -> None:
    if _STACK:
        _STACK[-1].registry.counter(name, delta)


def gauge(name: str, value: float) -> None:
    if _STACK:
        _STACK[-1].registry.gauge(name, value)


def histogram(name: str, value: float) -> None:
    if _STACK:
        _STACK[-1].registry.histogram(name, value)


def event(name: str, **attrs: Any) -> None:
    if _STACK:
        tracer = _STACK[-1].tracer
        if tracer is not None:
            tracer.event(name, **attrs)


class _NullSpanContext:
    """Reusable, stateless ``with`` target when tracing is off."""

    __slots__ = ()

    def __enter__(self):
        return NULL_SPAN

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN_CONTEXT = _NullSpanContext()


def span(name: str, **attrs: Any):
    """A trace span context (a shared no-op when tracing is off)."""
    if _STACK:
        tracer = _STACK[-1].tracer
        if tracer is not None:
            return tracer.span(name, **attrs)
    return _NULL_SPAN_CONTEXT


def snapshot() -> Dict[str, Any]:
    """The current session's metrics snapshot (empty without one)."""
    if _STACK:
        return _STACK[-1].snapshot()
    return empty_snapshot()


# -- session management ---------------------------------------------------


@contextmanager
def session(
    trace_path: Optional[os.PathLike] = None,
    profile: bool = False,
    meta: Optional[Dict[str, Any]] = None,
    reuse: bool = True,
) -> Iterator[ObsSession]:
    """Open (or, with ``reuse``, join) an observation session.

    A trace is written only when ``trace_path`` is given, and profile
    tables only when ``profile`` is set as well. With ``reuse`` (the
    default) an already-active session is yielded as-is instead of
    nesting — the pattern that lets
    :func:`repro.api.execute` open sessions unconditionally while the
    CLI wraps them in one outer session.
    """
    if reuse and _STACK:
        yield _STACK[-1]
        return
    tracer = Tracer(trace_path, meta=meta) if trace_path is not None else None
    sess = ObsSession(tracer=tracer, profiling=profile)
    _STACK.append(sess)
    try:
        yield sess
    finally:
        _STACK.pop()
        sess.close()


@contextmanager
def scoped() -> Iterator[ObsSession]:
    """An isolated metrics scope sharing the ambient tracer.

    Used around every :class:`~repro.analysis.parallel.VerificationPool`
    work item (inline *and* in workers), so per-item metrics are
    captured in a fresh registry whose snapshot the pool folds back in
    submission order. Cheap: one small registry, no I/O.
    """
    parent = current()
    sess = ObsSession(
        tracer=parent.tracer if parent is not None else None,
        profiling=parent.profiling if parent is not None else False,
        owns_tracer=False,
    )
    _STACK.append(sess)
    try:
        yield sess
    finally:
        _STACK.pop()
