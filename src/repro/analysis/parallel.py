"""Parallel verification engine: fan independent checks over processes.

The repo's heavy workloads — candidate-suite refutation, adversary
sweeps, per-input exhaustive checks, per-input valency descents — are
embarrassingly parallel collections of *independent* explorations.
:class:`VerificationPool` fans such work items out over a
``multiprocessing`` worker pool with:

* **chunked scheduling** — one chunk per worker, so each round-trip
  amortizes process dispatch over several explorations;
* **deterministic result ordering** — results are merged by work-item
  position (and carry the caller's ``key``), never by completion
  order, so a pooled sweep reports byte-identical output to the serial
  sweep;
* **crash isolation** — an item that raises is returned as a
  structured :class:`WorkFailure` (type, message, traceback) while the
  rest of the sweep completes; a worker process that dies outright is
  reported the same way instead of hanging the sweep.

``jobs <= 1`` executes inline through the *same* item functions, so the
serial path is the parallel path with one worker — equivalence by
construction, not by testing alone. Items whose callables cannot be
pickled (closures, lambdas) also fall back to inline execution.

Items of one sweep that need the same costly value (the fuzz shards of
one campaign all drive one target's explorer) name it as a
:class:`Shared`: each batch builds it once, hands it to those items,
and drops it when the batch returns, so it lives for one request and
never crosses a process boundary.

Work-item callables must be module-level functions: workers import them
by qualified name. The repo's sweeps define their items next to their
callers (:mod:`repro.api.execute`, :mod:`repro.lint.engine`); cached
sweeps go through :func:`repro.analysis.cache.cached_sweep`.
"""

from __future__ import annotations

import os
import pickle
import time
import traceback
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .. import obs
from ..obs.metrics import empty_snapshot


class Shared:
    """A value the items of one batch share: ``factory(*args)``.

    :func:`_run_batch` builds each distinct ``(factory, args)`` once per
    batch (one worker chunk, or the whole inline run), passes it to
    every item naming it as the item's first argument, and drops it
    when the batch returns. A caller that already holds the value
    passes it as ``value``, and the inline run uses it as is. ``value``
    never crosses a process boundary: a worker builds its own from
    ``factory`` (module-level) and ``args`` (hashable, picklable).
    """

    __slots__ = ("factory", "args", "value")

    def __init__(
        self,
        factory: Callable[..., Any],
        args: Tuple[Hashable, ...] = (),
        value: Any = None,
    ) -> None:
        self.factory = factory
        self.args = tuple(args)
        self.value = value

    def __reduce__(self):
        return (Shared, (self.factory, self.args))


@dataclass(frozen=True)
class WorkItem:
    """One independent verification: ``fn(*args, **kwargs)``.

    ``key`` is the caller's stable identity for the item (inputs tuple,
    candidate name, …); results are merged back in submission order and
    carry the key, so callers never depend on completion order.
    ``fn`` must be a module-level callable for pooled execution. With
    ``shared``, the batch's one copy of that value is passed first:
    ``fn(value, *args, **kwargs)``.
    """

    key: Hashable
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    shared: Optional[Shared] = None


@dataclass(frozen=True)
class WorkFailure:
    """A structured record of one item (or its worker) failing."""

    error_type: str
    message: str
    traceback: str

    def render(self) -> str:
        return f"{self.error_type}: {self.message}"


@dataclass(frozen=True)
class WorkResult:
    """One item's outcome, in submission order."""

    key: Hashable
    index: int
    value: Any = None
    failure: Optional[WorkFailure] = None

    @property
    def ok(self) -> bool:
        return self.failure is None


#: One tagged item: (index, fn, args, kwargs, shared).
_Tagged = Tuple[int, Callable, tuple, dict, Optional[Shared]]


def _run_batch(batch: Sequence[_Tagged]):
    """Execute one chunk of items inside a worker (or inline).

    Every exception is captured per item — a bad item never takes the
    batch (or the sweep) down with it. Each item runs under its own
    :func:`repro.obs.scoped` metrics scope; the snapshot and wall-clock
    latency travel home in the raw tuple
    ``(index, failure, value, metrics, elapsed)`` so :meth:`run` can
    fold metrics in submission order (identical for inline and pooled
    execution) and report latencies to the trace only. Shared values
    are built by the first item that needs them (inside its scope) and
    freed with the batch.
    """
    out = []
    built: Dict[Tuple[Callable, tuple], Any] = {}
    for index, fn, args, kwargs, shared in batch:
        value = failure = None
        started = time.perf_counter()  # repro: noqa[R001] trace-only latency, never in metrics
        with obs.scoped() as scope:
            try:
                if shared is not None:
                    args = (_shared_value(shared, built),) + args
                value = fn(*args, **dict(kwargs))
            except Exception as exc:
                failure = WorkFailure(
                    error_type=type(exc).__name__,
                    message=str(exc),
                    traceback=traceback.format_exc(),
                )
        elapsed = time.perf_counter() - started  # repro: noqa[R001] trace-only latency, never in metrics
        out.append((index, failure, value, scope.snapshot(), elapsed))
    return out


def _shared_value(shared: Shared, built: Dict[Tuple[Callable, tuple], Any]):
    key = (shared.factory, shared.args)
    value = built.get(key)
    if value is None:
        value = shared.value
        if value is None:
            value = shared.factory(*shared.args)
        built[key] = value
    return value


def _default_context():
    """Prefer ``fork`` where available (cheap workers, inherited
    imports); fall back to the platform default elsewhere."""
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class VerificationPool:
    """Run independent verification items, serially or across workers.

    ``jobs``: worker count, clamped to ``os.cpu_count()`` so that no
    request can fork more workers than the machine has CPUs (reports
    never depend on the width); ``None``/``0`` means all of them;
    ``<= 1`` executes inline (no subprocesses). Each worker gets one
    coarse chunk: sweep items are millisecond-scale, so dispatch
    overhead dominates any load-balancing win from finer chunks.

    After :meth:`run`, ``last_run_parallel`` records whether worker
    processes were actually used (False for inline execution and for
    the unpicklable-item fallback).
    """

    def __init__(self, jobs: Optional[int] = None) -> None:
        cpus = os.cpu_count() or 1
        self.jobs = cpus if jobs is None or jobs <= 0 else min(jobs, cpus)
        self.last_run_parallel = False

    def _chunks(self, tagged: List[_Tagged]) -> List[List[_Tagged]]:
        # One chunk per worker: the per-dispatch pickling/IPC cost is on
        # the order of a whole sweep item, so amortizing it over
        # len/jobs items beats the classic 4-chunks-per-worker balancing
        # split for these workloads (see BENCH_perf.json's
        # parallel_sweep_algorithm2 history).
        size = max(1, (len(tagged) + self.jobs - 1) // self.jobs)
        return [tagged[i : i + size] for i in range(0, len(tagged), size)]

    def run(self, items: Sequence[WorkItem]) -> List[WorkResult]:
        """Execute every item; results in submission order.

        The merge is by item position — completion order never leaks
        into the result list, which is what makes pooled sweeps
        byte-identical to serial ones.
        """
        tagged = [
            (index, item.fn, tuple(item.args), dict(item.kwargs), item.shared)
            for index, item in enumerate(items)
        ]
        self.last_run_parallel = False
        with obs.span("pool.run", items=len(items), jobs=self.jobs) as sp:
            if self.jobs <= 1 or len(tagged) <= 1:
                raw = _run_batch(tagged)
            else:
                raw = self._run_pooled(tagged)
            sp.set(parallel=self.last_run_parallel)
            by_index: Dict[int, Tuple[Optional[WorkFailure], Any, Any, float]] = {
                index: (failure, value, metrics, elapsed)
                for index, failure, value, metrics, elapsed in raw
            }
            # Fold per-item metrics in submission order — never
            # completion order — so pooled sweeps report byte-identical
            # snapshots to serial ones. The jobs-dependent facts
            # (parallel flag, latencies) go to the trace only.
            parent = obs.current()
            results: List[WorkResult] = []
            for index, item in enumerate(items):
                failure, value, metrics, elapsed = by_index[index]
                if parent is not None:
                    parent.registry.merge_snapshot(metrics)
                    parent.registry.counter("pool.items")
                    if failure is not None:
                        parent.registry.counter("pool.failures")
                obs.event(
                    "pool.item",
                    key=repr(item.key),
                    index=index,
                    ok=failure is None,
                    exec_s=round(elapsed, 9),
                )
                results.append(
                    WorkResult(
                        key=item.key, index=index, value=value, failure=failure
                    )
                )
        return results

    def _run_pooled(self, tagged):
        # Imported only when a pool starts (``jobs > 1``): serial runs
        # and cache hits never pay for multiprocessing's import.
        from concurrent.futures import ProcessPoolExecutor

        chunks = self._chunks(tagged)
        try:
            pickle.dumps(chunks)
        except Exception:
            # Closures/lambdas cannot cross a process boundary; the
            # inline path runs the same item functions, so results are
            # identical — only the parallelism is lost.
            return _run_batch(tagged)
        context = _default_context()
        raw = []
        with ProcessPoolExecutor(
            max_workers=min(self.jobs, len(chunks)), mp_context=context
        ) as executor:
            futures = [executor.submit(_run_batch, chunk) for chunk in chunks]
            for chunk, future in zip(chunks, futures):
                try:
                    raw.extend(future.result())
                except Exception as exc:
                    # The worker process itself died (hard crash,
                    # BrokenProcessPool): report every item of the
                    # chunk as a structured failure instead of hanging
                    # or aborting the sweep.
                    failure = WorkFailure(
                        error_type=type(exc).__name__,
                        message=str(exc),
                        traceback=traceback.format_exc(),
                    )
                    obs.event(
                        "pool.chunk_failure",
                        error=type(exc).__name__,
                        items=len(chunk),
                    )
                    for index, *_item in chunk:
                        raw.append((index, failure, None, empty_snapshot(), 0.0))
        self.last_run_parallel = True
        return raw
