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

Work-item callables must be module-level functions: workers import them
by qualified name. The repo's sweeps define their items next to their
callers (:mod:`repro.api.execute`, :mod:`repro.analysis.suite`,
:mod:`repro.lint.engine`); cached sweeps go through
:func:`repro.analysis.cache.cached_sweep`.
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


@dataclass(frozen=True)
class WorkItem:
    """One independent verification: ``fn(*args, **kwargs)``.

    ``key`` is the caller's stable identity for the item (inputs tuple,
    candidate name, …); results are merged back in submission order and
    carry the key, so callers never depend on completion order.
    ``fn`` must be a module-level callable for pooled execution.
    """

    key: Hashable
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)


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


def _run_batch(batch: Sequence[Tuple[int, Callable, tuple, dict]]):
    """Execute one chunk of items inside a worker (or inline).

    Every exception is captured per item — a bad item never takes the
    batch (or the sweep) down with it. Each item runs under its own
    :func:`repro.obs.scoped` metrics scope; the snapshot and wall-clock
    latency travel home in the raw tuple
    ``(index, failure, value, metrics, elapsed)`` so :meth:`run` can
    fold metrics in submission order (identical for inline and pooled
    execution) and report latencies to the trace only.
    """
    out = []
    for index, fn, args, kwargs in batch:
        value = failure = None
        started = time.perf_counter()  # repro: noqa[R001] trace-only latency, never in metrics
        with obs.scoped() as scope:
            try:
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

    def _chunks(
        self, tagged: List[Tuple[int, Callable, tuple, dict]]
    ) -> List[List[Tuple[int, Callable, tuple, dict]]]:
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
            (index, item.fn, tuple(item.args), dict(item.kwargs))
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
                    for index, _fn, _args, _kwargs in chunk:
                        raw.append((index, failure, None, empty_snapshot(), 0.0))
        self.last_run_parallel = True
        return raw
