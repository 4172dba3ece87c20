"""Job lifecycle for ``repro serve``: coalescing, caching, streaming.

The server turns every request into a :class:`Job` and funnels it
through one :class:`JobManager`. The manager is where the service
keeps its three promises:

* **Coalescing** — jobs are keyed by the typed request's
  ``fingerprint()`` (the exploration cache's sha256 scheme, covering
  the semantic fields but not the :class:`~repro.api.requests.\
ExecutionOptions` knobs). A submission whose fingerprint matches a
  job that is still queued or running attaches to that job instead of
  spawning a second identical run; all attached submitters await the
  same future and stream the same events.
* **Warm results** — completed non-error reports land in a bounded
  :class:`~repro.serve.lru.LRUCache` keyed by the same fingerprint, so
  repeats are answered in microseconds without touching an engine.
  Every served request is pure: the server owns every file it writes,
  so it refuses the client-chosen paths ``options.cache_dir`` and
  ``corpus_dir`` (HTTP 400), and the only trace is its own spool file.
* **Bounded intake** — at most ``max_queue`` jobs may be live
  (queued or running) and at most :data:`CLASS_LIMIT` of one phase
  may run concurrently; past either bound ``submit`` raises
  :class:`repro.errors.ServerOverloadedError` (HTTP 429) rather than
  letting memory or the process pool grow without limit. ``drain()``
  stops intake and waits for the live jobs to finish.

Execution happens in a :class:`~concurrent.futures.ProcessPoolExecutor`
via the module-level :func:`run_job_worker`, which never raises: engine
failures come back as taxonomy-classified error Reports. A worker
process that dies (OOM kill, SIGKILL) breaks the whole pool; the jobs
in flight on it fail with ``INTERNAL`` and the next job gets a fresh
pool (counted as ``pool_restarts``). Each worker writes its JSONL
trace to a per-job spool file; an asyncio tailer follows the file and
fans complete lines out to subscribers, which is what
``GET /jobs/<id>/events`` streams.

Everything here is asyncio-native and single-loop; the only other
processes involved are the pool's workers, one job at a time each —
the observation layer's session stack is process-global, so jobs never
share a process.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import os
import shutil
import tempfile
from collections import deque
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Mapping, Optional, Set, Tuple

from ..errors import InvalidRequestError, ServerOverloadedError, error_report
from ..api.requests import REQUEST_TYPES, Request, request_from_dict

__all__ = ["Job", "JobManager", "run_job_worker", "EVENT_STREAM_END"]

#: Sentinel pushed to every subscriber queue when a job's event stream
#: is complete (the job finished and the spool file has been read dry).
EVENT_STREAM_END = None

#: Ceiling on retained events per job; past it events still stream to
#: live subscribers but are not replayed to late joiners.
MAX_RETAINED_EVENTS = 10_000

#: Jobs of one phase that may run at once.
CLASS_LIMIT = 2


def run_job_worker(
    payload: Mapping[str, Any], trace_path: Optional[str]
) -> Dict[str, Any]:
    """Execute one request payload to a Report dict; never raises.

    Runs inside a pool worker. The request is rebuilt from its payload
    (the typed request objects are validated dataclasses, so a payload
    that parsed in the server parses here too), executed with the
    job's spool file as the trace sink, and serialized. Any failure —
    validation, engine, kernel — folds through
    :func:`repro.errors.error_report`, so the parent always receives a
    schema-versioned envelope with a taxonomy code to map onto an HTTP
    status.
    """
    from ..api.execute import execute

    command = str(payload.get("command", ""))
    request_type = REQUEST_TYPES.get(command)
    report_command = (
        request_type.report_command if request_type is not None else "serve"
    )
    try:
        request = request_from_dict(payload)
        return execute(request, trace=trace_path).to_dict()
    except Exception as exc:
        return error_report(report_command, exc).to_dict()


@dataclass
class Job:
    """One submitted (possibly shared) unit of verification work."""

    id: str
    command: str
    report_command: str
    fingerprint: str
    payload: Dict[str, Any]
    trace_path: Optional[str]
    state: str = "queued"  # queued | running | done
    disposition: str = "new"  # new | cached (how this job came to be)
    waiters: int = 1  # submissions attached (1 + coalesced)
    result: Optional[Dict[str, Any]] = None
    future: "asyncio.Future[Dict[str, Any]]" = field(
        default_factory=lambda: asyncio.get_running_loop().create_future()
    )
    events: List[Dict[str, Any]] = field(default_factory=list)
    events_dropped: int = 0
    _subscribers: List["asyncio.Queue[Optional[Dict[str, Any]]]"] = field(
        default_factory=list
    )
    _eof: bool = False

    def publish(self, event: Dict[str, Any]) -> None:
        """Record ``event`` and fan it out to every live subscriber."""
        if len(self.events) < MAX_RETAINED_EVENTS:
            self.events.append(event)
        else:
            self.events_dropped += 1
        for queue in self._subscribers:
            queue.put_nowait(event)

    def publish_eof(self) -> None:
        """Close the stream: late reads replay then end immediately."""
        if self._eof:
            return
        self._eof = True
        for queue in self._subscribers:
            queue.put_nowait(EVENT_STREAM_END)
        self._subscribers.clear()

    def subscribe(self) -> "asyncio.Queue[Optional[Dict[str, Any]]]":
        """A queue replaying past events, then live ones, then EOF."""
        queue: "asyncio.Queue[Optional[Dict[str, Any]]]" = asyncio.Queue()
        for event in self.events:
            queue.put_nowait(event)
        if self._eof:
            queue.put_nowait(EVENT_STREAM_END)
        else:
            self._subscribers.append(queue)
        return queue

    def describe(self) -> Dict[str, Any]:
        """The status dict behind ``GET /jobs/<id>``."""
        return {
            "id": self.id,
            "command": self.command,
            "fingerprint": self.fingerprint,
            "state": self.state,
            "disposition": self.disposition,
            "waiters": self.waiters,
            "events": len(self.events),
            "events_dropped": self.events_dropped,
            "done": self.state == "done",
        }


class JobManager:
    """Coalescing, caching, bounded execution of typed requests."""

    def __init__(
        self,
        *,
        workers: int = 2,
        max_queue: int = 64,
        result_cache_size: int = 256,
        job_history_size: int = 256,
        spool_dir: Optional[str] = None,
        poll_interval: float = 0.02,
    ) -> None:
        from .lru import LRUCache

        self.workers = max(1, workers)
        self.max_queue = max_queue
        self.poll_interval = poll_interval
        self._class_limits = {
            command: asyncio.Semaphore(CLASS_LIMIT)
            for command in REQUEST_TYPES
        }
        self.results = LRUCache(result_cache_size)
        self._jobs: Dict[str, Job] = {}
        self._inflight: Dict[str, Job] = {}
        self._finished_order: Deque[str] = deque()
        self._job_history_size = job_history_size
        self._tasks: Set["asyncio.Task[None]"] = set()
        self._executor: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._draining = False
        self._closed = False
        self._sequence = 0
        if spool_dir is None:
            self._spool_dir = tempfile.mkdtemp(prefix="repro-serve-")
            self._owns_spool_dir = True
        else:
            os.makedirs(spool_dir, exist_ok=True)
            self._spool_dir = spool_dir
            self._owns_spool_dir = False
        self.counters: Dict[str, int] = {
            "submitted": 0,
            "started": 0,
            "coalesced": 0,
            "cache_hits": 0,
            "completed": 0,
            "errors": 0,
            "rejected": 0,
            "pool_restarts": 0,
        }

    # -- intake ----------------------------------------------------------

    def submit(self, payload: Mapping[str, Any]) -> Tuple[Job, str]:
        """Admit one request payload; returns ``(job, disposition)``.

        ``disposition`` is ``"cached"`` (answered from the warm result
        cache), ``"coalesced"`` (attached to an identical in-flight
        job), or ``"new"``. Raises
        :class:`~repro.errors.InvalidRequestError` for bad payloads and
        :class:`~repro.errors.ServerOverloadedError` when draining or
        past the queue bound.
        """
        request = self._parse(payload)
        self.counters["submitted"] += 1
        fingerprint = request.fingerprint()

        cached = self.results.get(fingerprint)
        if cached is not None:
            self.counters["cache_hits"] += 1
            job = self._make_job(request, fingerprint, spool=False)
            job.state = "done"
            job.disposition = "cached"
            job.result = cached
            job.future.set_result(cached)
            job.publish_eof()
            self._remember(job)
            self._retire(job)
            return job, "cached"

        inflight = self._inflight.get(fingerprint)
        if inflight is not None:
            self.counters["coalesced"] += 1
            inflight.waiters += 1
            return inflight, "coalesced"

        if self._draining or self._closed:
            self.counters["rejected"] += 1
            raise ServerOverloadedError(
                "server is draining; resubmit to the next instance"
            )
        if len(self._inflight) >= self.max_queue:
            self.counters["rejected"] += 1
            raise ServerOverloadedError(
                f"job queue full ({self.max_queue} live jobs); retry later"
            )

        job = self._make_job(request, fingerprint, spool=True)
        self._remember(job)
        self._inflight[fingerprint] = job
        task = asyncio.get_running_loop().create_task(self._run(job))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return job, "new"

    def _parse(self, payload: Mapping[str, Any]) -> Request:
        request = request_from_dict(payload)
        options = request.options  # type: ignore[attr-defined]
        # The server owns every file it writes. A client-chosen
        # directory would let a caller write, and for the cache
        # unpickle, at any path on the server host.
        for name, value in (
            ("options.cache_dir", options.cache_dir),
            ("corpus_dir", getattr(request, "corpus_dir", None)),
        ):
            if value is not None:
                raise InvalidRequestError(
                    f"{name} is not accepted over the wire; "
                    f"the server chooses where it writes"
                )
        return request

    def _make_job(
        self, request: Request, fingerprint: str, *, spool: bool
    ) -> Job:
        self._sequence += 1
        job_id = f"job-{self._sequence:06d}"
        trace_path = (
            os.path.join(self._spool_dir, f"{job_id}.jsonl") if spool else None
        )
        return Job(
            id=job_id,
            command=request.command,
            report_command=request.report_command,
            fingerprint=fingerprint,
            payload=dict(request.to_dict()),
            trace_path=trace_path,
        )

    def _remember(self, job: Job) -> None:
        self._jobs[job.id] = job

    def get(self, job_id: str) -> Optional[Job]:
        return self._jobs.get(job_id)

    # -- execution -------------------------------------------------------

    def _ensure_executor(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._executor is None:
            self._executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers
            )
        return self._executor

    def _drop_executor(
        self, executor: concurrent.futures.ProcessPoolExecutor
    ) -> None:
        """Forget a broken pool so the next job builds a fresh one."""
        if self._executor is executor:
            self._executor = None
            self.counters["pool_restarts"] += 1
            executor.shutdown(wait=False)

    async def _execute(self, job: Job) -> Dict[str, Any]:
        """Run ``job`` in the pool, rebuilding the pool if it broke.

        A job that meets an already-broken pool at submission never
        ran, so it goes to a fresh pool. A job in flight when a worker
        dies raises ``BrokenProcessPool`` to the caller, after the pool
        is dropped.
        """
        loop = asyncio.get_running_loop()
        call = (run_job_worker, job.payload, job.trace_path)
        executor = self._ensure_executor()
        try:
            future = loop.run_in_executor(executor, *call)
        except BrokenProcessPool:
            self._drop_executor(executor)
            executor = self._ensure_executor()
            future = loop.run_in_executor(executor, *call)
        try:
            return await future
        except BrokenProcessPool:
            self._drop_executor(executor)
            raise

    async def _run(self, job: Job) -> None:
        async with self._class_limits[job.command]:
            job.state = "running"
            self.counters["started"] += 1
            pump = asyncio.get_running_loop().create_task(
                self._pump_events(job)
            )
            try:
                result = await self._execute(job)
            except Exception as exc:
                # run_job_worker never raises, so reaching here means the
                # worker process itself died (OOM kill, BrokenProcessPool).
                result = error_report(job.report_command, exc).to_dict()
            job.result = result
            job.state = "done"
            self.counters["completed"] += 1
            if result.get("status") == "error":
                self.counters["errors"] += 1
            else:
                self.results.put(job.fingerprint, result)
            if not job.future.done():
                job.future.set_result(result)
            self._inflight.pop(job.fingerprint, None)
            await pump
            job.publish_eof()
            self._retire(job)

    async def _pump_events(self, job: Job) -> None:
        """Tail the job's spool file, fanning complete JSONL lines out.

        Polls rather than watches — the writer is a separate process
        and the interval is tiny against engine runtimes. One final
        read happens after the job completes so no trailing events are
        lost.
        """
        if job.trace_path is None:
            return
        offset = 0
        partial = b""
        while True:
            finished = job.state == "done" or job.future.done()
            try:
                with open(job.trace_path, "rb") as handle:
                    handle.seek(offset)
                    chunk = handle.read()
            except OSError:
                chunk = b""
            if chunk:
                offset += len(chunk)
                partial += chunk
                lines = partial.split(b"\n")
                partial = lines.pop()
                for raw in lines:
                    raw = raw.strip()
                    if not raw:
                        continue
                    try:
                        event = json.loads(raw.decode("utf-8"))
                    except (UnicodeDecodeError, ValueError):
                        continue
                    if isinstance(event, dict):
                        job.publish(event)
            if finished:
                return
            await asyncio.sleep(self.poll_interval)

    def _retire(self, job: Job) -> None:
        """Record completion; evict the oldest finished jobs past cap."""
        self._finished_order.append(job.id)
        while len(self._finished_order) > self._job_history_size:
            old_id = self._finished_order.popleft()
            old = self._jobs.pop(old_id, None)
            if old is not None and old.trace_path:
                try:
                    os.unlink(old.trace_path)
                except OSError:
                    pass

    # -- shutdown and introspection --------------------------------------

    @property
    def live_jobs(self) -> int:
        return len(self._inflight)

    async def drain(self) -> None:
        """Stop intake and wait for every live job to finish."""
        self._draining = True
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    async def close(self) -> None:
        """Drain, stop the executor, and remove owned spool state."""
        await self.drain()
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._owns_spool_dir:
            shutil.rmtree(self._spool_dir, ignore_errors=True)

    def metrics(self) -> Dict[str, Any]:
        """The point-in-time snapshot behind ``GET /metrics``."""
        return {
            "counters": dict(self.counters),
            "live_jobs": len(self._inflight),
            "retained_jobs": len(self._jobs),
            "draining": self._draining,
            "workers": self.workers,
            "max_queue": self.max_queue,
            "class_limits": dict.fromkeys(self._class_limits, CLASS_LIMIT),
            "result_cache": {
                "size": len(self.results),
                "capacity": self.results.capacity,
                "hits": self.results.hits,
                "misses": self.results.misses,
                "evictions": self.results.evictions,
            },
        }
