"""Timing wrappers around the program's public functions, for traced runs.

The wrappers live in the benchmark, not in ``repro``: :func:`install`
puts an import hook at the front of ``sys.meta_path`` that patches each
listed module right after the program itself imports it. The hook never
imports a module on its own, so a lazy import stays lazy and the count
of loaded ``repro`` modules stays what the program makes it. Only
``os``, ``sys`` and ``time`` are used before the program runs.

Spans stay in memory. A process writes them to
``<out_dir>/spans-<pid>.jsonl`` when it flushes: the benchmark process
and the CLI/server shims at the end, forked workers (the
``VerificationPool`` and the serve process pool leave through
``os._exit`` and never run ``atexit``) at the end of every batch or job.

A record is ``[name, layer, t0, dur, self, role, rid, extra]``; ``self``
is the duration minus the spans opened inside it in the same process.
``role`` says which process recorded it: ``main`` (the benchmark or a
CLI command), ``server``, ``job`` (a serve worker running one job) or
``pool`` (a ``VerificationPool`` worker, whose time the parent already
sees as ``parallel.run``).
"""

import os
import sys
import time

clock = time.perf_counter  # CLOCK_MONOTONIC: comparable across processes


class Recorder:
    """Per-process span store with a stack for self-time accounting."""

    def __init__(self, out_dir, role):
        self.out_dir = out_dir
        self.role = role
        self.rid = None
        self.records = []
        self._stack = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        # A fork of the server becomes a job worker (run_job_worker says
        # so); any other fork is a VerificationPool worker.
        if self.role != "server":
            self.role = "pool"
        self.records = []
        self._stack = []

    def open(self):
        self._stack.append(0.0)
        return clock()

    def close(self, name, layer, t0, extra=None):
        dur = clock() - t0
        child = self._stack.pop()
        if self._stack:
            self._stack[-1] += dur
        self.records.append(
            [name, layer, t0, dur, dur - child, self.role, self.rid, extra]
        )

    def add(self, name, layer, t0, dur, extra=None):
        """A span measured elsewhere (counted as all self time)."""
        self.records.append(
            [name, layer, t0, dur, dur, self.role, self.rid, extra]
        )

    def flush(self):
        if not self.records:
            return
        import json

        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as handle:
            for record in self.records:
                handle.write(json.dumps(record) + "\n")
        self.records = []


RECORDER = None


def _wrap(fn, name, layer, post=None):
    """``fn`` timed as span ``name``; ``post(args, kwargs, result)``
    may return a dict of counts stored with the span."""

    def wrapper(*args, **kwargs):
        rec = RECORDER
        t0 = rec.open()
        extra = None
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            rec.close(name, layer, t0, {"raised": type(exc).__name__})
            raise
        if post is not None:
            extra = post(args, kwargs, result)
        rec.close(name, layer, t0, extra)
        return result

    return _like(wrapper, fn)


def _like(wrapper, fn):
    """Give ``wrapper`` the identity of ``fn``, so that pickling by
    qualified name (how pool work items reach workers) finds it."""
    for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
        setattr(wrapper, attr, getattr(fn, attr, None))
    wrapper.__wrapped__ = fn
    return wrapper


# -- per-span counts -------------------------------------------------------


def _bfs_counts(args, kwargs, result):
    return {"configs": len(result[0]), "rounds": result[4]}


def _run_counts(args, kwargs, result):
    return {
        "items": len(args[1]),
        "failures": sum(1 for item in result if not item.ok),
        "jobs": args[0].jobs,
    }


def _campaign_counts(args, kwargs, result):
    return {"executions": result.executions}


def _json_counts(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


def _put_counts(args, kwargs, result):
    cache, fp = args[0], args[1]
    return {"bytes": os.path.getsize(cache._entry_path(fp))}


def _wrap_cache_get(fn):
    """``ExplorationCache.get`` with hit, bytes read and corrupt entries
    (a file that existed but did not load) counted."""

    def get(self, fp):
        path = self._entry_path(fp)
        existed = os.path.exists(path)
        rec = RECORDER
        t0 = rec.open()
        payload = None
        try:
            payload = fn(self, fp)
        finally:
            extra = {"hit": payload is not None}
            if payload is not None:
                extra["bytes"] = os.path.getsize(path)
            elif existed:
                extra["corrupt"] = True
            rec.close("cache.get", "cache", t0, extra)
        return payload

    return _like(get, fn)


def _wrap_run_batch(fn):
    """``_run_batch``; a ``VerificationPool`` worker flushes its spans
    before the batch returns."""

    def run_batch(batch):
        rec = RECORDER
        t0 = rec.open()
        try:
            return fn(batch)
        finally:
            rec.close("parallel.batch", "parallel", t0, {"items": len(batch)})
            if rec.role == "pool":
                rec.flush()

    return _like(run_batch, fn)


def _wrap_job_worker(fn):
    """``run_job_worker`` tags the job's spans with its id, measures its
    spool trace and flushes before the result goes back."""

    def run_job_worker(payload, trace_path):
        rec = RECORDER
        rec.role = "job"
        rec.rid = os.path.basename(trace_path or "").split(".")[0] or None
        t0 = rec.open()
        try:
            return fn(payload, trace_path)
        finally:
            extra = {"trace_bytes": 0, "trace_records": 0}
            if trace_path and os.path.exists(trace_path):
                with open(trace_path, "rb") as handle:
                    data = handle.read()
                extra = {"trace_bytes": len(data),
                         "trace_records": data.count(b"\n")}
            rec.close("serve.worker", "serve", t0, extra)
            rec.flush()
            rec.rid = None

    return _like(run_job_worker, fn)


def _wrap_submit(fn):
    def submit(self, payload):
        rec = RECORDER
        t0 = rec.open()
        try:
            job, disposition = fn(self, payload)
        except BaseException as exc:
            rec.close("serve.submit", "serve", t0,
                      {"raised": type(exc).__name__})
            raise
        rec.close("serve.submit", "serve", t0,
                  {"job": job.id, "disposition": disposition})
        return job, disposition

    return _like(submit, fn)


class _TimedSession:
    """``obs.session(...)`` with its enter and exit timed as obs spans."""

    def __init__(self, manager):
        self._manager = manager

    def __enter__(self):
        rec = RECORDER
        t0 = rec.open()
        try:
            return self._manager.__enter__()
        finally:
            rec.close("obs.session", "obs", t0)

    def __exit__(self, *exc_info):
        rec = RECORDER
        t0 = rec.open()
        try:
            return self._manager.__exit__(*exc_info)
        finally:
            rec.close("obs.session", "obs", t0)


def _wrap_session(fn):
    def session(*args, **kwargs):
        return _TimedSession(fn(*args, **kwargs))

    return _like(session, fn)


# -- what gets wrapped -------------------------------------------------------

#: module -> [(attribute path, span name, layer, post) or (path, factory)]
PATCHES = {
    "repro.api.requests": [
        ("request_from_dict", "api.parse", "api", None),
        ("Request.fingerprint", "api.fingerprint", "api", None),
    ],
    "repro.api.execute": [("execute", "api.execute", "api", None)],
    "repro.obs.runtime": [
        ("ObsSession.snapshot", "obs.snapshot", "obs", None),
    ],
    "repro.obs": [("session", _wrap_session)],
    "repro.serve.jobs": [
        ("JobManager.submit", _wrap_submit),
        ("run_job_worker", _wrap_job_worker),
    ],
    "repro.analysis.cache": [
        ("code_salt", "cache.salt", "cache", None),
        ("ExplorationCache.get", _wrap_cache_get),
        ("ExplorationCache.put", "cache.put", "cache", _put_counts),
        ("explore_cached", "cache.explore_cached", "cache", None),
    ],
    "repro.analysis.parallel": [
        ("VerificationPool.run", "parallel.run", "parallel", _run_counts),
        ("_run_batch", _wrap_run_batch),
    ],
    "repro.analysis.kernel._pycore": [
        ("PyKernel.run_bfs", "kernel.bfs", "kernel", _bfs_counts),
    ],
    "repro.analysis.kernel.tables": [
        ("compile_tables", "kernel.compile", "kernel", None),
    ],
    "repro.analysis.explorer": [
        ("Explorer.__init__", "explorer.init", "explorer", None),
        ("Explorer.explore", "explorer.explore", "explorer", None),
        ("Explorer.check_safety", "explorer.safety", "explorer", None),
        ("Explorer.solo_termination", "explorer.solo", "explorer", None),
        ("Explorer.find_livelock", "explorer.livelock", "explorer", None),
        ("Explorer.decision_table", "explorer.decision", "explorer", None),
    ],
    "repro.analysis.valency_analyzer": [
        ("ValencyAnalyzer.__init__", "valency.analyze", "valency", None),
    ],
    "repro.fuzz.shrink": [
        ("shrink_genes", "fuzz.shrink", "fuzz", None),
    ],
    "repro.fuzz.engine": [
        ("fuzz_campaign", "fuzz.campaign", "fuzz", _campaign_counts),
        ("run_shard", "fuzz.shard", "fuzz", None),
    ],
    "repro.reports": [
        ("Report.to_json", "reports.to_json", "reports", _json_counts),
        ("render_report", "reports.render", "reports", None),
    ],
    "repro.cli": [("main", "cli.main", "cli", None)],
}


def _apply(module):
    for entry in PATCHES[module.__name__]:
        path = entry[0]
        owner = module
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        if len(entry) == 2:
            wrapped = entry[1](original)
        else:
            wrapped = _wrap(original, entry[1], entry[2], entry[3])
        setattr(owner, attr, wrapped)


class _PatchingFinder:
    """Meta-path finder that patches listed modules after they execute.

    It only answers for names in :data:`PATCHES`, delegates the real
    lookup to the finders behind it, and wraps the loader's
    ``exec_module``.
    """

    def find_spec(self, fullname, path=None, target=None):
        if fullname not in PATCHES:
            return None
        spec = None
        for finder in sys.meta_path:
            if finder is not self and hasattr(finder, "find_spec"):
                spec = finder.find_spec(fullname, path, target)
                if spec is not None:
                    break
        if spec is None or spec.loader is None:
            return spec
        execute = spec.loader.exec_module

        def exec_module(module):
            execute(module)
            _apply(module)

        spec.loader.exec_module = exec_module
        return spec


def install(out_dir, role):
    """Start recording in this process; returns the recorder."""
    global RECORDER
    if RECORDER is not None:
        return RECORDER
    already = [name for name in PATCHES if name in sys.modules]
    if already:
        raise RuntimeError(f"modules imported before install: {already}")
    RECORDER = Recorder(out_dir, role)
    sys.meta_path.insert(0, _PatchingFinder())
    return RECORDER


def load(out_dir):
    """Every span record flushed into ``out_dir`` by any process, each
    with the recording process's pid appended."""
    import json

    records = []
    for entry in sorted(os.listdir(out_dir)):
        if entry.startswith("spans-") and entry.endswith(".jsonl"):
            pid = int(entry[len("spans-"):-len(".jsonl")])
            with open(os.path.join(out_dir, entry)) as handle:
                for line in handle:
                    if line.strip():
                        records.append(json.loads(line) + [pid])
    return records
