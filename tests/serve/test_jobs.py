"""The :class:`JobManager` contract: coalesce, cache, bound, drain.

Driven directly (no HTTP) on a private event loop per test, with the
engine work in the manager's process pool.
"""

import asyncio
import multiprocessing
import os
import signal

import pytest

from repro.errors import InvalidRequestError, ServerOverloadedError
from repro.serve.jobs import EVENT_STREAM_END, JobManager, run_job_worker


def _run(coroutine):
    return asyncio.run(coroutine)


def _manager(**overrides):
    settings = dict(result_cache_size=8, poll_interval=0.005)
    settings.update(overrides)
    return JobManager(**settings)


VERIFY2 = {"command": "verify", "n": 2}

#: One payload per field naming a server-side path, each pointing into
#: the directory it is given. The server owns every file it writes.
CLIENT_PATHS = {
    "trace": lambda root: {
        "command": "verify",
        "n": 2,
        "options": {"trace": str(root / "trace.jsonl")},
    },
    "cache_dir": lambda root: {
        "command": "explore",
        "n": 2,
        "options": {"cache": True, "cache_dir": str(root)},
    },
    "corpus_dir": lambda root: {
        "command": "fuzz",
        "candidate": "one 2-SA",
        "budget": 20,
        "corpus_dir": str(root),
    },
}


class TestSubmission:
    def test_new_job_runs_to_an_ok_report(self):
        async def scenario():
            manager = _manager()
            try:
                job, disposition = manager.submit(VERIFY2)
                assert disposition == "new"
                result = await job.future
                assert result["status"] == "ok"
                assert result["schema"] == 1
                assert job.state == "done"
            finally:
                await manager.close()

        _run(scenario())

    def test_repeat_is_answered_from_the_warm_cache(self):
        async def scenario():
            manager = _manager()
            try:
                first, _ = manager.submit(VERIFY2)
                cold = await first.future
                second, disposition = manager.submit(VERIFY2)
                assert disposition == "cached"
                warm = await second.future
                assert warm == cold
                assert manager.counters["cache_hits"] == 1
                assert manager.counters["started"] == 1
            finally:
                await manager.close()

        _run(scenario())

    def test_identical_inflight_requests_coalesce(self):
        async def scenario():
            manager = _manager()
            try:
                first, d1 = manager.submit(VERIFY2)
                second, d2 = manager.submit(VERIFY2)
                assert (d1, d2) == ("new", "coalesced")
                assert second is first
                assert first.waiters == 2
                result = await first.future
                assert result["status"] == "ok"
                assert manager.counters["started"] == 1
            finally:
                await manager.close()

        _run(scenario())

    def test_options_variants_coalesce_too(self):
        async def scenario():
            manager = _manager()
            try:
                first, _ = manager.submit(VERIFY2)
                pooled = {
                    "command": "verify",
                    "n": 2,
                    "options": {"jobs": 4},
                }
                second, disposition = manager.submit(pooled)
                assert disposition == "coalesced"
                assert second is first
                await first.future
            finally:
                await manager.close()

        _run(scenario())

    def test_bad_payloads_are_rejected_before_any_job(self):
        async def scenario():
            manager = _manager()
            try:
                for payload in (
                    {"command": "conquer"},
                    {"command": "verify", "n": 0},
                    {"command": "verify", "unknown_field": 1},
                    "not a mapping",
                ):
                    with pytest.raises(InvalidRequestError):
                        manager.submit(payload)
                assert manager.counters["submitted"] == 0
            finally:
                await manager.close()

        _run(scenario())

    @pytest.mark.parametrize("field", sorted(CLIENT_PATHS))
    def test_client_chosen_path_is_rejected(self, tmp_path, field):
        async def scenario():
            manager = _manager()
            try:
                with pytest.raises(InvalidRequestError, match=field):
                    manager.submit(CLIENT_PATHS[field](tmp_path))
                assert manager.counters["submitted"] == 0
            finally:
                await manager.close()

        _run(scenario())
        assert list(tmp_path.iterdir()) == []


class TestBounds:
    def test_queue_bound_raises_overloaded(self):
        async def scenario():
            manager = _manager(max_queue=2)
            try:
                manager.submit({"command": "verify", "n": 2})
                manager.submit({"command": "explore", "n": 2})
                with pytest.raises(ServerOverloadedError):
                    manager.submit({"command": "refute"})
                assert manager.counters["rejected"] == 1
                # Coalescing still works at the bound: no new job.
                _, disposition = manager.submit({"command": "verify", "n": 2})
                assert disposition in ("coalesced", "cached")
                await manager.drain()
            finally:
                await manager.close()

        _run(scenario())

    def test_draining_rejects_new_work(self):
        async def scenario():
            manager = _manager()
            try:
                job, _ = manager.submit(VERIFY2)
                await manager.drain()
                assert job.state == "done"
                with pytest.raises(ServerOverloadedError):
                    manager.submit({"command": "explore", "n": 2})
            finally:
                await manager.close()

        _run(scenario())

    def test_job_history_is_bounded(self):
        async def scenario():
            manager = _manager(job_history_size=2, result_cache_size=2)
            try:
                ids = []
                for index in range(4):
                    job, _ = manager.submit(
                        {
                            "command": "explore",
                            "n": 2,
                            "max_configurations": 10_000 + index,
                        }
                    )
                    ids.append(job.id)
                    await job.future
                await manager.drain()
                retained = [
                    job_id
                    for job_id in ids
                    if manager.get(job_id) is not None
                ]
                assert len(retained) <= 2
            finally:
                await manager.close()

        _run(scenario())


class TestErrorsAndEvents:
    def test_engine_failures_become_error_reports(self):
        async def scenario():
            # algorithm2_n=1 with a nonexistent candidate name: the
            # engine itself errors (no candidate matches) but the job
            # still resolves to an envelope, never an exception.
            manager = _manager()
            try:
                job, _ = manager.submit(
                    {"command": "refute", "candidate": "no such candidate"}
                )
                result = await job.future
                assert result["status"] == "error"
                assert manager.counters["errors"] == 1
                # Engine errors are never cached.
                again, disposition = manager.submit(
                    {"command": "refute", "candidate": "no such candidate"}
                )
                assert disposition in ("new", "coalesced")
                await again.future
            finally:
                await manager.close()

        _run(scenario())

    def test_events_stream_and_replay(self):
        async def scenario():
            manager = _manager()
            try:
                job, _ = manager.submit({"command": "explore", "n": 2})
                queue = job.subscribe()  # live subscription
                await job.future
                await manager.drain()
                live = []
                while True:
                    event = await asyncio.wait_for(queue.get(), timeout=5)
                    if event is EVENT_STREAM_END:
                        break
                    live.append(event)
                assert live, "no events streamed"
                types = {event.get("type") for event in live}
                assert "span" in types and "end" in types
                # A late subscriber replays the same prefix, then EOF.
                replay_queue = job.subscribe()
                replay = []
                while True:
                    event = await asyncio.wait_for(
                        replay_queue.get(), timeout=5
                    )
                    if event is EVENT_STREAM_END:
                        break
                    replay.append(event)
                assert replay == live
            finally:
                await manager.close()

        _run(scenario())

    def test_worker_function_never_raises(self):
        report = run_job_worker({"command": "verify", "n": -1}, None)
        assert report["status"] == "error"
        assert report["data"]["error_code"] == "INVALID_REQUEST"
        report = run_job_worker({"command": "launch"}, None)
        assert report["data"]["error_code"] == "INVALID_REQUEST"

    def test_killed_worker_fails_inflight_jobs_and_the_pool_recovers(self):
        async def scenario():
            manager = _manager(workers=1)
            try:
                # Long enough to still be running when its worker dies.
                slow = {"command": "verify", "n": 5}
                job, _ = manager.submit(slow)
                waiter, disposition = manager.submit(slow)
                assert (disposition, waiter) == ("coalesced", job)
                while not multiprocessing.active_children():
                    await asyncio.sleep(0.01)
                for child in multiprocessing.active_children():
                    os.kill(child.pid, signal.SIGKILL)
                killed = await asyncio.wait_for(waiter.future, timeout=60)
                assert killed["status"] == "error"
                assert killed["data"]["error_code"] == "INTERNAL"
                fresh, disposition = manager.submit(VERIFY2)
                assert disposition == "new"
                result = await asyncio.wait_for(fresh.future, timeout=60)
                assert result["status"] == "ok"
                counters = manager.metrics()["counters"]
                assert counters["pool_restarts"] == 1
            finally:
                await manager.close()

        _run(scenario())
