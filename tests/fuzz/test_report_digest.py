"""Fuzz reports, pinned byte for byte across a grid of requests.

The digest is sha256 over ``Report.to_json()`` (body, findings, data
and the metrics snapshot) of 72 requests: every candidate and
Algorithm 2 at ``n = 2``, seeds 1-3, budgets 100 and 300, default, 3
and 6 shards, inline and on a 2-worker pool. It was computed when every
shard still built its own explorer, and is never re-pinned: how shards
share an executor is an execution strategy, so no report may move.
Reports are identical across kernel backends and ``PYTHONHASHSEED``
values, so the digest is too.
"""

import hashlib

from repro.api.execute import execute
from repro.api.requests import ExecutionOptions, FuzzRequest
from repro.fuzz import engine

DIGEST = "6a448f94d53b799e3ef5ed2a00750fea4b4b4140aa50b34764ffa82d5db28368"


def _grid():
    for target in ({}, {"algorithm2_n": 2}):
        for seed in (1, 2, 3):
            for budget in (100, 300):
                for shards in (None, 3, 6):
                    for jobs in (1, 2):
                        yield FuzzRequest(
                            seed=seed,
                            budget=budget,
                            shards=shards,
                            options=ExecutionOptions(jobs=jobs),
                            **target,
                        )


def test_fuzz_reports_match_the_pinned_digest():
    digest = hashlib.sha256()
    for request in _grid():
        digest.update(execute(request).to_json().encode())
    assert digest.hexdigest() == DIGEST


def test_fresh_executor_per_shard_gives_equal_reports(monkeypatch):
    # Reference: every shard on its own cold executor, as when shards
    # shared nothing. Sharing one executor must not change any report
    # byte, metrics (per-shard shrink probes) included.
    requests = [
        request
        for request in _grid()
        if request.options.jobs == 1 and request.seed != 3
    ]
    shared = [execute(request).to_json() for request in requests]
    run_shard = engine.run_shard
    built = []

    def fresh_run_shard(executor, spec, *args, **kwargs):
        fresh = engine.shard_executor(spec, executor.max_steps)
        built.append(fresh is not executor)
        return run_shard(fresh, spec, *args, **kwargs)

    monkeypatch.setattr(engine, "run_shard", fresh_run_shard)
    fresh = [execute(request).to_json() for request in requests]
    assert built and all(built)
    assert fresh == shared
