"""End-to-end correctness harness for ``repro serve`` (the CI gate).

Boots an in-process server, replays a mixed workload **twice**, and
checks the service's contract rather than its speed:

1. every served Report body is byte-identical to the Report
   :func:`repro.api.execute` produces in process for the same request
   — the service is a transport, not a different engine;
2. the second pass of every request is answered from the
   warm result cache (disposition ``cached``), and the bodies of the
   two passes are byte-identical — warm answers are the same answers;
3. a burst of identical concurrent submissions coalesces onto one job
   (asserted via ``/v1/metrics``: ``started`` counts one engine run for
   the burst, and every other client coalesced or hit the warm cache);
4. the streamed ``/v1/jobs/<id>/events`` trace is well-formed and
   carries the run's spans.

Run as ``python -m repro.serve.smoke`` or ``repro serve-smoke``; exits
non-zero with a rendered failure list otherwise.
"""

from __future__ import annotations

import concurrent.futures
import json
from typing import Any, Dict, List, Tuple

from ..reports import Finding, Report

__all__ = ["run_smoke", "main"]

#: The mixed workload: (command, fields) pairs covering every phase.
WORKLOAD: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("verify", {"n": 2}),
    ("explore", {"n": 2}),
    ("refute", {"candidate": "one 2-SA"}),
    ("fuzz", {"candidate": "2-consensus from queue", "seed": 1, "budget": 40}),
    ("verify", {"n": 2, "symmetry": True}),
)

#: How many identical concurrent submissions the coalescing burst uses.
BURST = 6


def _direct_body(command: str, fields: Dict[str, Any]) -> List[str]:
    from ..api import execute, request_from_dict

    report = execute(request_from_dict({"command": command, **fields}))
    return list(report.body)


def run_smoke() -> Report:
    """Run the whole harness; returns an ``ok``/``error`` Report."""
    from .client import ServeClient
    from .server import ServerConfig
    from .testing import BackgroundServer

    lines: List[str] = []
    findings: List[Finding] = []

    def fail(subject: str, detail: str) -> None:
        lines.append(f"FAIL {subject}: {detail}")
        findings.append(Finding("error", subject=subject, detail=detail))

    config = ServerConfig(port=0, result_cache_size=64)
    with BackgroundServer(config) as handle:
        client = handle.client

        # Pass 1 (cold) and pass 2 (warm): byte-diff bodies both against
        # the direct api call and against each other.
        bodies: Dict[int, List[str]] = {}
        for pass_index in (1, 2):
            for index, (command, fields) in enumerate(WORKLOAD):
                response = client.submit(command, **fields)
                label = f"{command}[{index}] pass {pass_index}"
                if response.status != 200:
                    fail(label, f"HTTP {response.status}")
                    continue
                body = list(response.payload.get("body", []))
                if pass_index == 1:
                    direct = _direct_body(command, fields)
                    if body != direct:
                        fail(
                            label,
                            "served body differs from direct api call",
                        )
                    bodies[index] = body
                else:
                    if response.disposition != "cached":
                        fail(
                            label,
                            f"expected cached, got {response.disposition!r}",
                        )
                    if body != bodies.get(index):
                        fail(label, "warm body differs from cold body")
            lines.append(f"pass {pass_index}: {len(WORKLOAD)} requests ok")

        # Coalescing burst: identical novel requests, concurrently. A
        # thread per client because ServeClient blocks; the server is a
        # single asyncio loop either way.
        before = client.metrics()["counters"]
        burst_fields = {"n": 2, "max_configurations": 399_999}

        def one_burst_call(_: int) -> Tuple[int, str, List[str]]:
            with ServeClient(handle.host, handle.port) as burst_client:
                response = burst_client.explore(**burst_fields)
                return (
                    response.status,
                    response.disposition or "",
                    list(response.payload.get("body", [])),
                )

        with concurrent.futures.ThreadPoolExecutor(BURST) as pool:
            outcomes = list(pool.map(one_burst_call, range(BURST)))
        after = client.metrics()["counters"]
        statuses = sorted({status for status, _, _ in outcomes})
        if statuses != [200]:
            fail("burst", f"statuses {statuses}")
        burst_bodies = {tuple(body) for _, _, body in outcomes}
        if len(burst_bodies) != 1:
            fail("burst", "coalesced clients saw different bodies")
        coalesced = after["coalesced"] - before["coalesced"]
        started = after["started"] - before["started"]
        hits = after["cache_hits"] - before["cache_hits"]
        if started != 1:
            fail("burst", f"expected 1 engine run, saw {started}")
        if coalesced + hits != BURST - 1:
            fail(
                "burst",
                f"{BURST} clients but coalesced={coalesced} hits={hits}",
            )
        # The coalesced/warm split depends on arrival timing; their sum
        # does not, so the line is byte-stable across runs.
        lines.append(
            f"burst: {BURST} clients -> {started} run, "
            f"{coalesced + hits} coalesced or warm"
        )

        # Event streaming: submit without waiting, then drain the stream.
        submitted = client.explore(
            wait=False, n=2, max_configurations=399_998
        )
        if submitted.status != 202 or not submitted.job_id:
            fail("events", f"async submit: HTTP {submitted.status}")
        else:
            events = list(client.events(submitted.job_id))
            kinds = {event.get("type") for event in events}
            if not events:
                fail("events", "empty event stream")
            elif "span" not in kinds:
                fail(
                    "events",
                    f"no spans in stream (types: {sorted(map(str, kinds))})",
                )
            else:
                lines.append(
                    f"events: {len(events)} records, "
                    f"types {sorted(map(str, kinds))}"
                )

        health = client.healthz()
        if health.get("status") != "ok":
            fail("healthz", json.dumps(health))

    status = "ok" if not findings else "error"
    summary = (
        "serve smoke: transport is byte-faithful, cache warm, "
        "coalescing live"
        if status == "ok"
        else f"serve smoke: {len(findings)} failure(s)"
    )
    lines.append(summary)
    return Report(
        command="serve-smoke",
        status=status,
        exit_code=0 if status == "ok" else 1,
        summary=summary,
        body=tuple(lines),
        findings=tuple(findings),
    )


def main() -> int:
    report = run_smoke()
    print("\n".join(report.body))
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
