"""Fold span records from a traced run into the per-layer metrics.

Two views of the same records:

* **work** metrics (``kernel.bfs_ms``, ``cache.gets``, ...) add up every
  span of a name in the traced window, whichever process ran it, pool
  workers included;
* **self-time** metrics (``<layer>.self_ms``) add up only the spans on
  the path the requester waits on (the workload names those roles).
  ``unattributed_ms`` is the requester's summed wait minus all layer
  self times, so the layers and ``unattributed_ms`` sum to
  ``traced_wall_ms`` exactly.

Every workload prints every metric; a layer the workload never enters
reads 0.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from harness import metric

LAYERS = (
    "cli", "api", "serve", "obs", "cache", "parallel",
    "kernel", "explorer", "valency", "fuzz", "reports",
)

#: The layers that answer the question; the rest serve it (start-up,
#: parsing, HTTP, caches, tracing, rendering).
ENGINE = ("parallel", "kernel", "explorer", "valency", "fuzz")

NAME, LAYER, T0, DUR, SELF, ROLE, RID, EXTRA, PID = range(9)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _Index:
    def __init__(self, records: Iterable[list]) -> None:
        self.by_name: Dict[str, List[list]] = defaultdict(list)
        for record in records:
            self.by_name[record[NAME]].append(record)

    def calls(self, name: str) -> int:
        return len(self.by_name[name])

    def dur_ms(self, name: str, role: Optional[str] = None) -> float:
        return 1000 * sum(
            r[DUR] for r in self.by_name[name] if role is None or r[ROLE] == role
        )

    def self_ms(self, name: str) -> float:
        return 1000 * sum(r[SELF] for r in self.by_name[name])

    def mean_us(self, name: str) -> float:
        records = self.by_name[name]
        return 1e6 * _ratio(sum(r[DUR] for r in records), len(records))

    def total(self, name: str, key: str) -> float:
        return sum((r[EXTRA] or {}).get(key, 0) for r in self.by_name[name])

    def mean(self, name: str, key: str) -> float:
        records = self.by_name[name]
        return _ratio(self.total(name, key), len(records))

    def first_per_process_ms(self, name: str) -> float:
        first: Dict[int, float] = {}
        for r in sorted(self.by_name[name], key=lambda r: r[T0]):
            first.setdefault(r[PID], r[DUR])
        return 1000 * _ratio(sum(first.values()), len(first))


def summarize(
    records: Sequence[list],
    *,
    window: Sequence[float],
    critical: Callable[[list], bool],
    traced_wall_ms: float,
    untraced_wall_ms: float,
    given: Dict[str, float],
) -> Dict[str, Dict[str, object]]:
    """The per-layer metric dict for one traced run.

    ``records`` may include synthetic spans the workload measured
    itself (CLI start-up, serve queue wait). Only records starting in
    ``window`` count. ``given`` supplies the metrics no span carries:
    ``cli.interp_ms``, ``cli.modules`` and the ``serve.*`` counters
    (and ``cli.import_ms`` when the import fell before the window).
    """
    start, end = window
    kept = [r for r in records if start <= r[T0] <= end]
    ix = _Index(kept)

    gets = ix.by_name["cache.get"]
    hits = sum(1 for r in gets if (r[EXTRA] or {}).get("hit"))
    corrupt = sum(1 for r in gets if (r[EXTRA] or {}).get("corrupt"))
    raised = sum(
        1 for r in kept
        if (r[EXTRA] or {}).get("raised") == "CacheIntegrityError"
    )
    pooled = [
        r for r in ix.by_name["parallel.run"]
        if (r[EXTRA] or {}).get("jobs", 1) > 1
        and (r[EXTRA] or {}).get("items", 0) > 1
    ]
    capacity_ms = 1000 * sum(
        r[DUR] * min(r[EXTRA]["jobs"], r[EXTRA]["items"]) for r in pooled
    )
    busy_ms = ix.dur_ms("parallel.batch", role="pool")
    bfs_ms = ix.dur_ms("kernel.bfs")
    configs = ix.total("kernel.bfs", "configs")
    campaign_ms = ix.dur_ms("fuzz.campaign")
    executions = ix.total("fuzz.campaign", "executions")

    m: Dict[str, Dict[str, object]] = {}

    def put(name: str, value: float, unit: str) -> None:
        m[name] = metric(value, unit)

    put("cli.interp_ms", given.get("cli.interp_ms", 0.0), "ms")
    put("cli.import_ms", given.get("cli.import_ms", 1000 * _ratio(
        sum(r[DUR] for r in ix.by_name["cli.import"]),
        ix.calls("cli.import"))), "ms")
    put("cli.modules", given.get("cli.modules", 0.0), "count")
    put("cli.main_self_ms", ix.self_ms("cli.main"), "ms")

    put("api.parse_us", ix.mean_us("api.parse"), "us")
    put("api.fingerprint_us", ix.mean_us("api.fingerprint"), "us")
    put("api.execute_self_ms", ix.self_ms("api.execute"), "ms")

    put("serve.submit_us", ix.mean_us("serve.submit"), "us")
    put("serve.http_us", given.get("serve.http_us", 0.0), "us")
    for name in ("cached", "coalesced", "new", "rejected", "lru_evictions"):
        put(f"serve.{name}", given.get(f"serve.{name}", 0.0), "count")
    put("serve.hit_ratio", given.get("serve.hit_ratio", 0.0), "ratio")
    put("serve.queue_wait_ms", 1000 * _ratio(
        sum(r[DUR] for r in ix.by_name["serve.queue_wait"]),
        ix.calls("serve.queue_wait")), "ms")
    put("serve.worker_ms", ix.dur_ms("serve.worker"), "ms")

    put("obs.session_ms",
        ix.dur_ms("obs.session") + ix.dur_ms("obs.snapshot"), "ms")
    put("obs.trace_bytes", ix.mean("serve.worker", "trace_bytes"), "bytes")
    put("obs.trace_records",
        ix.mean("serve.worker", "trace_records"), "count")

    put("cache.gets", len(gets), "count")
    put("cache.hit_ratio", _ratio(hits, len(gets)), "ratio")
    put("cache.get_ms", ix.dur_ms("cache.get"), "ms")
    put("cache.bytes_read", ix.total("cache.get", "bytes"), "bytes")
    put("cache.puts", ix.calls("cache.put"), "count")
    put("cache.put_ms", ix.dur_ms("cache.put"), "ms")
    put("cache.bytes_written", ix.total("cache.put", "bytes"), "bytes")
    put("cache.salt_ms", ix.first_per_process_ms("cache.salt"), "ms")
    put("cache.integrity_errors", corrupt + raised, "count")

    put("parallel.run_ms", ix.dur_ms("parallel.run"), "ms")
    put("parallel.items", ix.total("parallel.run", "items"), "count")
    put("parallel.worker_busy_ms", busy_ms, "ms")
    put("parallel.utilisation", _ratio(busy_ms, capacity_ms), "ratio")
    put("parallel.failures", ix.total("parallel.run", "failures"), "count")

    put("kernel.bfs_ms", bfs_ms, "ms")
    put("kernel.configs", configs, "count")
    put("kernel.configs_per_s", _ratio(configs, bfs_ms / 1000), "1/s")
    put("kernel.rounds", ix.total("kernel.bfs", "rounds"), "count")
    put("kernel.compiles", ix.calls("kernel.compile"), "count")
    put("kernel.compile_ms", ix.dur_ms("kernel.compile"), "ms")

    put("explorer.explore_self_ms", ix.self_ms("explorer.explore"), "ms")
    put("explorer.safety_ms", ix.dur_ms("explorer.safety"), "ms")
    put("explorer.solo_ms", ix.dur_ms("explorer.solo"), "ms")
    put("explorer.livelock_ms", ix.dur_ms("explorer.livelock"), "ms")
    put("explorer.decision_ms", ix.dur_ms("explorer.decision"), "ms")

    put("valency.analyze_ms", ix.dur_ms("valency.analyze"), "ms")
    put("valency.calls", ix.calls("valency.analyze"), "count")

    put("fuzz.campaign_self_ms", ix.self_ms("fuzz.campaign"), "ms")
    put("fuzz.executions", executions, "count")
    put("fuzz.execs_per_s", _ratio(executions, campaign_ms / 1000), "1/s")
    put("fuzz.shrink_ms", ix.dur_ms("fuzz.shrink"), "ms")

    put("reports.to_json_ms", ix.dur_ms("reports.to_json"), "ms")
    put("reports.bytes", ix.total("reports.to_json", "bytes"), "bytes")
    put("reports.render_ms", ix.dur_ms("reports.render"), "ms")

    layer_self = {layer: 0.0 for layer in LAYERS}
    for r in kept:
        if critical(r):
            layer_self[r[LAYER]] += 1000 * r[SELF]
    for layer in LAYERS:
        put(f"{layer}.self_ms", layer_self[layer], "ms")
    put("unattributed_ms", traced_wall_ms - sum(layer_self.values()), "ms")
    put("traced_wall_ms", traced_wall_ms, "ms")
    put("trace_overhead", _ratio(traced_wall_ms, untraced_wall_ms), "ratio")
    return m


def engine_share(metrics: Dict[str, Dict[str, object]]) -> float:
    """The engine layers' share of the traced wall time (self times on
    the requester's path); everything else is service time."""
    engine = sum(metrics[f"{layer}.self_ms"]["value"] for layer in ENGINE)
    return round(_ratio(engine, metrics["traced_wall_ms"]["value"]), 4)
