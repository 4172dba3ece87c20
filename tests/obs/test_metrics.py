"""Metrics registry semantics and the cross-``--jobs`` determinism contract.

The load-bearing property (diffed by the trace-smoke CI job): a metrics
snapshot taken after a pooled run is byte-identical to the inline run's,
because counters add, histograms fold component-wise, and gauges are
overwritten in submission order.
"""

import json

from repro import obs
from repro.analysis.parallel import VerificationPool, WorkItem
from repro.obs.metrics import (
    SNAPSHOT_SCHEMA,
    MetricsRegistry,
    empty_snapshot,
)
from repro.obs.runtime import snapshot as ambient_snapshot


def merge_snapshots(snapshots):
    """Fold ``snapshots`` (in order) into one fresh snapshot."""
    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.merge_snapshot(snapshot)
    return registry.snapshot()


class TestRegistry:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("hits")
        registry.counter("hits")
        registry.counter("hits", 3)
        assert registry.snapshot()["counters"] == {"hits": 5}

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("depth", 4)
        registry.gauge("depth", 2)
        assert registry.snapshot()["gauges"] == {"depth": 2}

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        for value in (5, 1, 3):
            registry.histogram("width", value)
        assert registry.snapshot()["histograms"]["width"] == {
            "count": 3,
            "total": 9,
            "min": 1,
            "max": 5,
        }

    def test_empty_snapshot_shape(self):
        assert MetricsRegistry().snapshot() == empty_snapshot()
        assert empty_snapshot()["schema"] == SNAPSHOT_SCHEMA

    def test_snapshot_keys_are_sorted(self):
        registry = MetricsRegistry()
        for name in ("zebra", "alpha", "mid"):
            registry.counter(name)
        assert list(registry.snapshot()["counters"]) == [
            "alpha",
            "mid",
            "zebra",
        ]

    def test_len_counts_instruments(self):
        registry = MetricsRegistry()
        assert len(registry) == 0
        registry.counter("a")
        registry.gauge("b", 1)
        registry.histogram("c", 1)
        assert len(registry) == 3


class TestMerge:
    def test_folding_part_snapshots_reproduces_the_inline_registry(self):
        inline = MetricsRegistry()
        parts = []
        for shard in range(3):
            part = MetricsRegistry()
            for registry in (inline, part):
                registry.counter("items", shard + 1)
                registry.gauge("last_shard", shard)
                registry.histogram("sizes", shard * 10)
            parts.append(part)
        merged = merge_snapshots([part.snapshot() for part in parts])
        assert merged == inline.snapshot()

    def test_gauges_overwrite_in_fold_order(self):
        first = MetricsRegistry()
        first.gauge("g", 1)
        second = MetricsRegistry()
        second.gauge("g", 2)
        forward = merge_snapshots([first.snapshot(), second.snapshot()])
        backward = merge_snapshots([second.snapshot(), first.snapshot()])
        assert forward["gauges"] == {"g": 2}
        assert backward["gauges"] == {"g": 1}

    def test_none_and_empty_snapshots_are_noops(self):
        registry = MetricsRegistry()
        registry.counter("kept")
        before = registry.snapshot()
        registry.merge_snapshot(None)
        registry.merge_snapshot(empty_snapshot())
        assert registry.snapshot() == before


def _observed_work(tag, value):
    """Module-level so the pool can pickle it into workers."""
    obs.counter("work.items")
    obs.counter("work.total", value)
    obs.gauge("work.last_tag", tag)
    obs.histogram("work.values", value)
    return value * 2


def _pooled_snapshot(jobs):
    with obs.session(reuse=False) as sess:
        pool = VerificationPool(jobs=jobs)
        items = [
            WorkItem(key=tag, fn=_observed_work, args=(tag, tag + 10))
            for tag in range(6)
        ]
        results = pool.run(items)
        assert [result.value for result in results] == [
            (tag + 10) * 2 for tag in range(6)
        ]
        return sess.snapshot()


class TestPoolFoldDeterminism:
    def test_snapshots_identical_across_jobs_1_and_2(self):
        serial = _pooled_snapshot(jobs=1)
        pooled = _pooled_snapshot(jobs=2)
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            pooled, sort_keys=True
        )
        assert serial["counters"]["work.items"] == 6
        assert serial["counters"]["pool.items"] == 6
        # submission-order fold: the last item's gauge wins either way
        assert serial["gauges"]["work.last_tag"] == 5
        assert serial["histograms"]["work.values"] == {
            "count": 6,
            "total": 75,
            "min": 10,
            "max": 15,
        }

    def test_no_session_means_no_metrics_and_no_crash(self):
        assert not obs.enabled()
        pool = VerificationPool(jobs=1)
        results = pool.run(
            [WorkItem(key=0, fn=_observed_work, args=(0, 1))]
        )
        assert results[0].value == 2
        assert ambient_snapshot() == empty_snapshot()
