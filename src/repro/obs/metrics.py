"""Zero-dependency metrics registry with deterministic snapshots.

The observability layer's correctness bar is the repo's usual one:
**bit-determinism**. A metric snapshot taken after ``--jobs 1`` and
after ``--jobs 2`` of the same sweep must be byte-identical, because
the CI smoke diffs them (see ``docs/observability.md``). Three design
rules make that structural rather than accidental:

* metrics record **deterministic quantities only** — graph sizes,
  hit/miss counts, execution counts, frontier depths. Wall-clock
  timings never enter the registry; they belong to the trace layer
  (:mod:`repro.obs.trace`), whose records are explicitly excluded from
  byte-comparison. This module therefore contains no clock reads at
  all, which lint rule R001 now enforces for the ``obs`` role;
* snapshots are **plain sorted dicts** of plain numbers — rendering
  with ``json.dumps(..., sort_keys=True)`` is reproducible across
  interpreter runs and ``PYTHONHASHSEED`` values;
* merging is **ordered folding**: :meth:`MetricsRegistry.merge_snapshot`
  is called by :class:`~repro.analysis.parallel.VerificationPool` in
  work-item *submission* order, never completion order. Counters and
  histograms fold commutatively anyway; gauges are last-write-wins, so
  the submission-order fold makes pooled runs reproduce the inline
  run's gauge values exactly.

Three instrument kinds:

* **counter** — monotone int, merged by addition;
* **gauge** — last observed value, merged by overwrite in fold order;
* **histogram** — count/total/min/max summary of observed values,
  merged component-wise (no buckets: the consumers want magnitude
  summaries, and bucket boundaries would be one more schema to keep
  stable).
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Union

Number = Union[int, float]

#: Snapshot shape version; bumped when the layout changes.
SNAPSHOT_SCHEMA = 1


def empty_snapshot() -> Dict[str, Any]:
    """The snapshot of a registry that never recorded anything."""
    return {
        "schema": SNAPSHOT_SCHEMA,
        "counters": {},
        "gauges": {},
        "histograms": {},
    }


class MetricsRegistry:
    """Counters, gauges and histograms with deterministic snapshots."""

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[str, Number] = {}
        self._gauges: Dict[str, Number] = {}
        self._histograms: Dict[str, Dict[str, Number]] = {}

    # -- recording -------------------------------------------------------

    def counter(self, name: str, delta: Number = 1) -> None:
        """Add ``delta`` to counter ``name`` (created at 0)."""
        self._counters[name] = self._counters.get(name, 0) + delta

    def gauge(self, name: str, value: Number) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self._gauges[name] = value

    def histogram(self, name: str, value: Number) -> None:
        """Fold ``value`` into histogram ``name``'s summary."""
        summary = self._histograms.get(name)
        if summary is None:
            self._histograms[name] = {
                "count": 1,
                "total": value,
                "min": value,
                "max": value,
            }
            return
        summary["count"] += 1
        summary["total"] += value
        if value < summary["min"]:
            summary["min"] = value
        if value > summary["max"]:
            summary["max"] = value

    # -- snapshot / merge ------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A plain-dict rendering with sorted keys (JSON-stable)."""
        return {
            "schema": SNAPSHOT_SCHEMA,
            "counters": {
                name: self._counters[name] for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name] for name in sorted(self._gauges)
            },
            "histograms": {
                name: dict(self._histograms[name])
                for name in sorted(self._histograms)
            },
        }

    def merge_snapshot(self, snapshot: Optional[Mapping[str, Any]]) -> None:
        """Fold one snapshot into this registry.

        Counters add, histograms fold component-wise, gauges overwrite —
        so folding worker snapshots in submission order reproduces the
        inline (``jobs=1``) registry exactly.
        """
        if not snapshot:
            return
        for name in sorted(snapshot.get("counters", {})):
            self.counter(name, snapshot["counters"][name])
        for name in sorted(snapshot.get("gauges", {})):
            self.gauge(name, snapshot["gauges"][name])
        for name in sorted(snapshot.get("histograms", {})):
            other = snapshot["histograms"][name]
            summary = self._histograms.get(name)
            if summary is None:
                self._histograms[name] = dict(other)
                continue
            summary["count"] += other["count"]
            summary["total"] += other["total"]
            if other["min"] < summary["min"]:
                summary["min"] = other["min"]
            if other["max"] > summary["max"]:
                summary["max"] = other["max"]

    def __len__(self) -> int:
        return (
            len(self._counters) + len(self._gauges) + len(self._histograms)
        )
