"""Render a recorded trace into a human (or JSON) summary.

``repro report trace.jsonl`` loads a JSONL trace, validates it against
:mod:`repro.obs.schema`, and aggregates it: spans grouped by name
(count / total / max duration), events grouped by name, the final
metrics snapshot, and any profile tables. The summary is itself a
plain dict, carried as the report's ``data``.
"""

from __future__ import annotations

from typing import Any, Dict, List

from .schema import load_trace


def summarize(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate validated trace records into a summary dict."""
    meta = dict(records[0])
    meta.pop("type", None)
    meta.pop("seq", None)

    spans: Dict[str, Dict[str, Any]] = {}
    events: Dict[str, int] = {}
    metrics: Dict[str, Any] = {}
    profiles: List[Dict[str, Any]] = []
    for record in records:
        kind = record["type"]
        if kind == "span":
            entry = spans.setdefault(
                record["name"],
                {"count": 0, "total_s": 0.0, "max_s": 0.0},
            )
            entry["count"] += 1
            entry["total_s"] += record["dur_s"]
            if record["dur_s"] > entry["max_s"]:
                entry["max_s"] = record["dur_s"]
        elif kind == "event":
            events[record["name"]] = events.get(record["name"], 0) + 1
        elif kind == "metrics":
            # Last snapshot wins: the closing session writes the final one.
            metrics = record["snapshot"]
        elif kind == "profile":
            profiles.append({"phase": record["phase"], "top": record["top"]})
    return {
        "meta": meta,
        "records": len(records),
        "spans": {name: spans[name] for name in sorted(spans)},
        "events": {name: events[name] for name in sorted(events)},
        "metrics": metrics,
        "profiles": profiles,
    }


def summarize_file(path: str) -> Dict[str, Any]:
    """Load, validate and summarize a trace file."""
    return summarize(load_trace(path))


def render_text(summary: Dict[str, Any]) -> str:
    """The human rendering of a trace summary."""
    lines: List[str] = []
    meta = summary["meta"]
    header = "trace: schema=%s repro=%s pid=%s" % (
        meta.get("schema"),
        meta.get("repro_version"),
        meta.get("pid"),
    )
    if meta.get("command"):
        header += " command=%s" % meta["command"]
    lines.append(header)
    lines.append("records: %d" % summary["records"])

    if summary["spans"]:
        lines.append("")
        lines.append("spans (by total time):")
        ordered = sorted(
            summary["spans"].items(),
            key=lambda item: (-item[1]["total_s"], item[0]),
        )
        for name, entry in ordered:
            lines.append(
                "  %-32s n=%-5d total=%.6fs max=%.6fs"
                % (name, entry["count"], entry["total_s"], entry["max_s"])
            )

    if summary["events"]:
        lines.append("")
        lines.append("events:")
        for name in sorted(summary["events"]):
            lines.append("  %-32s n=%d" % (name, summary["events"][name]))

    metrics = summary["metrics"]
    if metrics:
        counters = metrics.get("counters", {})
        gauges = metrics.get("gauges", {})
        histograms = metrics.get("histograms", {})
        if counters or gauges or histograms:
            lines.append("")
            lines.append("metrics:")
        for name in sorted(counters):
            lines.append("  counter   %-30s %s" % (name, counters[name]))
        for name in sorted(gauges):
            lines.append("  gauge     %-30s %s" % (name, gauges[name]))
        for name in sorted(histograms):
            summary_h = histograms[name]
            lines.append(
                "  histogram %-30s count=%s total=%s min=%s max=%s"
                % (
                    name,
                    summary_h["count"],
                    summary_h["total"],
                    summary_h["min"],
                    summary_h["max"],
                )
            )

    for profile in summary["profiles"]:
        lines.append("")
        lines.append("profile: %s" % profile["phase"])
        for row in profile["top"]:
            lines.append(
                "  %8s calls  tot=%.6fs cum=%.6fs  %s"
                % (
                    row["ncalls"],
                    row["tottime_s"],
                    row["cumtime_s"],
                    row["func"],
                )
            )
    return "\n".join(lines)
