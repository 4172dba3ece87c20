"""Trace-file schema: record shapes, validation, volatile fields.

The JSONL trace format (:mod:`repro.obs.trace`) is consumed by
``repro report``, the trace-smoke CI job, and the golden schema test —
all three validate through :func:`validate_record` / :func:`validate_trace`
so there is exactly one statement of what a trace may contain.

Byte-comparison contract: two traces of the same run differ only in
the fields listed in :data:`VOLATILE_FIELDS` (wall-time offsets and
durations); the golden test drops them before comparing.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, Iterator, List, Tuple

from .trace import TRACE_SCHEMA

#: Wall-time fields: present in traces, excluded from byte-comparison.
VOLATILE_FIELDS = frozenset({"t_s", "dur_s", "exec_s"})

#: record type -> (required fields, optional fields); every record also
#: carries ``type`` and ``seq``.
RECORD_FIELDS: Dict[str, Tuple[frozenset, frozenset]] = {
    "meta": (
        frozenset({"schema", "repro_version", "pid"}),
        frozenset({"command", "argv", "jobs", "seed"}),
    ),
    "span": (
        frozenset({"name", "id", "parent", "t_s", "dur_s", "attrs"}),
        frozenset(),
    ),
    "event": (
        frozenset({"name", "parent", "t_s", "attrs"}),
        frozenset(),
    ),
    "profile": (
        frozenset({"phase", "parent", "top"}),
        frozenset(),
    ),
    "metrics": (
        frozenset({"snapshot"}),
        frozenset(),
    ),
    "end": (
        frozenset({"records"}),
        frozenset(),
    ),
}


class TraceSchemaError(ValueError):
    """A trace record violates the schema."""


def validate_record(record: Dict[str, Any]) -> None:
    """Raise :class:`TraceSchemaError` unless ``record`` is well-formed."""
    if not isinstance(record, dict):
        raise TraceSchemaError("record is not an object: %r" % (record,))
    kind = record.get("type")
    if kind not in RECORD_FIELDS:
        raise TraceSchemaError("unknown record type: %r" % (kind,))
    if not isinstance(record.get("seq"), int):
        raise TraceSchemaError("record missing integer 'seq': %r" % (record,))
    required, optional = RECORD_FIELDS[kind]
    present = set(record) - {"type", "seq"}
    missing = required - present
    if missing:
        raise TraceSchemaError(
            "%s record missing %s" % (kind, sorted(missing))
        )
    unknown = present - required - optional
    if unknown:
        raise TraceSchemaError(
            "%s record has unknown fields %s" % (kind, sorted(unknown))
        )
    if kind == "meta" and record["schema"] != TRACE_SCHEMA:
        raise TraceSchemaError(
            "unsupported trace schema %r (supported: %d)"
            % (record["schema"], TRACE_SCHEMA)
        )


def iter_records(lines: Iterable[str]) -> Iterator[Dict[str, Any]]:
    """Parse JSONL lines into records (no validation)."""
    for line in lines:
        line = line.strip()
        if line:
            yield json.loads(line)


def load_trace(path: str) -> List[Dict[str, Any]]:
    """Load and fully validate a trace file.

    Checks every record's shape plus the file-level invariants: one
    leading ``meta`` record, one trailing ``end`` record whose count
    matches, and contiguous ``seq`` numbering.
    """
    with open(path, "r", encoding="utf-8") as fh:
        records = list(iter_records(fh))
    validate_trace(records)
    return records


def validate_trace(records: List[Dict[str, Any]]) -> None:
    """Validate a full record sequence (shapes + file invariants)."""
    if not records:
        raise TraceSchemaError("empty trace")
    for record in records:
        validate_record(record)
    if records[0]["type"] != "meta":
        raise TraceSchemaError("first record is not 'meta'")
    if records[-1]["type"] != "end":
        raise TraceSchemaError("last record is not 'end'")
    for position, record in enumerate(records):
        if record["seq"] != position:
            raise TraceSchemaError(
                "seq %r at position %d" % (record["seq"], position)
            )
    if records[-1]["records"] != len(records):
        raise TraceSchemaError(
            "end record counts %r records, file has %d"
            % (records[-1]["records"], len(records))
        )
