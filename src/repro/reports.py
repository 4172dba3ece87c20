"""The unified result shape behind every CLI command and API call.

Before this module each engine reported in its own dialect —
``check-algorithm2`` returned per-instance dicts, ``refute`` tuples,
the fuzzer a ``FuzzReport`` — and each CLI command owned a private
printer. Now every entry point produces one :class:`Report`:

* ``status`` / ``exit_code`` — machine verdict (``ok`` reproduces the
  paper's claim; anything else exits non-zero, preserving the CLI's
  smoke-check contract);
* ``summary`` — one human line;
* ``body`` — the *exact* text rendering, line by line. The text
  format prints these verbatim, which is how the redesign keeps CI's
  byte-for-byte output diffs (serial vs pooled, cold vs warm cache,
  ``--jobs 1`` vs ``--jobs 2``) green;
* ``findings`` — structured violations/mismatches/errors;
* ``data`` — command-specific structured payload (stable field names);
* ``metrics`` — the observation session's metrics snapshot
  (:mod:`repro.obs.metrics`), attached by the CLI driver; deterministic
  across ``--jobs`` by construction.

``to_dict()``/``from_dict()`` round-trip losslessly; ``--format json``
on any command is exactly ``to_json()`` of the command's report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

#: Report JSON layout version; bumped when field names change.
REPORT_SCHEMA = 1

#: The machine verdicts a report may carry.
STATUSES = ("ok", "violation", "error")


@dataclass(frozen=True)
class Finding:
    """One structured violation, mismatch or failure inside a report.

    ``kind`` is a stable identifier (``safety``, ``liveness``,
    ``solo-termination``, ``mismatch``, ``replay-divergence``,
    ``error``, ``lint``); ``subject`` names what it is about (an inputs
    tuple rendered as text, a candidate name, a rule id); ``detail`` is
    the rendered witness or message; ``data`` carries any structured
    extras under stable keys.
    """

    kind: str
    subject: str
    detail: str = ""
    data: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "subject": self.subject,
            "detail": self.detail,
            "data": dict(self.data),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Finding":
        return cls(
            kind=payload["kind"],
            subject=payload["subject"],
            detail=payload.get("detail", ""),
            data=dict(payload.get("data", {})),
        )


@dataclass(frozen=True)
class Report:
    """One command's (or API call's) complete, renderable outcome."""

    command: str
    status: str = "ok"
    exit_code: int = 0
    summary: str = ""
    body: Tuple[str, ...] = ()
    findings: Tuple[Finding, ...] = ()
    data: Mapping[str, Any] = field(default_factory=dict)
    metrics: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(f"unknown report status: {self.status!r}")

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def with_metrics(self, snapshot: Mapping[str, Any]) -> "Report":
        """A copy carrying the observation session's metrics snapshot."""
        return replace(self, metrics=dict(snapshot))

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": REPORT_SCHEMA,
            "command": self.command,
            "status": self.status,
            "exit_code": self.exit_code,
            "summary": self.summary,
            "body": list(self.body),
            "findings": [finding.to_dict() for finding in self.findings],
            "data": _jsonable(self.data),
            "metrics": dict(self.metrics),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Report":
        if payload.get("schema") != REPORT_SCHEMA:
            raise ValueError(
                f"unsupported report schema: {payload.get('schema')!r}"
            )
        return cls(
            command=payload["command"],
            status=payload["status"],
            exit_code=payload["exit_code"],
            summary=payload.get("summary", ""),
            body=tuple(payload.get("body", ())),
            findings=tuple(
                Finding.from_dict(entry)
                for entry in payload.get("findings", ())
            ),
            data=dict(payload.get("data", {})),
            metrics=dict(payload.get("metrics", {})),
        )


def _jsonable(value: Any) -> Any:
    """Recursively coerce to JSON-native types (tuples become lists)."""
    if isinstance(value, Mapping):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def render_report(report: Report, format: str = "text") -> str:
    """The one renderer every CLI command routes through.

    ``text`` prints the body lines exactly as the pre-unification
    printers did; ``json`` is the full serialized report. ``sarif`` is
    available for commands that stash a pre-rendered SARIF document
    under ``data["sarif"]`` (currently ``lint``) — it prints the raw
    document so the output uploads to code scanning unwrapped.
    """
    if format == "json":
        return report.to_json()
    if format == "text":
        return "\n".join(report.body)
    if format == "sarif":
        document = report.data.get("sarif") if report.data else None
        if not isinstance(document, str):
            raise ValueError("this command does not produce SARIF output")
        return document
    raise ValueError(f"unknown format: {format!r}")
