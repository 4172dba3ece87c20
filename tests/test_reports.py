"""The unified :class:`repro.reports.Report` shape.

Round-trip fidelity of the dataclasses, the two renderings, and the
redesign's CLI contract: **every** command emits the same JSON envelope
under ``--format json``.
"""

import json
import os

import pytest

from repro.api import VerifyRequest, execute
from repro.cli import main
from repro.reports import (
    REPORT_SCHEMA,
    STATUSES,
    Finding,
    Report,
    render_report,
)

ENVELOPE_KEYS = {
    "schema",
    "command",
    "status",
    "exit_code",
    "summary",
    "body",
    "findings",
    "data",
    "metrics",
}


def finding_from_dict(payload):
    """The :class:`Finding` a ``to_dict()`` payload describes."""
    return Finding(
        kind=payload["kind"],
        subject=payload["subject"],
        detail=payload.get("detail", ""),
        data=dict(payload.get("data", {})),
    )


def report_from_dict(payload):
    """The :class:`Report` a ``to_dict()`` envelope describes: the
    inverse the round-trip tests check ``to_dict`` against."""
    if payload.get("schema") != REPORT_SCHEMA:
        raise ValueError(f"unsupported report schema: {payload.get('schema')!r}")
    return Report(
        command=payload["command"],
        status=payload["status"],
        exit_code=payload["exit_code"],
        summary=payload.get("summary", ""),
        body=tuple(payload.get("body", ())),
        findings=tuple(
            finding_from_dict(entry) for entry in payload.get("findings", ())
        ),
        data=dict(payload.get("data", {})),
        metrics=dict(payload.get("metrics", {})),
    )


def _sample_report():
    return Report(
        command="check-algorithm2",
        status="violation",
        exit_code=1,
        summary="1 violation",
        body=("line one", "line two"),
        findings=(
            Finding(
                kind="safety",
                subject="(0, 1, 2)",
                detail="two names decided",
                data={"witness_length": 7},
            ),
        ),
        data={"n": 3, "instances": 27},
        metrics={"schema": 1, "counters": {"verify.instances": 27}},
    )


class TestRoundTrip:
    def test_report_survives_json(self):
        report = _sample_report()
        assert report_from_dict(json.loads(report.to_json())) == report

    def test_finding_survives_dict(self):
        finding = Finding(kind="lint", subject="R001", data={"line": 4})
        assert finding_from_dict(finding.to_dict()) == finding

    def test_dict_layout_is_the_envelope(self):
        payload = _sample_report().to_dict()
        assert set(payload) == ENVELOPE_KEYS
        assert payload["schema"] == REPORT_SCHEMA
        assert payload["findings"][0]["kind"] == "safety"

    def test_unknown_status_is_rejected(self):
        with pytest.raises(ValueError, match="status"):
            Report(command="x", status="sideways")
        assert STATUSES == ("ok", "violation", "error")

    def test_unknown_schema_is_rejected(self):
        payload = _sample_report().to_dict()
        payload["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            report_from_dict(payload)

    def test_tuples_in_data_become_lists(self):
        report = Report(command="x", data={"inputs": (0, 1)})
        assert report.to_dict()["data"]["inputs"] == [0, 1]

    def test_with_metrics_attaches_a_snapshot(self):
        report = Report(command="x")
        snapshot = {"schema": 1, "counters": {"a": 1}}
        assert report.with_metrics(snapshot).metrics == snapshot
        assert report.metrics == {}


class TestRender:
    def test_text_is_exactly_the_body(self):
        assert render_report(_sample_report()) == "line one\nline two"

    def test_json_is_the_serialized_report(self):
        report = _sample_report()
        assert json.loads(render_report(report, "json")) == report.to_dict()

    def test_unknown_format_is_rejected(self):
        with pytest.raises(ValueError, match="format"):
            render_report(_sample_report(), "yaml")


class TestCliJsonEnvelope:
    """--format json on every command parses into the one envelope."""

    def _payload(self, capsys, argv, expect_exit=0):
        capsys.readouterr()
        assert main(argv + ["--format", "json"]) == expect_exit
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == ENVELOPE_KEYS
        assert payload["schema"] == REPORT_SCHEMA
        assert payload["command"] == argv[0]
        assert payload["exit_code"] == expect_exit
        return payload

    def test_demo(self, capsys):
        payload = self._payload(capsys, ["demo"])
        assert payload["status"] == "ok"

    def test_check_algorithm2(self, capsys):
        payload = self._payload(capsys, ["check-algorithm2", "--n", "2"])
        assert payload["data"]["n"] == 2
        assert payload["metrics"]["counters"]["verify.instances"] == 4

    def test_refute(self, capsys):
        payload = self._payload(capsys, ["refute", "--candidate", "one 2-SA"])
        assert payload["status"] == "ok"
        # expected failures are the reproduced claim, not findings
        assert payload["findings"] == []

    def test_separation(self, capsys):
        self._payload(capsys, ["separation", "--n", "2"])

    def test_power(self, capsys):
        self._payload(capsys, ["power"])

    def test_list_candidates(self, capsys):
        payload = self._payload(capsys, ["list-candidates"])
        assert payload["body"]

    def test_ledger(self, capsys):
        self._payload(capsys, ["ledger", "--n", "2"])

    def test_fuzz(self, capsys):
        payload = self._payload(
            capsys,
            [
                "fuzz",
                "--candidate",
                "2-consensus from queue",
                "--seed",
                "1",
                "--budget",
                "50",
            ],
        )
        assert payload["metrics"]["counters"]["fuzz.campaigns"] == 1

    def test_cache_stats(self, capsys, tmp_path):
        payload = self._payload(
            capsys, ["cache", "stats", "--cache-dir", str(tmp_path)]
        )
        assert payload["status"] == "ok"

    def test_lint(self, capsys):
        import repro.obs

        target = os.path.dirname(repro.obs.__file__)
        payload = self._payload(capsys, ["lint", target])
        assert payload["status"] == "ok"

    def test_report(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert execute(VerifyRequest(n=2), trace=str(trace)).ok
        payload = self._payload(capsys, ["report", str(trace)])
        assert payload["data"]["records"] > 0

    def test_text_and_json_agree_on_the_body(self, capsys):
        capsys.readouterr()
        assert main(["check-algorithm2", "--n", "2"]) == 0
        text = capsys.readouterr().out
        payload = self._payload(capsys, ["check-algorithm2", "--n", "2"])
        assert text == "\n".join(payload["body"]) + "\n"
