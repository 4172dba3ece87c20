"""``repro report`` round-trip: trace file → summary → text / json."""

import json

from repro.api import VerifyRequest, execute
from repro.cli import main
from repro.obs.report import (
    render_text,
    summarize,
    summarize_file,
)
from repro.obs.schema import load_trace


def _write_trace(tmp_path):
    path = tmp_path / "verify.jsonl"
    report = execute(VerifyRequest(n=2), trace=str(path))
    assert report.ok
    return str(path)


class TestSummarize:
    def test_summary_aggregates_the_validated_trace(self, tmp_path):
        path = _write_trace(tmp_path)
        records = load_trace(path)
        summary = summarize_file(path)
        assert summary == summarize(records)
        assert summary["records"] == len(records)
        assert summary["meta"]["command"] == "check-algorithm2"
        assert summary["spans"]["pool.run"]["count"] == 1
        assert summary["events"]["pool.item"] == 4
        # the final metrics snapshot rides inside the trace
        assert summary["metrics"]["counters"]["verify.instances"] == 4
        assert summary["profiles"] == []

    def test_render_text_lists_spans_events_and_metrics(self, tmp_path):
        summary = summarize_file(_write_trace(tmp_path))
        text = render_text(summary)
        assert text.startswith("trace: schema=")
        assert "command=check-algorithm2" in text
        assert "spans (by total time):" in text
        assert "pool.run" in text
        assert "events:" in text
        assert "explorer.frontier" in text
        assert "counter   verify.instances" in text


class TestReportCommand:
    def test_text_rendering(self, tmp_path, capsys):
        path = _write_trace(tmp_path)
        capsys.readouterr()
        assert main(["report", path]) == 0
        out = capsys.readouterr().out
        assert "trace: schema=" in out
        assert "pool.run" in out

    def test_json_rendering_embeds_the_summary(self, tmp_path, capsys):
        path = _write_trace(tmp_path)
        capsys.readouterr()
        assert main(["report", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "report"
        assert payload["status"] == "ok"
        assert payload["data"]["metrics"]["counters"]["verify.instances"] == 4

    def test_invalid_trace_is_an_error_report(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "wormhole", "seq": 0}\n')
        assert main(["report", str(bad)]) != 0
        out = capsys.readouterr().out
        assert "wormhole" in out
