"""Engine-level tests: suppressions, selection, JSON output, CLI wiring."""

import json
from pathlib import Path

import pytest

from repro import cli as repro_cli
from repro.lint import cli as lint_cli, lint_paths
from repro.lint.engine import all_rules

FIXTURES = Path(__file__).parent / "fixtures"


def write_module(tmp_path, body, name="protocols/mod.py"):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(body)
    return path


PROGRAM_WITH_GLOBAL = """\
from repro.runtime.events import Invoke
from repro.types import op

history = []


def program(pid, value, memory):
    global history{noqa}
    yield Invoke("REG", op("read"))
"""


class TestSuppressions:
    def test_bare_noqa_suppresses_all_rules(self, tmp_path):
        path = write_module(
            tmp_path, PROGRAM_WITH_GLOBAL.format(noqa="  # repro: noqa")
        )
        report = lint_paths([path])
        assert report.findings == []
        assert len(report.suppressed) == 1

    def test_rule_scoped_noqa_suppresses_only_that_rule(self, tmp_path):
        path = write_module(
            tmp_path, PROGRAM_WITH_GLOBAL.format(noqa="  # repro: noqa[R002]")
        )
        report = lint_paths([path])
        assert report.findings == []
        assert [f.rule_id for f in report.suppressed] == ["R002"]

    def test_wrong_rule_noqa_leaves_finding_active(self, tmp_path):
        path = write_module(
            tmp_path, PROGRAM_WITH_GLOBAL.format(noqa="  # repro: noqa[R001]")
        )
        report = lint_paths([path])
        # The R002 stays active, and the pointless [R001] suppression
        # is itself reported by R007.
        assert [f.rule_id for f in report.findings] == ["R002", "R007"]

    def test_noqa_on_other_line_does_not_apply(self, tmp_path):
        body = "# repro: noqa\n" + PROGRAM_WITH_GLOBAL.format(noqa="")
        path = write_module(tmp_path, body)
        report = lint_paths([path])
        assert [f.rule_id for f in report.findings] == ["R007", "R002"]


class TestEngine:
    def test_unknown_select_raises(self):
        with pytest.raises(ValueError):
            lint_paths([FIXTURES], select=["R999"])

    def test_select_filters_rules(self):
        report = lint_paths([FIXTURES], select=["R006"])
        assert report.findings
        assert {f.rule_id for f in report.findings} == {"R006"}

    def test_parse_failure_becomes_r000(self, tmp_path):
        path = write_module(tmp_path, "def broken(:\n", name="protocols/bad.py")
        report = lint_paths([path])
        assert [f.rule_id for f in report.findings] == ["R000"]
        assert report.exit_code() == 1

    def test_json_output_shape(self):
        report = lint_paths([FIXTURES / "runtime" / "r006_silent_fallback.py"])
        payload = json.loads(report.to_json())
        assert payload["summary"]["errors"] == 2
        for finding in payload["findings"]:
            assert {"rule", "severity", "file", "line", "message"} <= set(finding)

    def test_all_rules_registered_in_order(self):
        ids = [rule.rule_id for rule in all_rules()]
        assert ids == [
            "R001",
            "R002",
            "R003",
            "R004",
            "R005",
            "R006",
            "R007",
            "R101",
            "R102",
            "R104",
            "R108",
        ]


class TestCli:
    def test_lint_subcommand_fails_on_fixtures(self, capsys):
        code = repro_cli.main(["lint", str(FIXTURES)])
        assert code == 1
        out = capsys.readouterr().out
        assert "R006" in out and "error(s)" in out

    def test_lint_subcommand_passes_on_clean_fixture(self, capsys):
        code = repro_cli.main(["lint", str(FIXTURES / "protocols" / "clean.py")])
        assert code == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_lint_subcommand_json(self, capsys):
        code = repro_cli.main(
            ["lint", "--format", "json", str(FIXTURES / "protocols" / "clean.py")]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        # Unified report envelope: the lint payload rides in "data".
        assert payload["command"] == "lint"
        assert payload["exit_code"] == 0
        assert payload["data"]["summary"]["errors"] == 0

    def test_missing_path_is_usage_error(self, capsys):
        code = repro_cli.main(["lint", "/nonexistent/definitely-missing"])
        assert code == 2

    def test_unknown_select_is_usage_error(self, capsys):
        code = repro_cli.main(["lint", "--select", "R999", str(FIXTURES)])
        assert code == 2

    def test_list_rules(self, capsys):
        code = repro_cli.main(["lint", "--list-rules"])
        assert code == 0
        out = capsys.readouterr().out
        for rule_id in ("R001", "R002", "R003", "R004", "R005", "R006"):
            assert rule_id in out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "target",
        [FIXTURES, FIXTURES / "protocols" / "clean.py"],
        ids=["findings", "clean"],
    )
    def test_repro_lint_script_is_repro_lint(self, capsys, fmt, target):
        argv = ["--format", fmt, str(target)]
        code = repro_cli.main(["lint", *argv])
        out = capsys.readouterr().out
        assert lint_cli.main(argv) == code
        assert capsys.readouterr().out == out
        assert code == (1 if target == FIXTURES else 0)
