"""Two-phase engine tests: determinism, cache granularity, visibility.

These pin the tentpole contracts of the project-wide pass:

* findings are byte-identical across ``--jobs 1/2`` and across
  cold/warm cache runs (same guarantee the explore/fuzz pipelines
  give);
* a warm re-lint re-indexes only the files whose bytes changed;
* each R10x fixture violation is invisible to the per-file rules and
  caught by the interprocedural pass, with a witness chain naming the
  laundering helper;
* line suppressions on a seed sanction the whole family (R001 noqa
  stops R101 taint downstream);
* SARIF output is well-formed and rides the unified CLI envelope.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro import cli as repro_cli
from repro.lint import ProjectRule, Rule, lint_paths, render_sarif

FIXTURES = Path(__file__).parent / "fixtures"
PROJECT = FIXTURES / "project"

PER_FILE_RULES = ["R001", "R002", "R003", "R004", "R005", "R006"]


class TestByteIdentity:
    def test_jobs_1_vs_2_identical(self):
        one = lint_paths([FIXTURES], jobs=1)
        two = lint_paths([FIXTURES], jobs=2)
        assert one.to_json() == two.to_json()

    def test_cold_vs_warm_cache_identical(self, tmp_path):
        cache = str(tmp_path / "cache")
        cold = lint_paths([FIXTURES], cache_dir=cache)
        warm = lint_paths([FIXTURES], cache_dir=cache)
        assert cold.to_json() == warm.to_json()
        assert warm.files_reindexed == 0
        assert warm.cache_hits == warm.files_checked

    def test_sarif_identical_across_jobs(self):
        one = render_sarif(lint_paths([PROJECT], jobs=1))
        two = render_sarif(lint_paths([PROJECT], jobs=2))
        assert one == two


class TestCacheGranularity:
    def test_warm_relint_reindexes_only_touched_files(self, tmp_path):
        tree = tmp_path / "tree"
        shutil.copytree(PROJECT, tree)
        cache = str(tmp_path / "cache")
        cold = lint_paths([tree], cache_dir=cache)
        assert cold.files_reindexed == cold.files_checked
        assert cold.cache_hits == 0

        target = tree / "protocols" / "r102_clean.py"
        target.write_text(target.read_text() + "\n# trailing comment\n")
        warm = lint_paths([tree], cache_dir=cache)
        assert warm.files_reindexed == 1
        assert warm.cache_hits == warm.files_checked - 1
        # A comment-only change keeps the verdicts themselves stable.
        assert [f.as_dict() for f in warm.findings] == [
            f.as_dict() for f in cold.findings
        ]


class TestInterproceduralVisibility:
    """The acceptance criterion: every R10x violation is flagged by the
    project pass and provably invisible to the per-file rules."""

    def test_per_file_pass_sees_nothing(self):
        report = lint_paths([PROJECT], select=PER_FILE_RULES)
        assert report.findings == []

    @pytest.mark.parametrize("rule_id", ["R101", "R102", "R104", "R108"])
    def test_project_pass_catches_it(self, rule_id):
        report = lint_paths([PROJECT])
        assert rule_id in {f.rule_id for f in report.findings}

    def test_witness_chain_names_the_laundering_helper(self):
        report = lint_paths([PROJECT])
        two_hop = [
            f
            for f in report.findings
            if f.rule_id == "R102" and f.line == 28
        ]
        assert len(two_hop) == 1
        assert "note_round" in two_hop[0].message
        assert "log_step" in two_hop[0].message

    def test_cross_module_taint_names_the_seed_file(self):
        report = lint_paths([PROJECT])
        taints = [f for f in report.findings if f.rule_id == "R101"]
        assert taints
        for finding in taints:
            assert "time.time()" in finding.message
            assert "r101_helpers.py" in finding.message

    def test_project_rule_is_exported(self):
        assert issubclass(ProjectRule, Rule)


class TestSuppressionFamilies:
    def _write_pair(self, tmp_path, noqa):
        helper_dir = tmp_path / "runtime"
        helper_dir.mkdir()
        (helper_dir / "family_helpers.py").write_text(
            "import time\n"
            "\n"
            "\n"
            "def stamp():\n"
            f"    return time.time(){noqa}\n"
        )
        caller_dir = tmp_path / "analysis"
        caller_dir.mkdir()
        (caller_dir / "family_caller.py").write_text(
            "from family_helpers import stamp\n"
            "\n"
            "\n"
            "def key(pid):\n"
            "    return (stamp(), pid)\n"
        )

    def test_unsanctioned_seed_taints_callers(self, tmp_path):
        self._write_pair(tmp_path, noqa="")
        report = lint_paths([tmp_path])
        assert {f.rule_id for f in report.findings} == {"R001", "R101"}

    def test_sanctioned_seed_does_not_taint_callers(self, tmp_path):
        # One justified noqa on the seed line silences the per-file
        # R001 *and* keeps the value out of the R101 fixpoint.
        self._write_pair(tmp_path, noqa="  # repro: noqa[R001] sanctioned")
        report = lint_paths([tmp_path])
        assert report.findings == []
        assert [f.rule_id for f in report.suppressed] == ["R001"]


class TestUnusedSuppressionRule:
    def test_bare_noqa_cannot_hide_its_own_unusedness(self, tmp_path):
        module = tmp_path / "runtime" / "mod.py"
        module.parent.mkdir()
        module.write_text("def f():\n    return 1  # repro: noqa\n")
        report = lint_paths([module])
        assert [f.rule_id for f in report.findings] == ["R007"]

    def test_explicit_r007_noqa_is_honored(self, tmp_path):
        module = tmp_path / "runtime" / "mod.py"
        module.parent.mkdir()
        module.write_text(
            "def f():\n    return 1  # repro: noqa[R007] keep this one\n"
        )
        report = lint_paths([module])
        assert report.findings == []
        assert [f.rule_id for f in report.suppressed] == ["R007"]

    def test_docstring_mention_is_not_a_suppression(self, tmp_path):
        module = tmp_path / "runtime" / "mod.py"
        module.parent.mkdir()
        module.write_text(
            '"""Docs may discuss ``# repro: noqa[R001]`` freely."""\n'
            "\n"
            "\n"
            "def f():\n"
            "    return 1\n"
        )
        report = lint_paths([module])
        assert report.findings == []


class TestSarif:
    def test_document_shape(self):
        report = lint_paths([PROJECT])
        document = json.loads(render_sarif(report))
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        rule_ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
        assert rule_ids == sorted(rule_ids)
        assert len(run["results"]) == len(report.findings)
        for result in run["results"]:
            assert result["ruleId"] in rule_ids
            location = result["locations"][0]["physicalLocation"]
            assert location["region"]["startLine"] >= 1
            assert location["artifactLocation"]["uri"]

    def test_cli_sarif_format_prints_raw_document(self, capsys):
        code = repro_cli.main(["lint", "--format", "sarif", str(PROJECT)])
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == "2.1.0"
        assert document["runs"][0]["results"]


class TestCliKnobs:
    def test_jobs_and_cache_flags_accepted(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        args = [
            "lint",
            "--jobs",
            "2",
            "--cache-dir",
            cache,
            "--format",
            "json",
            str(PROJECT),
        ]
        code_cold = repro_cli.main(args)
        out_cold = capsys.readouterr().out
        code_warm = repro_cli.main(args)
        out_warm = capsys.readouterr().out
        assert code_cold == code_warm == 1
        cold = json.loads(out_cold)
        warm = json.loads(out_warm)
        assert cold["data"] == warm["data"]
