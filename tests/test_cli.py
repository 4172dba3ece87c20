"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.explorer import Explorer
from repro.cli import build_parser, main
from repro.protocols.tasks import DacDecisionTask

_check_safety = Explorer.check_safety

SRC = Path(repro.__file__).resolve().parent.parent


def _repro(argv, cwd, **extra_env):
    """``python -m repro <argv>`` in a fresh interpreter under ``cwd``."""
    env = dict(os.environ, **extra_env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
    )


class TestOneWayToSetEachThing:
    """Flags are the only way to set a trace, a profile or a store: the
    process environment is never read."""

    def test_environment_is_ignored(self, tmp_path):
        env_paths = {
            "REPRO_TRACE": tmp_path / "env-trace.jsonl",
            "REPRO_CACHE_DIR": tmp_path / "env-cache",
            "REPRO_FUZZ_CORPUS_DIR": tmp_path / "env-corpus",
        }
        work = tmp_path / "work"
        work.mkdir()
        run = _repro(
            ["explore", "--n", "2", "--cache"],
            work,
            REPRO_PROFILE="1",
            **{name: str(path) for name, path in env_paths.items()},
        )
        assert run.returncode == 0, run.stderr
        for path in env_paths.values():
            assert not path.exists(), path
        # The answer went to the default store under the working directory.
        assert list((work / ".repro-cache").glob("*/*.pkl"))

    def test_serve_class_limit_is_a_usage_error(self, tmp_path):
        run = _repro(
            ["serve", "--port", "0", "--class-limit", "fuzz=1"], tmp_path
        )
        assert run.returncode == 2
        assert "unrecognized arguments" in run.stderr


#: (CLI argv, wire payload) pairs that ask the same question. ``{root}``
#: is a fresh directory per side, so each side's cache starts cold.
SAME_REQUEST = {
    "check-algorithm2-cache": (
        ["check-algorithm2", "--n", "2", "--cache", "--cache-dir", "{root}"],
        {"command": "verify", "n": 2,
         "options": {"cache": True, "cache_dir": "{root}"}},
    ),
    "check-algorithm2-symmetry-jobs": (
        ["check-algorithm2", "--n", "2", "--symmetry", "--jobs", "2"],
        {"command": "verify", "n": 2, "symmetry": True,
         "options": {"jobs": 2}},
    ),
    "explore-cache": (
        ["explore", "--n", "2", "--cache", "--cache-dir", "{root}"],
        {"command": "explore", "n": 2,
         "options": {"cache": True, "cache_dir": "{root}"}},
    ),
    "fuzz-algorithm2-max-steps": (
        ["fuzz", "--algorithm2-n", "2", "--seed", "1", "--budget", "30",
         "--max-steps", "32"],
        {"command": "fuzz", "algorithm2_n": 2, "seed": 1, "budget": 30,
         "max_steps": 32},
    ),
    "refute": (
        ["refute", "--candidate", "one 2-SA"],
        {"command": "refute", "candidate": "one 2-SA"},
    ),
    "fuzz-no-shrink-shards": (
        ["fuzz", "--candidate", "one 2-SA", "--seed", "3", "--budget", "40",
         "--shards", "2", "--no-shrink"],
        {"command": "fuzz", "candidate": "one 2-SA", "seed": 3, "budget": 40,
         "shards": 2, "shrink": False},
    ),
    "explore-inputs-budget": (
        ["explore", "--n", "3", "--inputs", "1,0,1",
         "--max-configurations", "100"],
        {"command": "explore", "n": 3, "inputs": [1, 0, 1],
         "max_configurations": 100},
    ),
}


def _rooted(value, root):
    """``value`` with every ``{root}`` string replaced by ``root``."""
    if isinstance(value, dict):
        return {key: _rooted(item, root) for key, item in value.items()}
    if isinstance(value, list):
        return [_rooted(item, root) for item in value]
    return str(root) if value == "{root}" else value


class TestCliMatchesWire:
    """The CLI builds the same typed request the server parses: one
    question gives one report, body, data and metrics alike."""

    @pytest.mark.parametrize("case", sorted(SAME_REQUEST))
    def test_same_report(self, capsys, tmp_path, case):
        from repro.api import execute, request_from_dict

        argv, payload = SAME_REQUEST[case]
        capsys.readouterr()
        code = main(_rooted(argv, tmp_path / "cli") + ["--format", "json"])
        via_cli = json.loads(capsys.readouterr().out)
        wire = request_from_dict(_rooted(payload, tmp_path / "wire"))
        via_wire = json.loads(execute(wire).to_json())
        assert code == via_wire["exit_code"]
        assert via_cli == via_wire


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_commands_parse(self):
        parser = build_parser()
        for argv in (
            ["demo"],
            ["check-algorithm2", "--n", "2"],
            ["refute"],
            ["refute", "--candidate", "queue"],
            ["separation", "--n", "2"],
            ["power"],
            ["list-candidates"],
            ["ledger", "--n", "3"],
            ["fuzz", "--candidate", "queue", "--budget", "50"],
            ["fuzz", "--seed", "7", "--jobs", "2", "--no-shrink"],
        ):
            args = parser.parse_args(argv)
            assert args.command == argv[0]


class TestCommands:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "2-PAC" in out
        assert "no violation" in out

    def test_check_algorithm2(self, capsys):
        assert main(["check-algorithm2", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 4.1 @ n=2" in out
        assert "✓" in out

    def test_power(self, capsys):
        assert main(["power"]) == 0
        out = capsys.readouterr().out
        assert "registers: (=1, =2" in out
        assert "O_2" in out

    def test_list_candidates(self, capsys):
        assert main(["list-candidates"]) == 0
        out = capsys.readouterr().out
        assert "2-SA" in out
        assert "expected: liveness" in out

    def test_refute_single_candidate(self, capsys):
        assert main(["refute", "--candidate", "one 2-SA"]) == 0
        out = capsys.readouterr().out
        assert "violating schedule" in out
        assert "MISMATCH" not in out

    def test_refute_unknown_candidate(self, capsys):
        assert main(["refute", "--candidate", "zzz-no-such"]) == 1

    def test_refute_positive_control(self, capsys):
        assert main(["refute", "--candidate", "2-consensus from queue"]) == 0
        out = capsys.readouterr().out
        assert "correct protocol" in out

    def test_separation(self, capsys):
        assert main(["separation", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "powers agree" in out
        assert "Corollary 6.6" in out

    def test_refute_full_suite(self, capsys):
        assert main(["refute"]) == 0
        out = capsys.readouterr().out
        assert out.count("===") >= 10  # every candidate has a section

    def test_fuzz_doomed_candidate(self, capsys):
        assert (
            main(["fuzz", "--candidate", "one 2-SA", "--seed", "1234"]) == 0
        )
        out = capsys.readouterr().out
        assert "FOUND safety" in out
        assert "strict replay ✓" in out
        assert "shrunk schedule:" in out
        assert "MISMATCH" not in out

    def test_fuzz_positive_control(self, capsys):
        assert (
            main(
                [
                    "fuzz",
                    "--candidate",
                    "2-consensus from queue",
                    "--seed",
                    "1234",
                    "--budget",
                    "100",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "no violation found in 100 fuzzed runs" in out
        assert "FOUND" not in out

    def test_fuzz_unknown_candidate(self, capsys):
        assert main(["fuzz", "--candidate", "zzz-no-such"]) == 1

    def test_fuzz_output_is_seed_reproducible(self, capsys):
        argv = ["fuzz", "--candidate", "one 2-SA", "--seed", "9"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_fuzz_corpus_dir(self, capsys, tmp_path):
        argv = [
            "fuzz",
            "--candidate",
            "2-consensus from queue",
            "--budget",
            "40",
            "--corpus-dir",
            str(tmp_path / "corpus"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "(seeded 0)" in out
        assert any((tmp_path / "corpus").rglob("*.json"))
        # Second run seeds its mutation pool from the persisted corpus.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "(seeded 0)" not in out

    def test_ledger(self, capsys):
        assert main(["ledger", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "--implements-->" in out
        assert "--CANNOT-->" in out
        assert "reproduced ✓" in out
        assert "CONFLICT" not in out


def _json_report(capsys, argv):
    capsys.readouterr()
    code = main(argv + ["--format", "json"])
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


class TestCorollary66Views:
    """``separation`` and ``ledger`` render one ``SeparationReport``."""

    @pytest.mark.parametrize("command", ["separation", "ledger"])
    def test_one_ledger_and_one_walk_per_explorer(
        self, capsys, monkeypatch, explore_calls, explorers_built, command
    ):
        from repro.core import relations

        ledgers = []
        init = relations.Ledger.__init__

        def counting(self):
            ledgers.append(self)
            init(self)

        monkeypatch.setattr(relations.Ledger, "__init__", counting)
        assert main([command, "--n", "2"]) == 0
        assert len(ledgers) == 1
        # 4 evidence explorers plus 4 certified power cells.
        assert len(explorers_built) == 8
        assert len(explore_calls) == 8

    def test_ledger_reports_a_surviving_candidate(
        self, capsys, surviving_candidate
    ):
        code, payload, err = _json_report(capsys, ["ledger", "--n", "2"])
        assert code == 1
        assert payload["status"] == "violation"
        assert payload["summary"] == "Corollary 6.6 at level 2: NOT reproduced"
        assert payload["data"]["reproduced"] is False
        assert all(edge["positive"] for edge in payload["data"]["edges"])
        assert "SpecificationError" not in err and "INVALID" not in err

    def test_separation_names_the_surviving_candidate(
        self, capsys, surviving_candidate
    ):
        code, payload, _err = _json_report(capsys, ["separation", "--n", "2"])
        assert code == 1
        line = f"candidate NOT refuted: {surviving_candidate}"
        assert payload["summary"] == line
        assert payload["body"][-1] == line
        assert payload["findings"] == [
            {
                "kind": "not-refuted",
                "subject": "level 2",
                "detail": line,
                "data": {},
            }
        ]
        assert payload["data"] == {"n": 2}

    def test_separation_power_mismatch(self, capsys, monkeypatch):
        from repro.core import relations

        monkeypatch.setattr(
            relations, "on_prime_power", lambda n: relations.on_power(n + 1)
        )
        code, payload, _err = _json_report(capsys, ["separation", "--n", "2"])
        assert code == 1
        assert len(payload["body"]) == 3
        assert payload["body"][-1] == "POWER MISMATCH"
        assert [f["kind"] for f in payload["findings"]] == ["power-mismatch"]

    def test_uncertified_cell_is_a_power_mismatch(self, capsys, monkeypatch):
        from repro.core import relations
        from repro.core.power_certification import Certification

        def failing_at_level_2(levels, k):
            return Certification(k, levels[k - 1], "broken", certified=k != 2)

        monkeypatch.setattr(relations, "certify_bundle_level", failing_at_level_2)
        code, payload, _err = _json_report(capsys, ["separation", "--n", "2"])
        assert code == 1
        line = "POWER MISMATCH: O'_2 k=2 not certified"
        assert payload["body"][-1] == line
        assert payload["findings"] == [
            {
                "kind": "power-mismatch",
                "subject": "level 2",
                "detail": line,
                "data": {},
            }
        ]
        assert main(["ledger", "--n", "2"]) == 1
        assert "NOT reproduced" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "method, broken",
        [
            # Only the Theorem 4.1 check fails: the power cells run
            # check_safety on k-set agreement tasks and stay certified.
            (
                "check_safety",
                lambda self, task, *a, **k: "witness"
                if isinstance(task, DacDecisionTask)
                else _check_safety(self, task, *a, **k),
            ),
            ("solo_termination", lambda self, *a, **k: False),
        ],
    )
    def test_separation_on_side_failure(
        self, capsys, monkeypatch, method, broken
    ):
        monkeypatch.setattr(Explorer, method, broken)
        code, payload, _err = _json_report(capsys, ["separation", "--n", "2"])
        assert code == 1
        assert payload["body"][-1] == "O_2 FAILED to solve 3-DAC"
        assert [f["kind"] for f in payload["findings"]] == ["safety"]
        assert main(["ledger", "--n", "2"]) == 1
        assert "NOT reproduced" in capsys.readouterr().out


class TestClosedPipe:
    """A reader that goes away before the first write (``| head``)
    ends either console entry point with exit 1 and no traceback."""

    @pytest.mark.parametrize(
        "entry",
        [
            ["-m", "repro", "lint"],
            ["-c", "import sys; from repro.lint.cli import main; sys.exit(main())"],
        ],
        ids=["python-m-repro", "repro-lint"],
    )
    def test_no_traceback(self, tmp_path, entry):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        process = subprocess.Popen(
            [sys.executable, *entry, "--list-rules"],
            cwd=tmp_path,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        process.stdout.close()
        err = process.stderr.read().decode()
        assert process.wait(timeout=120) == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err, err
