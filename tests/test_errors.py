"""Tests for the exception hierarchy."""

import json

import pytest

from repro.errors import (
    AnalysisError,
    ExplorationBudgetExceeded,
    InvalidOperationError,
    NotLinearizableError,
    ProtocolError,
    ReproError,
    SchedulingError,
    SpecificationError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc_type",
        [
            SpecificationError,
            InvalidOperationError,
            ProtocolError,
            SchedulingError,
            AnalysisError,
            ExplorationBudgetExceeded,
            NotLinearizableError,
        ],
    )
    def test_everything_is_a_repro_error(self, exc_type):
        assert issubclass(exc_type, ReproError)

    def test_budget_is_an_analysis_error(self):
        assert issubclass(ExplorationBudgetExceeded, AnalysisError)

    def test_not_linearizable_is_an_analysis_error(self):
        assert issubclass(NotLinearizableError, AnalysisError)

    def test_one_except_clause_catches_all(self):
        try:
            raise InvalidOperationError("bad op")
        except ReproError as caught:
            assert "bad op" in str(caught)

    def test_library_raises_only_its_own_family(self):
        """Spot check: a representative misuse from each layer raises a
        ReproError subtype, never a bare Exception."""
        from repro.core.pac import NPacSpec
        from repro.objects.register import RegisterSpec
        from repro.runtime.system import System
        from repro.types import op

        with pytest.raises(ReproError):
            NPacSpec(0)
        with pytest.raises(ReproError):
            RegisterSpec().responses(0, op("nope"))
        with pytest.raises(ReproError):
            System({}, []).step(0)


class TestTaxonomy:
    """One table, three consumers: codes, HTTP statuses, exit codes."""

    def test_table_is_closed_and_alphabetical(self):
        from repro.errors import ERROR_CODES, ERROR_TABLE

        codes = [entry.code for entry in ERROR_TABLE]
        assert codes == sorted(codes)
        assert set(ERROR_CODES) == set(codes)
        assert "INTERNAL" in codes  # the total-function fallback

    def test_exit_codes_and_statuses_are_distinct(self):
        from repro.errors import ERROR_TABLE

        exit_codes = [entry.exit_code for entry in ERROR_TABLE]
        assert len(set(exit_codes)) == len(exit_codes)
        assert all(entry.http_status >= 400 for entry in ERROR_TABLE)

    @pytest.mark.parametrize(
        "exc, code",
        [
            (lambda: __import__("repro").errors.InvalidRequestError("x"), "INVALID_REQUEST"),
            (lambda: SpecificationError("x"), "INVALID_REQUEST"),
            (lambda: InvalidOperationError("x"), "INVALID_REQUEST"),
            (lambda: ExplorationBudgetExceeded("x"), "BUDGET_EXCEEDED"),
            (lambda: __import__("repro").errors.CacheIntegrityError("x"), "CACHE_INTEGRITY"),
            (lambda: __import__("repro").errors.KernelUnavailableError("x"), "KERNEL_UNAVAILABLE"),
            (lambda: __import__("repro").errors.ReplayDivergenceError("x"), "REPLAY_DIVERGENCE"),
            (lambda: __import__("repro").errors.ServerOverloadedError("x"), "OVERLOADED"),
            (lambda: ProtocolError("x"), "INTERNAL"),
            (lambda: ValueError("not even ours"), "INTERNAL"),
        ],
    )
    def test_classification_is_total(self, exc, code):
        from repro.errors import classify_error

        assert classify_error(exc()) == code

    def test_status_and_exit_lookups_default_safely(self):
        from repro.errors import exit_code_for, http_status_for

        assert http_status_for("INVALID_REQUEST") == 400
        assert exit_code_for("INVALID_REQUEST") == 2
        assert http_status_for("NOT_A_CODE") == 500
        assert exit_code_for("NOT_A_CODE") == 1


class TestErrorReport:
    def test_envelope_carries_the_code_in_both_places(self):
        from repro.errors import InvalidRequestError, error_report

        report = error_report("verify", InvalidRequestError("n must be >= 1"))
        assert report.status == "error"
        assert report.exit_code == 2
        assert report.data["error_code"] == "INVALID_REQUEST"
        finding = report.findings[0]
        assert finding.kind == "error"
        assert finding.subject == "INVALID_REQUEST"
        assert finding.data["exception"] == "InvalidRequestError"
        assert "n must be >= 1" in report.summary

    def test_detail_overrides_the_message(self):
        from repro.errors import error_report

        report = error_report("fuzz", ValueError("raw"), detail="redacted")
        assert "redacted" in report.summary
        assert "raw" not in report.summary

    def test_round_trips_through_report_json(self):
        from repro.errors import ServerOverloadedError, error_report
        from repro.reports import Report

        report = error_report("serve", ServerOverloadedError("queue full"))
        rebuilt = Report.from_dict(json.loads(report.to_json()))
        assert rebuilt.data["error_code"] == "OVERLOADED"
        assert rebuilt.exit_code == 7


class TestCliExitCodes:
    def test_invalid_request_exits_2_via_main(self, capsys):
        from repro.cli import main

        exit_code = main(["check-algorithm2", "--n", "-2"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "INVALID_REQUEST" in captured.out

    @pytest.mark.parametrize(
        "inputs, detail",
        [
            ("1,0", "inputs must have length n=3, got 2"),
            ("1,0,x", "inputs must be comma-separated integers, got '1,0,x'"),
        ],
    )
    def test_bad_explore_inputs_exit_2(self, capsys, inputs, detail):
        import json

        from repro.cli import main

        argv = ["explore", "--n", "3", "--inputs", inputs]
        assert main(argv) == 2
        assert capsys.readouterr().out == f"INVALID_REQUEST: {detail}\n"
        assert main(argv + ["--format", "json"]) == 2
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["exit_code"] == 2
        assert envelope["status"] == "error"
        assert envelope["data"]["error_code"] == "INVALID_REQUEST"
        assert envelope["findings"][0]["detail"] == detail

    @pytest.mark.parametrize(
        "flag",
        [
            ["explore", "--n", "2", "--kernel-tables", "on"],
            ["explore", "--n", "2", "--kernel-threads", "2"],
            ["check-algorithm2", "--n", "2", "--kernel", "python"],
            ["refute", "--kernel", "python"],
            ["fuzz", "--budget", "1", "--kernel", "python"],
            ["explore", "--n", "2", "--kernel", "python"],
            ["serve", "--mode", "thread"],
            ["check-algorithm2", "--n", "2", "--no-cache"],
            ["explore", "--n", "2", "--no-cache"],
            ["cache", "stats", "--dir", ".repro-cache"],
        ],
    )
    def test_removed_kernel_flags_are_usage_errors(self, capsys, flag):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(flag)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
