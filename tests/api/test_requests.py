"""The typed request model behind :mod:`repro.api`.

Four contracts:

* :func:`~repro.api.execute` runs every request type to its Report,
  metrics snapshot included;
* fingerprints cover the semantic fields and nothing else — every
  :class:`ExecutionOptions` knob is invisible to them (that is what
  lets the server coalesce a pooled run with a serial one), while any
  semantic change readdresses;
* validation happens at construction, as
  :class:`~repro.errors.InvalidRequestError`, before any engine runs;
  ``to_dict``/``request_from_dict`` round-trip losslessly;
* the kernel backend is no option at all: the removed ``REPRO_KERNEL``
  variable is read by no explorer on a request's path, pool workers
  included.
"""

from dataclasses import replace

import pytest

from repro.api import (
    ExecutionOptions,
    ExploreRequest,
    FuzzRequest,
    RefuteRequest,
    VerifyRequest,
    execute,
    request_from_dict,
)
from repro.api.requests import REQUEST_TYPES
from repro.errors import InvalidRequestError
from repro.reports import Report


class TestBehaviour:
    def test_verify_returns_an_ok_report_with_metrics(self):
        report = execute(VerifyRequest(n=2))
        assert isinstance(report, Report)
        assert report.ok
        assert report.metrics["counters"]["verify.instances"] == 4
        assert report.body

    def test_explore_reports_the_graph(self):
        report = execute(ExploreRequest(n=2))
        assert report.ok
        assert report.metrics["counters"]["explorer.explorations"] == 1

    def test_refute_single_candidate(self):
        report = execute(RefuteRequest(candidate="one 2-SA"))
        assert report.ok
        assert report.findings == ()

    def test_fuzz_clean_candidate(self):
        report = execute(
            FuzzRequest(candidate="2-consensus from queue", seed=1, budget=50)
        )
        assert report.ok
        assert report.metrics["counters"]["fuzz.executions"] > 0

    def test_positional_arguments_are_rejected(self):
        # The trace sink is keyword-only: a second positional argument
        # could be mistaken for an option.
        with pytest.raises(TypeError):
            execute(VerifyRequest(n=2), "trace.jsonl")  # type: ignore[misc]


class TestFacadeEquivalence:
    """Each request type renders as its CLI command, and ``execute``
    runs request types only."""

    def test_report_commands_match_cli_names(self):
        assert VerifyRequest.report_command == "check-algorithm2"
        assert RefuteRequest.report_command == "refute"
        assert FuzzRequest.report_command == "fuzz"
        assert ExploreRequest.report_command == "explore"

    def test_execute_rejects_non_requests(self):
        with pytest.raises(InvalidRequestError):
            execute("verify")  # type: ignore[arg-type]


class TestFingerprints:
    def test_equal_semantics_equal_fingerprint(self):
        assert (
            VerifyRequest(n=3).fingerprint()
            == VerifyRequest(n=3).fingerprint()
        )

    def test_options_never_participate(self):
        baseline = VerifyRequest(n=3).fingerprint()
        for options in (
            ExecutionOptions(jobs=4),
            ExecutionOptions(cache=True),
            ExecutionOptions(cache=True, cache_dir="/tmp/elsewhere"),
        ):
            assert (
                VerifyRequest(n=3, options=options).fingerprint()
                == baseline
            ), options

    def test_every_semantic_field_readdresses(self):
        base = FuzzRequest(candidate="x", budget=100, seed=1)
        variants = [
            FuzzRequest(candidate="y", budget=100, seed=1),
            FuzzRequest(candidate="x", budget=101, seed=1),
            FuzzRequest(candidate="x", budget=100, seed=2),
            FuzzRequest(candidate="x", budget=100, seed=1, shards=2),
            FuzzRequest(candidate="x", budget=100, seed=1, shrink=False),
            FuzzRequest(candidate="x", budget=100, seed=1, max_steps=32),
        ]
        fingerprints = {request.fingerprint() for request in variants}
        assert base.fingerprint() not in fingerprints
        assert len(fingerprints) == len(variants)

    def test_commands_never_collide(self):
        # Same field shapes, different verbs -> different addresses.
        assert (
            VerifyRequest(n=2).fingerprint()
            != ExploreRequest(n=2).fingerprint()
        )

    def test_defaulted_explore_inputs_normalize(self):
        from repro.protocols.tasks import DacDecisionTask

        paper = tuple(DacDecisionTask.paper_initial_inputs(3))
        assert (
            ExploreRequest(n=3).fingerprint()
            == ExploreRequest(n=3, inputs=paper).fingerprint()
        )
        assert ExploreRequest(n=3).inputs == paper

    def test_explore_inputs_as_list_or_tuple_agree(self):
        assert (
            ExploreRequest(n=2, inputs=[1, 0]).fingerprint()
            == ExploreRequest(n=2, inputs=(1, 0)).fingerprint()
        )


class TestValidation:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: VerifyRequest(n=0),
            lambda: VerifyRequest(n="3"),
            lambda: VerifyRequest(n=True),
            lambda: VerifyRequest(n=2, symmetry="yes"),
            lambda: FuzzRequest(budget=0),
            lambda: FuzzRequest(seed="abc"),
            lambda: FuzzRequest(shards=0),
            lambda: FuzzRequest(max_steps=0),
            lambda: ExploreRequest(n=2, inputs=(1, 0, 0)),
            lambda: ExploreRequest(n=2, inputs="10"),
            lambda: ExploreRequest(max_configurations=0),
            lambda: ExecutionOptions(jobs=0),
            # The removed kernel/table/thread knobs are unknown keys.
            lambda: ExecutionOptions.from_dict({"kernel": "python"}),
            lambda: ExecutionOptions.from_dict({"kernel_tables": "on"}),
            lambda: ExecutionOptions.from_dict({"kernel_threads": 2}),
            lambda: ExecutionOptions(cache="yes"),
            # The trace sink is execute's argument, not an option.
            lambda: ExecutionOptions.from_dict({"trace": "t.jsonl"}),
        ],
    )
    def test_bad_fields_raise_before_any_engine(self, build):
        with pytest.raises(InvalidRequestError):
            build()

    def test_frozen(self):
        request = VerifyRequest(n=2)
        with pytest.raises(Exception):
            request.n = 3  # type: ignore[misc]


class TestWireFormat:
    @pytest.mark.parametrize(
        "request_",
        [
            VerifyRequest(n=2, symmetry=True),
            RefuteRequest(candidate="one 2-SA"),
            FuzzRequest(candidate="x", budget=50, seed=7, shards=2),
            ExploreRequest(n=2, inputs=(1, 0), max_configurations=1000),
            VerifyRequest(
                n=2, options=ExecutionOptions(jobs=2, cache=True)
            ),
        ],
    )
    def test_round_trip_is_lossless(self, request_):
        rebuilt = request_from_dict(request_.to_dict())
        assert rebuilt == request_
        assert rebuilt.fingerprint() == request_.fingerprint()

    def test_unknown_command_rejected(self):
        with pytest.raises(InvalidRequestError):
            request_from_dict({"command": "conquer"})
        with pytest.raises(InvalidRequestError):
            request_from_dict({"n": 2})

    def test_unknown_fields_rejected(self):
        with pytest.raises(InvalidRequestError):
            request_from_dict({"command": "verify", "m": 2})
        with pytest.raises(InvalidRequestError):
            request_from_dict(
                {"command": "verify", "options": {"threads": 2}}
            )

    def test_dispatch_table_is_total(self):
        assert sorted(REQUEST_TYPES) == [
            "explore",
            "fuzz",
            "refute",
            "verify",
        ]
        for command, cls in REQUEST_TYPES.items():
            assert cls.command == command

    def test_with_options_keeps_the_answer(self):
        request = VerifyRequest(n=2)
        pooled = replace(request, options=ExecutionOptions(jobs=3))
        assert pooled.options.jobs == 3
        assert pooled.fingerprint() == request.fingerprint()
        assert pooled.semantic_fields() == request.semantic_fields()


_SERIAL = ExecutionOptions()
_POOLED = ExecutionOptions(jobs=2)


class TestOptionsLeaveTheData:
    """Options are not part of the fingerprint, so a coalesced or
    warm-cached answer may come from a run with other options: the
    report's ``data`` must not depend on them."""

    @pytest.mark.parametrize(
        "request_",
        [
            VerifyRequest(n=2),
            RefuteRequest(candidate="one 2-SA"),
            FuzzRequest(candidate="one 2-SA", budget=60, seed=1),
            ExploreRequest(n=2),
        ],
        ids=lambda request_: request_.command,
    )
    def test_jobs_is_not_echoed(self, request_):
        serial = execute(request_)
        pooled = execute(replace(request_, options=_POOLED))
        assert serial.status == "ok", serial.summary
        assert pooled.data == serial.data


class TestExplicitKernel:
    """Only the build picks the kernel. ``REPRO_KERNEL`` is gone, so a
    bogus value must not reach any explorer on a request's path —
    forked pool workers included, which inherit the environment."""

    @pytest.mark.parametrize(
        "request_",
        [
            VerifyRequest(n=2, options=_SERIAL),
            VerifyRequest(n=2, options=_POOLED),
            RefuteRequest(candidate="one 2-SA", options=_SERIAL),
            RefuteRequest(options=_POOLED),
            FuzzRequest(candidate="one 2-SA", budget=60, seed=1, options=_SERIAL),
            FuzzRequest(
                candidate="one 2-SA", budget=60, seed=1, options=_POOLED
            ),
            ExploreRequest(n=2, options=_SERIAL),
        ],
        ids=lambda request_: f"{request_.command}-jobs{request_.options.jobs}",
    )
    def test_bogus_environment_is_never_consulted(self, monkeypatch, request_):
        monkeypatch.setenv("REPRO_KERNEL", "bogus")
        report = execute(request_)
        assert report.status == "ok", report.summary
        monkeypatch.delenv("REPRO_KERNEL")
        assert report.body == execute(request_).body
