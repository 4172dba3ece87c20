"""Golden trace-schema test.

Two contracts: every trace a real run writes must validate against
:mod:`repro.obs.schema`, and two traces of the same run must be
identical after :func:`strip_volatile` — wall time is the *only*
nondeterminism a trace may contain.
"""

import pytest

from repro.api import VerifyRequest, execute
from repro.obs.schema import (
    RECORD_FIELDS,
    VOLATILE_FIELDS,
    TraceSchemaError,
    load_trace,
    validate_record,
    validate_trace,
)


def strip_volatile(record):
    """A copy of ``record`` without wall-time fields (for comparison)."""
    clean = {
        key: value
        for key, value in record.items()
        if key not in VOLATILE_FIELDS
    }
    attrs = clean.get("attrs")
    if isinstance(attrs, dict):
        clean["attrs"] = {
            key: value
            for key, value in attrs.items()
            if key not in VOLATILE_FIELDS
        }
    return clean


def _verify_trace(tmp_path, name):
    path = tmp_path / name
    report = execute(VerifyRequest(n=2), trace=str(path))
    assert report.ok
    return load_trace(str(path))


class TestGoldenTrace:
    def test_real_trace_validates_and_has_the_expected_spine(self, tmp_path):
        records = _verify_trace(tmp_path, "golden.jsonl")
        assert records[0]["type"] == "meta"
        assert records[0]["command"] == "check-algorithm2"
        assert records[-1]["type"] == "end"
        assert records[-1]["records"] == len(records)
        assert [r["seq"] for r in records] == list(range(len(records)))
        kinds = {record["type"] for record in records}
        assert {"meta", "span", "event", "metrics", "end"} <= kinds
        span_names = {r["name"] for r in records if r["type"] == "span"}
        assert {"verify", "pool.run"} <= span_names
        event_names = {r["name"] for r in records if r["type"] == "event"}
        assert {"explorer.frontier", "pool.item"} <= event_names

    def test_traces_are_deterministic_modulo_volatile_fields(self, tmp_path):
        first = _verify_trace(tmp_path, "first.jsonl")
        second = _verify_trace(tmp_path, "second.jsonl")
        stripped_first = [strip_volatile(record) for record in first]
        stripped_second = [strip_volatile(record) for record in second]
        assert stripped_first == stripped_second
        # and the stripping was load-bearing: raw traces differ in time
        assert first != second

    def test_strip_volatile_reaches_into_attrs(self):
        record = {
            "type": "event",
            "seq": 3,
            "name": "pool.item",
            "parent": 1,
            "t_s": 0.5,
            "attrs": {"key": "(0, 1)", "exec_s": 0.25, "ok": True},
        }
        clean = strip_volatile(record)
        assert "t_s" not in clean
        assert clean["attrs"] == {"key": "(0, 1)", "ok": True}
        # the original is untouched
        assert record["t_s"] == 0.5
        assert record["attrs"]["exec_s"] == 0.25

    def test_volatile_fields_are_exactly_the_wall_time_ones(self):
        assert VOLATILE_FIELDS == frozenset({"t_s", "dur_s", "exec_s"})


class TestRecordValidation:
    def test_every_declared_type_is_constructible(self):
        # minimal valid record per type, straight from RECORD_FIELDS
        fillers = {
            "schema": 1,
            "repro_version": "0",
            "pid": 1,
            "name": "x",
            "id": 1,
            "parent": 0,
            "t_s": 0.0,
            "dur_s": 0.0,
            "attrs": {},
            "phase": "x",
            "top": [],
            "snapshot": {},
            "records": 1,
        }
        for kind, (required, _optional) in RECORD_FIELDS.items():
            record = {"type": kind, "seq": 0}
            record.update({field: fillers[field] for field in required})
            validate_record(record)

    @pytest.mark.parametrize(
        "record",
        [
            "not a dict",
            {"type": "wormhole", "seq": 0},
            {"type": "event", "name": "x", "parent": 0, "t_s": 0, "attrs": {}},
            {"type": "event", "seq": 0, "name": "x"},
            {
                "type": "end",
                "seq": 0,
                "records": 1,
                "surprise": True,
            },
            {
                "type": "meta",
                "seq": 0,
                "schema": 999,
                "repro_version": "0",
                "pid": 1,
            },
        ],
        ids=[
            "not-an-object",
            "unknown-type",
            "missing-seq",
            "missing-required-fields",
            "unknown-field",
            "unsupported-schema",
        ],
    )
    def test_malformed_records_are_rejected(self, record):
        with pytest.raises(TraceSchemaError):
            validate_record(record)


class TestTraceValidation:
    def _minimal(self):
        return [
            {
                "type": "meta",
                "seq": 0,
                "schema": 1,
                "repro_version": "0",
                "pid": 1,
            },
            {"type": "end", "seq": 1, "records": 2},
        ]

    def test_minimal_trace_is_valid(self):
        validate_trace(self._minimal())

    def test_empty_trace_is_rejected(self):
        with pytest.raises(TraceSchemaError, match="empty"):
            validate_trace([])

    def test_first_record_must_be_meta(self):
        records = self._minimal()[::-1]
        records[0]["seq"], records[1]["seq"] = 0, 1
        with pytest.raises(TraceSchemaError):
            validate_trace(records)

    def test_last_record_must_be_end(self):
        records = self._minimal()
        records.append(
            {
                "type": "event",
                "seq": 2,
                "name": "late",
                "parent": 0,
                "t_s": 0.0,
                "attrs": {},
            }
        )
        with pytest.raises(TraceSchemaError):
            validate_trace(records)

    def test_seq_must_be_contiguous(self):
        records = self._minimal()
        records[1]["seq"] = 5
        with pytest.raises(TraceSchemaError, match="seq"):
            validate_trace(records)

    def test_end_count_must_match(self):
        records = self._minimal()
        records[1]["records"] = 7
        with pytest.raises(TraceSchemaError, match="counts"):
            validate_trace(records)
