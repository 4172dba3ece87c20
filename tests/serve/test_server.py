"""End-to-end: a live server, real sockets, the full protocol.

One :class:`BackgroundServer` per test class (module-scoped fixtures
keep the suite fast); engine work runs in the server's process pool,
as deployed. The serve-smoke CI job runs the heavier
:mod:`repro.serve.smoke` harness; these tests pin the protocol
details — statuses, headers, envelopes, streaming framing.
"""

import json

import pytest

from repro.api import VerifyRequest, execute
from repro.serve import ServeClient, ServerConfig
from repro.serve.testing import BackgroundServer


@pytest.fixture(scope="module")
def server():
    config = ServerConfig(port=0, result_cache_size=32)
    with BackgroundServer(config) as handle:
        yield handle


@pytest.fixture()
def client(server):
    with server.client as handle:
        yield handle


class TestPhaseEndpoints:
    def test_verify_report_matches_direct_api_call(self, client):
        response = client.verify(n=2)
        assert response.status == 200
        direct = execute(VerifyRequest(n=2))
        assert response.payload["body"] == list(direct.body)
        assert response.payload["summary"] == direct.summary
        assert response.payload["schema"] == 1

    def test_repeat_is_cached_and_byte_identical(self, client):
        first = client.explore(n=2)
        second = client.explore(n=2)
        assert second.disposition == "cached"
        assert second.payload["body"] == first.payload["body"]

    def test_submission_headers(self, client):
        response = client.verify(n=2, symmetry=True)
        assert response.job_id.startswith("job-")
        assert response.disposition in ("new", "coalesced", "cached")
        assert len(response.fingerprint) == 64

    def test_violationless_refute_is_http_200(self, client):
        response = client.refute(candidate="one 2-SA")
        assert response.status == 200
        assert response.payload["status"] == "ok"


class TestErrorMapping:
    def test_invalid_field_is_400_with_envelope(self, client):
        response = client.verify(n=0)
        assert response.status == 400
        assert response.payload["status"] == "error"
        assert response.payload["data"]["error_code"] == "INVALID_REQUEST"
        assert response.payload["exit_code"] == 2

    def test_unknown_command_is_400(self, client):
        response = client.request(
            "POST", "/v1/jobs", body={"command": "conquer"}
        )
        assert response.status == 400

    def test_non_json_body_is_400(self, server):
        import http.client

        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=30
        )
        try:
            connection.request(
                "POST", "/v1/verify", body=b"not json at all"
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == 400
            assert payload["data"]["error_code"] == "INVALID_REQUEST"
        finally:
            connection.close()

    @pytest.mark.parametrize(
        "options",
        [{"kernel_tables": "on"}, {"kernel_threads": 2}, {"kernel": "python"}],
    )
    def test_removed_kernel_knobs_are_400(self, client, options):
        response = client.verify(n=2, options=options)
        assert response.status == 400
        assert response.payload["data"]["error_code"] == "INVALID_REQUEST"

    @pytest.mark.parametrize(
        "command, fields",
        [
            ("verify", lambda root: {"options": {"trace": f"{root}/t.jsonl"}}),
            (
                "explore",
                lambda root: {"options": {"cache": True, "cache_dir": str(root)}},
            ),
            ("fuzz", lambda root: {"budget": 20, "corpus_dir": str(root)}),
        ],
        ids=["trace", "cache_dir", "corpus_dir"],
    )
    def test_client_chosen_path_is_rejected(
        self, client, tmp_path, command, fields
    ):
        # The server owns every file it writes: a trace, an exploration
        # cache (whose entries it would unpickle) or a fuzz corpus at a
        # client-chosen path is refused before any job runs.
        response = client.submit(command, **fields(tmp_path))
        assert response.status == 400
        assert response.payload["data"]["error_code"] == "INVALID_REQUEST"
        assert list(tmp_path.iterdir()) == []

    def test_mismatched_endpoint_command_is_400(self, client):
        response = client.request(
            "POST", "/v1/verify", body={"command": "fuzz"}
        )
        assert response.status == 400

    def test_unknown_paths_are_404(self, client):
        assert client.request("GET", "/v2/anything").status == 404
        assert client.request("GET", "/v1/nonsense").status == 404
        assert client.request("GET", "/v1/jobs/job-999999").status == 404

    def test_wrong_method_is_405(self, client):
        assert client.request("GET", "/v1/verify").status == 405
        assert client.request("POST", "/v1/metrics").status == 405


class TestJobsAndStreaming:
    def test_async_submit_then_poll(self, client):
        response = client.explore(wait=False, n=2, max_configurations=50_000)
        assert response.status == 202
        job_id = response.job_id
        # The job resolves; poll until the report is attached.
        for _ in range(500):
            status = client.job(job_id)
            assert status.status == 200
            if status.payload.get("report"):
                break
        report = status.payload["report"]
        assert report["status"] == "ok"
        assert status.payload["done"] is True

    def test_event_stream_carries_the_trace(self, client):
        response = client.explore(
            wait=False, n=2, max_configurations=60_000
        )
        events = list(client.events(response.job_id))
        types = [event.get("type") for event in events]
        assert "meta" in types
        assert "span" in types
        assert types[-1] == "end"
        # Span/metrics records carry the run's deterministic counters.
        metrics_records = [
            event for event in events if event.get("type") == "metrics"
        ]
        assert metrics_records, "no metrics snapshot in the stream"

    def test_metrics_counters_move(self, server, client):
        before = client.metrics()["counters"]["submitted"]
        client.verify(n=2)
        after = client.metrics()["counters"]["submitted"]
        assert after == before + 1

    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["draining"] is False


class TestColdWarmEquivalence:
    def test_mixed_workload_twice_warm_equals_cold(self, client):
        workload = [
            ("verify", {"n": 2}),
            ("explore", {"n": 2, "max_configurations": 70_000}),
            ("refute", {"candidate": "one 2-SA"}),
        ]
        cold = [
            client.submit(command, **fields).payload["body"]
            for command, fields in workload
        ]
        warm = []
        for command, fields in workload:
            response = client.submit(command, **fields)
            assert response.disposition == "cached", command
            warm.append(response.payload["body"])
        assert warm == cold
