"""A small blocking client for ``repro serve`` (stdlib ``http.client``).

The counterpart the CLI, the smoke harness, and tests use to talk to a
running server without pulling in any HTTP dependency. One persistent
keep-alive connection per client; thread-unsafe by design (one client
per thread, like ``http.client`` itself).
"""

from __future__ import annotations

import http.client
import json
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

__all__ = ["ServeClient", "ServeResponse"]


class ServeResponse:
    """One decoded server answer: status, headers, parsed JSON."""

    def __init__(
        self,
        status: int,
        headers: Mapping[str, str],
        payload: Any,
    ) -> None:
        self.status = status
        self.headers = dict(headers)
        self.payload = payload

    @property
    def job_id(self) -> Optional[str]:
        return self.headers.get("X-Repro-Job")

    @property
    def disposition(self) -> Optional[str]:
        return self.headers.get("X-Repro-Disposition")

    @property
    def fingerprint(self) -> Optional[str]:
        return self.headers.get("X-Repro-Fingerprint")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ServeResponse(status={self.status}, job={self.job_id})"


class ServeClient:
    """Blocking JSON client over one keep-alive connection."""

    def __init__(self, host: str, port: int, timeout: float = 300.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._connection: Optional[http.client.HTTPConnection] = None

    # -- the four phases -------------------------------------------------

    def verify(self, *, wait: bool = True, **fields: Any) -> ServeResponse:
        return self.submit("verify", wait=wait, **fields)

    def refute(self, *, wait: bool = True, **fields: Any) -> ServeResponse:
        return self.submit("refute", wait=wait, **fields)

    def fuzz(self, *, wait: bool = True, **fields: Any) -> ServeResponse:
        return self.submit("fuzz", wait=wait, **fields)

    def explore(self, *, wait: bool = True, **fields: Any) -> ServeResponse:
        return self.submit("explore", wait=wait, **fields)

    def submit(
        self, command: str, *, wait: bool = True, **fields: Any
    ) -> ServeResponse:
        """POST one request to its phase endpoint."""
        suffix = "" if wait else "?wait=0"
        return self.request(
            "POST", f"/v1/{command}{suffix}", body=dict(fields)
        )

    # -- jobs ------------------------------------------------------------

    def job(self, job_id: str) -> ServeResponse:
        return self.request("GET", f"/v1/jobs/{job_id}")

    def events(self, job_id: str) -> Iterator[Dict[str, Any]]:
        """Stream a job's trace events; yields parsed JSON dicts.

        Uses a dedicated connection because the server closes the
        streaming connection at end-of-stream.
        """
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request("GET", f"/v1/jobs/{job_id}/events")
            response = connection.getresponse()
            if response.status != 200:
                raise RuntimeError(
                    f"event stream for {job_id!r}: HTTP {response.status}"
                )
            # http.client undoes the chunked framing; what remains is
            # NDJSON, one event per line.
            buffer = b""
            while True:
                chunk = response.read(4096)
                if not chunk:
                    break
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    line = line.strip()
                    if line:
                        yield json.loads(line.decode("utf-8"))
        finally:
            connection.close()

    def metrics(self) -> Dict[str, Any]:
        return self.request("GET", "/v1/metrics").payload

    def healthz(self) -> Dict[str, Any]:
        return self.request("GET", "/v1/healthz").payload

    # -- plumbing --------------------------------------------------------

    def request(
        self,
        method: str,
        path: str,
        body: Optional[Mapping[str, Any]] = None,
    ) -> ServeResponse:
        status, headers, raw = self._roundtrip(method, path, body)
        payload = json.loads(raw.decode("utf-8")) if raw else None
        return ServeResponse(status, headers, payload)

    def _roundtrip(
        self,
        method: str,
        path: str,
        body: Optional[Mapping[str, Any]],
    ) -> Tuple[int, Dict[str, str], bytes]:
        encoded = (
            json.dumps(body).encode("utf-8") if body is not None else None
        )
        headers = {"Content-Type": "application/json"} if encoded else {}
        for attempt in (0, 1):
            connection = self._connect()
            try:
                connection.request(method, path, body=encoded, headers=headers)
                response = connection.getresponse()
                raw = response.read()
                return (
                    response.status,
                    {name: value for name, value in response.getheaders()},
                    raw,
                )
            except (
                http.client.HTTPException,
                ConnectionError,
                BrokenPipeError,
            ):
                # A stale keep-alive connection; reconnect once.
                self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")

    def _connect(self) -> http.client.HTTPConnection:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._connection

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
