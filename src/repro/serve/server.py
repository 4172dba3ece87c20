"""The asyncio HTTP/JSON front end of ``repro serve``.

A deliberately small HTTP/1.1 server on :func:`asyncio.start_server` —
no framework, no dependency — speaking exactly the surface the paper's
verification phases need:

========  ==========================  =====================================
method    path                        meaning
========  ==========================  =====================================
POST      ``/v1/verify``              submit a :class:`VerifyRequest`
POST      ``/v1/refute``              submit a :class:`RefuteRequest`
POST      ``/v1/fuzz``                submit a :class:`FuzzRequest`
POST      ``/v1/explore``             submit an :class:`ExploreRequest`
POST      ``/v1/jobs``                submit any request (``command`` field)
GET       ``/v1/jobs/<id>``           job status (+ the report once done)
GET       ``/v1/jobs/<id>/events``    stream the job's trace as NDJSON
GET       ``/v1/metrics``             coalescing / cache / queue counters
GET       ``/v1/healthz``             liveness and drain state
========  ==========================  =====================================

The phase endpoints wait for the result by default and answer with the
schema-versioned Report JSON — byte-identical to ``Report.to_json()``
of the equivalent :mod:`repro.api` call, which is what the smoke
harness diffs. ``?wait=0`` (and ``POST /v1/jobs`` without ``wait=1``)
returns ``202 Accepted`` with the job descriptor instead. Every
submission response carries ``X-Repro-Job``, ``X-Repro-Disposition``
(``new`` / ``coalesced`` / ``cached``) and ``X-Repro-Fingerprint``.

Failures of any kind answer with an error Report envelope whose HTTP
status comes from the one error-taxonomy table in
:mod:`repro.errors` — the same table behind the CLI's exit codes.

Shutdown is drain-first: SIGINT/SIGTERM stop intake (new submissions
get 429 OVERLOADED), live jobs run to completion, then the loop exits.
"""

from __future__ import annotations

import asyncio
import json
import signal
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..errors import (
    InvalidRequestError,
    classify_error,
    error_report,
    http_status_for,
)
from .jobs import EVENT_STREAM_END, JobManager, encode_json

__all__ = ["ServerConfig", "ReproServer", "run_server"]

#: Commands accepted at the phase endpoints and ``POST /v1/jobs``.
PHASES = ("verify", "refute", "fuzz", "explore")

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Upper bound on accepted request bodies (requests are tiny dicts; a
#: larger body is a client error, not a workload).
MAX_BODY_BYTES = 1 << 20


@dataclass(frozen=True)
class ServerConfig:
    """Deployment knobs for one server instance."""

    host: str = "127.0.0.1"
    port: int = 8642  # 0 = pick a free port (the bound one is reported)
    workers: int = 2
    max_queue: int = 64
    result_cache_size: int = 256
    job_history_size: int = 256
    spool_dir: Optional[str] = None


class ReproServer:
    """One listening socket wired to one :class:`JobManager`."""

    def __init__(self, config: Optional[ServerConfig] = None) -> None:
        self.config = config or ServerConfig()
        self.manager = JobManager(
            workers=self.config.workers,
            max_queue=self.config.max_queue,
            result_cache_size=self.config.result_cache_size,
            job_history_size=self.config.job_history_size,
            spool_dir=self.config.spool_dir,
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self._handler_tasks: set = set()
        self.host = self.config.host
        self.port = self.config.port

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        sockets = self._server.sockets or ()
        if sockets:
            self.host, self.port = sockets[0].getsockname()[:2]

    async def stop(self) -> None:
        """Drain live jobs, then stop listening and release the pool."""
        await self.manager.drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Idle keep-alive connections are parked in readuntil; close
        # their transports so every handler exits before the loop does.
        for writer in list(self._connections):
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass
        if self._handler_tasks:
            await asyncio.gather(
                *list(self._handler_tasks), return_exceptions=True
            )
        await self.manager.close()

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- connection handling ---------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
            task.add_done_callback(self._handler_tasks.discard)
        self._connections.add(writer)
        try:
            while True:
                parsed = await self._read_request(reader)
                if parsed is None:
                    break
                method, path, query, headers, body = parsed
                keep_alive = headers.get("connection", "").lower() != "close"
                keep_alive = (
                    await self._dispatch(
                        writer, method, path, query, body, keep_alive
                    )
                    and keep_alive
                )
                await writer.drain()
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            ConnectionError,
            TimeoutError,
        ):
            pass
        finally:
            self._connections.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], Dict[str, str], bytes]]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # clean close between requests
            raise
        request_line, *header_lines = head.decode(
            "latin-1"
        ).rstrip("\r\n").split("\r\n")
        parts = request_line.split(" ")
        if len(parts) != 3:
            return None
        method, target, _version = parts
        headers: Dict[str, str] = {}
        for line in header_lines:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length < 0 or length > MAX_BODY_BYTES:
            return None
        body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        query = {
            key: values[-1]
            for key, values in parse_qs(split.query).items()
        }
        return method.upper(), split.path, query, headers, body

    # -- dispatch --------------------------------------------------------

    async def _dispatch(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        query: Dict[str, str],
        body: bytes,
        keep_alive: bool,
    ) -> bool:
        """Route one request; returns whether to keep the connection."""
        if path.startswith("/v1/"):
            tail = path[len("/v1/") :]
        else:
            self._send_json(
                writer, 404, {"error": f"unknown path: {path}"}, keep_alive
            )
            return keep_alive

        if tail in PHASES:
            if method != "POST":
                return self._method_not_allowed(writer, keep_alive)
            await self._submit(writer, tail, query, body, keep_alive)
            return keep_alive
        if tail == "jobs":
            if method != "POST":
                return self._method_not_allowed(writer, keep_alive)
            await self._submit(writer, None, query, body, keep_alive)
            return keep_alive
        if tail.startswith("jobs/"):
            if method != "GET":
                return self._method_not_allowed(writer, keep_alive)
            remainder = tail[len("jobs/") :]
            if remainder.endswith("/events"):
                await self._stream_events(
                    writer, remainder[: -len("/events")]
                )
                return False  # the stream ends the connection
            self._job_status(writer, remainder, keep_alive)
            return keep_alive
        if tail == "metrics":
            if method != "GET":
                return self._method_not_allowed(writer, keep_alive)
            self._send_json(writer, 200, self.manager.metrics(), keep_alive)
            return keep_alive
        if tail == "healthz":
            if method != "GET":
                return self._method_not_allowed(writer, keep_alive)
            self._send_json(
                writer,
                200,
                {
                    "status": "ok",
                    "draining": self.manager.metrics()["draining"],
                    "live_jobs": self.manager.live_jobs,
                },
                keep_alive,
            )
            return keep_alive
        self._send_json(
            writer, 404, {"error": f"unknown path: {path}"}, keep_alive
        )
        return keep_alive

    def _method_not_allowed(
        self, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> bool:
        self._send_json(
            writer, 405, {"error": "method not allowed"}, keep_alive
        )
        return keep_alive

    # -- submissions -----------------------------------------------------

    async def _submit(
        self,
        writer: asyncio.StreamWriter,
        command: Optional[str],
        query: Dict[str, str],
        body: bytes,
        keep_alive: bool,
    ) -> None:
        wait_default = command is not None  # phase endpoints block
        wait = _truthy(query.get("wait"), default=wait_default)
        report_command = command or "serve"
        try:
            payload = self._decode_payload(command, body)
            job, disposition = self.manager.submit(payload)
        except Exception as exc:
            self._send_error(writer, report_command, exc, keep_alive)
            return
        headers = {
            "X-Repro-Job": job.id,
            "X-Repro-Disposition": disposition,
            "X-Repro-Fingerprint": job.fingerprint,
        }
        if not wait:
            descriptor = job.describe()
            descriptor["disposition"] = disposition
            self._send_json(
                writer, 202, descriptor, keep_alive, extra_headers=headers
            )
            return
        result = await asyncio.shield(job.future)
        # The job encoded its report once; every waiter writes its bytes.
        self._send_body(
            writer,
            _status_for_result(result),
            job.body,
            keep_alive,
            extra_headers=headers,
        )

    def _decode_payload(
        self, command: Optional[str], body: bytes
    ) -> Dict[str, Any]:
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, ValueError) as exc:
            raise InvalidRequestError(f"request body is not JSON: {exc}")
        if not isinstance(payload, dict):
            raise InvalidRequestError("request body must be a JSON object")
        if command is not None:
            stated = payload.get("command", command)
            if stated != command:
                raise InvalidRequestError(
                    f"command {stated!r} does not match endpoint {command!r}"
                )
            payload["command"] = command
        return payload

    # -- job introspection -----------------------------------------------

    def _job_status(
        self, writer: asyncio.StreamWriter, job_id: str, keep_alive: bool
    ) -> None:
        job = self.manager.get(job_id)
        if job is None:
            self._send_json(
                writer, 404, {"error": f"unknown job: {job_id}"}, keep_alive
            )
            return
        descriptor = job.describe()
        if job.result is not None:
            descriptor["report"] = job.result
        self._send_json(writer, 200, descriptor, keep_alive)

    async def _stream_events(
        self, writer: asyncio.StreamWriter, job_id: str
    ) -> None:
        job = self.manager.get(job_id)
        if job is None:
            self._send_json(
                writer, 404, {"error": f"unknown job: {job_id}"}, False
            )
            return
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        queue = job.subscribe()
        while True:
            event = await queue.get()
            if event is EVENT_STREAM_END:
                break
            line = (
                json.dumps(event, sort_keys=True, separators=(",", ":"))
                + "\n"
            ).encode("utf-8")
            writer.write(b"%x\r\n" % len(line) + line + b"\r\n")
            await writer.drain()
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    # -- response plumbing -----------------------------------------------

    def _send_error(
        self,
        writer: asyncio.StreamWriter,
        command: str,
        exc: Exception,
        keep_alive: bool,
    ) -> None:
        status = http_status_for(classify_error(exc))
        self._send_json(
            writer, status, error_report(command, exc).to_dict(), keep_alive
        )

    def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Mapping[str, Any],
        keep_alive: bool,
        extra_headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        self._send_body(
            writer, status, encode_json(payload), keep_alive, extra_headers
        )

    def _send_body(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        keep_alive: bool,
        extra_headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        reason = _REASONS.get(status, "OK")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(
            ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
        )


def _truthy(raw: Optional[str], *, default: bool) -> bool:
    if raw is None:
        return default
    return raw.strip().lower() in ("1", "true", "yes", "on")


def _status_for_result(result: Mapping[str, Any]) -> int:
    """A finished Report's HTTP status: 200 unless the taxonomy says
    otherwise (``violation`` is a successful verdict, not an error)."""
    if result.get("status") != "error":
        return 200
    data = result.get("data") or {}
    return http_status_for(str(data.get("error_code", "INTERNAL")))


def run_server(config: Optional[ServerConfig] = None) -> int:
    """Run a server until SIGINT/SIGTERM, then drain and exit.

    The blocking entry point behind ``repro serve``. Returns the
    process exit code (0 on a clean drain).
    """

    async def _main() -> int:
        server = ReproServer(config)
        await server.start()
        print(f"repro serve listening on {server.address}", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # platforms without signal handler support
        await stop.wait()
        print("repro serve draining...", flush=True)
        await server.stop()
        return 0

    return asyncio.run(_main())
