"""Run a ``repro serve`` instance in a background thread.

Tests and the smoke harness need a live server inside one process:
:class:`BackgroundServer` runs the asyncio loop in a daemon thread
(jobs run in the server's process pool, as in production), binds to an
ephemeral port, and exposes a ready
:class:`~repro.serve.client.ServeClient`. Always used as a context
manager so the server drains and its pool shuts down even on failure::

    with BackgroundServer(ServerConfig(port=0)) as handle:
        response = handle.client.verify(n=2)
        assert response.status == 200
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Optional

from .client import ServeClient
from .server import ReproServer, ServerConfig

__all__ = ["BackgroundServer"]


class BackgroundServer:
    """A live server on an ephemeral port, in a daemon thread."""

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        *,
        startup_timeout: float = 30.0,
    ) -> None:
        self.config = config or ServerConfig(port=0)
        self.startup_timeout = startup_timeout
        self.server: Optional[ReproServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._stopped = threading.Event()
        self._startup_error: Optional[BaseException] = None

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-test", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(self.startup_timeout):
            raise RuntimeError("server did not become ready in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"server failed to start: {self._startup_error!r}"
            )
        return self

    def stop(self) -> None:
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=60.0)

    def _run(self) -> None:
        async def _main() -> None:
            self._stop_event = asyncio.Event()
            server = ReproServer(self.config)
            try:
                await server.start()
            except BaseException as exc:  # bind failure, bad config
                self._startup_error = exc
                self._ready.set()
                return
            self.server = server
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            await self._stop_event.wait()
            await server.stop()

        try:
            asyncio.run(_main())
        finally:
            self._stopped.set()
            self._ready.set()

    # -- conveniences ----------------------------------------------------

    @property
    def host(self) -> str:
        assert self.server is not None
        return self.server.host

    @property
    def port(self) -> int:
        assert self.server is not None
        return self.server.port

    @property
    def client(self) -> ServeClient:
        return ServeClient(self.host, self.port)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
