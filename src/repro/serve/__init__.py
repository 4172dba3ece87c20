"""repro.serve — the verification service over :mod:`repro.api`.

A stdlib-only asyncio HTTP/JSON server exposing the four phases
(verify / refute / fuzz / explore) as submitted jobs, with:

* request **coalescing** — identical in-flight requests (by the typed
  request's canonical fingerprint) share one running job;
* a bounded **warm result cache** — repeats are answered without
  touching an engine;
* **streaming traces** — ``GET /v1/jobs/<id>/events`` follows the
  job's JSONL observation trace live;
* **bounded intake** — a job-queue cap and per-phase concurrency
  limits answer overload with HTTP 429 instead of swelling memory;
* **graceful drain** — SIGTERM stops intake and lets live jobs finish.

Entry points: ``repro serve`` (the CLI command wrapping
:func:`run_server` and its :class:`ServerConfig`),
:class:`repro.serve.client.ServeClient` (blocking client),
:class:`repro.serve.testing.BackgroundServer` (in-process server for
tests), and :mod:`repro.serve.smoke` (the CI correctness harness).
See ``docs/serve.md`` for the protocol.
"""

from .server import ServerConfig, run_server

__all__ = ["ServerConfig", "run_server"]
