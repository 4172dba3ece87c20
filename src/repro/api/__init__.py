"""repro.api — the programmatic entry point: typed requests and ``execute``.

Each of the paper's executable questions is one frozen request type
(:mod:`repro.api.requests`): :class:`VerifyRequest` (Theorem 4.1 at
size ``n``), :class:`RefuteRequest` (the doomed candidates behind
Theorems 4.2 and 5.2), :class:`FuzzRequest` (fuzzing them) and
:class:`ExploreRequest` (one Algorithm 2 configuration graph). All
four share one :class:`ExecutionOptions` (``jobs``, ``cache``,
``cache_dir``). A request canonicalizes and fingerprints itself with
the exploration cache's sha256 scheme, which is what the ``repro
serve`` coalescing map and warm result cache key on.

:func:`execute` is the one way to run a request; it returns the
schema-versioned :class:`repro.reports.Report`. Its ``trace=``
argument (a path, or any object with ``write``) records the run's
JSONL trace (see :mod:`repro.obs`). The kernel backend is not a
parameter: exploration runs compiled when the C extension is built and
python otherwise, observable-identically. Every call opens an
observation session — joining the ambient one when the CLI already
holds it — and embeds the deterministic metrics snapshot in the
returned report. :func:`request_from_dict` parses the wire form the
server accepts.

Invalid arguments raise :class:`repro.errors.InvalidRequestError` at
request construction, before any engine runs; engine failures raise
their :class:`repro.errors.ReproError` subclasses. Callers that need
an envelope instead of an exception (the CLI driver, the server's job
runner) fold exceptions through :func:`repro.errors.error_report` —
the one error-taxonomy table behind HTTP statuses and exit codes.

The CLI commands ``check-algorithm2``, ``refute``, ``fuzz`` and
``explore`` build a request and call :func:`execute`; their text
output is exactly ``"\\n".join(report.body)``.
"""

from __future__ import annotations

from .execute import execute
from .requests import (
    REQUEST_TYPES,
    ExecutionOptions,
    ExploreRequest,
    FuzzRequest,
    RefuteRequest,
    VerifyRequest,
    request_from_dict,
)

__all__ = [
    "execute",
    "request_from_dict",
    "ExecutionOptions",
    "VerifyRequest",
    "RefuteRequest",
    "FuzzRequest",
    "ExploreRequest",
    "REQUEST_TYPES",
]
