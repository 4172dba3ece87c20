"""repro.api — the stable programmatic façade, now request-shaped.

Two layers, one behaviour:

* **Typed requests** (:mod:`repro.api.requests`) — frozen
  :class:`VerifyRequest` / :class:`RefuteRequest` / :class:`FuzzRequest`
  / :class:`ExploreRequest` dataclasses sharing one
  :class:`ExecutionOptions` (jobs / cache / kernel / trace knobs).
  Each request canonicalizes and fingerprints itself with the
  exploration cache's sha256 scheme, which is what the ``repro serve``
  coalescing map and warm result cache key on. :func:`execute` runs any
  request to its schema-versioned :class:`repro.reports.Report`.
* **Keyword-only functions** — :func:`verify`, :func:`refute`,
  :func:`fuzz`, :func:`explore`: thin wrappers that build the request
  object and call :func:`execute`. Signatures, parameter names,
  defaults, and returned reports are unchanged from the pre-request
  façade, so no existing caller breaks.

Parameter conventions are uniform: ``jobs=`` (worker processes,
``1`` = inline), ``cache=``/``cache_dir=`` (the content-addressed
exploration cache), ``seed=`` (campaign seed), ``kernel=`` (exploration
backend: ``auto``/``python``/``compiled`` — observable-identical, pure
throughput; passed explicitly to every explorer the call builds, pool
workers included), ``trace=`` (a path: the call
records a JSONL trace there, see :mod:`repro.obs`). Every call opens an
observation session — joining the ambient one when the CLI (or an
outer call) already holds it — and embeds the deterministic metrics
snapshot in the returned report.

Invalid arguments raise :class:`repro.errors.InvalidRequestError` at
request construction, before any engine runs; engine failures raise
their :class:`repro.errors.ReproError` subclasses. Callers that need
an envelope instead of an exception (the CLI driver, the server's job
runner) fold exceptions through :func:`repro.errors.error_report` —
the one error-taxonomy table behind HTTP statuses and exit codes.

The CLI commands are thin adapters over these functions; their text
output is exactly ``"\\n".join(report.body)``.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from ..reports import Report
from .execute import execute
from .requests import (
    REQUEST_TYPES,
    ExecutionOptions,
    ExploreRequest,
    FuzzRequest,
    RefuteRequest,
    Request,
    VerifyRequest,
    request_from_dict,
)

__all__ = [
    "verify",
    "refute",
    "fuzz",
    "explore",
    "execute",
    "request_from_dict",
    "ExecutionOptions",
    "Request",
    "VerifyRequest",
    "RefuteRequest",
    "FuzzRequest",
    "ExploreRequest",
    "REQUEST_TYPES",
]


def verify(
    *,
    n: int = 3,
    symmetry: bool = False,
    jobs: int = 1,
    cache: bool = False,
    cache_dir: Optional[str] = None,
    kernel: Optional[str] = None,
    trace: Optional[str] = None,
) -> Report:
    """Model-check Theorem 4.1 at size ``n`` over every input assignment."""
    return execute(
        VerifyRequest(
            n=n,
            symmetry=symmetry,
            options=ExecutionOptions(
                jobs=jobs,
                cache=cache,
                cache_dir=cache_dir,
                kernel=kernel,
                trace=trace,
            ),
        )
    )


def refute(
    *,
    candidate: Optional[str] = None,
    jobs: int = 1,
    kernel: Optional[str] = None,
    trace: Optional[str] = None,
) -> Report:
    """Run the doomed-candidate suite; every witness must match its
    expected failure kind."""
    return execute(
        RefuteRequest(
            candidate=candidate,
            options=ExecutionOptions(
                jobs=jobs,
                kernel=kernel,
                trace=trace,
            ),
        )
    )


def fuzz(
    *,
    candidate: Optional[str] = None,
    algorithm2_n: Optional[int] = None,
    budget: int = 300,
    seed: int = 0,
    jobs: int = 1,
    shards: Optional[int] = None,
    corpus_dir: Optional[str] = None,
    shrink: bool = True,
    max_steps: int = 64,
    kernel: Optional[str] = None,
    trace: Optional[str] = None,
) -> Report:
    """Coverage-guided schedule/response fuzzing with shrinking and
    strict replay; bit-reproducible per ``seed`` across ``jobs``."""
    return execute(
        FuzzRequest(
            candidate=candidate,
            algorithm2_n=algorithm2_n,
            budget=budget,
            seed=seed,
            shards=shards,
            corpus_dir=corpus_dir,
            shrink=shrink,
            max_steps=max_steps,
            options=ExecutionOptions(
                jobs=jobs,
                kernel=kernel,
                trace=trace,
            ),
        )
    )


def explore(
    *,
    n: int = 3,
    inputs: Optional[Sequence[Any]] = None,
    symmetry: bool = False,
    cache: bool = False,
    cache_dir: Optional[str] = None,
    max_configurations: int = 400_000,
    kernel: Optional[str] = None,
    trace: Optional[str] = None,
) -> Report:
    """Build one Algorithm 2 instance's reachable configuration graph.

    With ``cache=True`` (and no symmetry reduction) the graph is
    persisted to / rehydrated from the content-addressed exploration
    cache.
    """
    return execute(
        ExploreRequest(
            n=n,
            inputs=tuple(inputs) if inputs is not None else None,
            symmetry=symmetry,
            max_configurations=max_configurations,
            options=ExecutionOptions(
                cache=cache,
                cache_dir=cache_dir,
                kernel=kernel,
                trace=trace,
            ),
        )
    )
