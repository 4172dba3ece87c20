"""Exception hierarchy and the stable error taxonomy.

All library-raised exceptions derive from :class:`ReproError`, so callers
can catch the whole family with a single ``except`` clause while still
being able to distinguish specification errors (bad operations sent to an
object) from runtime errors (scheduling a crashed process) and analysis
errors (asking for the valency of an unreachable configuration).

On top of the exception classes sits the **error taxonomy**: a closed
set of stable error codes (:data:`ERROR_CODES`), one classification
function (:func:`classify_error`) and one table mapping each code to
its HTTP status (consumed by :mod:`repro.serve`) and its CLI exit code
(consumed by :mod:`repro.cli`); :func:`error_report` folds any caught
exception into the standard :class:`repro.reports.Report` envelope with
the code carried in ``data["error_code"]`` and in the error finding —
one table, three consumers (server, CLI, API callers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional, Tuple


class ReproError(Exception):
    """Base class for every exception raised by the library."""


class SpecificationError(ReproError):
    """An object was constructed with invalid parameters.

    Example: an ``n``-PAC object with ``n < 1``, or an ``(n, k)``-SA
    object with ``k < 1``.
    """


class InvalidOperationError(ReproError):
    """An operation was applied that the target object does not support.

    This covers unknown operation names as well as out-of-range
    arguments, e.g. a ``PROPOSE(v, i)`` on an ``n``-PAC object with a
    label ``i`` outside ``[1..n]``.
    """


class ProtocolError(ReproError):
    """A process automaton violated the runtime's step discipline.

    Raised, for example, when a process is asked for its next action
    after it has already decided, or when a generator-based process
    yields something that is not an action.
    """


class SchedulingError(ReproError):
    """The scheduler made an illegal choice.

    Raised when a scheduler selects a process that has crashed, decided,
    or does not exist, or when no process is enabled but a step was
    requested anyway.
    """


class AnalysisError(ReproError):
    """An analysis (valency, linearizability, exploration) was misused.

    Example: requesting the decision set of a configuration that does
    not belong to the explored system, or auditing safety on a
    truncated exploration that found no violation.
    """


class ExplorationBudgetExceeded(AnalysisError):
    """A bounded exploration ran out of its state or depth budget.

    ``Explorer.explore`` never raises it: a truncated walk is marked
    ``complete=False``. The analyses that need the whole graph (safety
    without a violation, livelock search, decision sets, solo
    termination) raise it instead of answering from a part.
    """


class ReplayDivergenceError(ReproError):
    """A strict scripted replay diverged from its script.

    Raised by :class:`~repro.objects.base.ScriptedOracle` (and the
    replay helpers built on it) when a replayed run asks for more
    choices than the script contains, or when a scripted choice is out
    of range for the outcomes actually offered. Silent fallback past
    the end of a counterexample script is exactly how a replayed
    counterexample stops being the counterexample the explorer found,
    so strict replays fail loudly instead.
    """


class NotLinearizableError(AnalysisError):
    """A history expected to be linearizable was proven not to be.

    Raised by the ``require_linearizable`` convenience wrapper; the
    underlying checker itself returns a verdict object instead of
    raising.
    """


class InvalidRequestError(ReproError):
    """A request to the API/serve surface failed validation.

    Raised while building one of the typed request objects in
    :mod:`repro.api.requests` (unknown command, wrong field type,
    out-of-range value) — before any engine runs. The server maps it to
    HTTP 400, the CLI to exit code 2.
    """


class CacheIntegrityError(AnalysisError):
    """A cache entry failed validation and must not be used.

    The taxonomy's ``CACHE_INTEGRITY`` class. The on-disk
    :class:`~repro.analysis.cache.ExplorationCache` never raises it: it
    deletes a corrupt, tampered or wrong-shaped entry and recomputes
    the answer, so a broken cache costs time, never a verdict.
    """


class ServerOverloadedError(ReproError):
    """The serving layer refused a submission it cannot queue.

    Raised by :class:`repro.serve.jobs.JobManager` when the bounded job
    queue is full or the server is draining for shutdown; mapped to
    HTTP 429. Back off and resubmit.
    """


class CodecOverflowError(AnalysisError):
    """A structural object code has no room for a state.

    Raised by a spec's packed codec (the ``n``-PAC object's
    :class:`~repro.core.pac.PacCodec`) when a state needs a field value
    its layout cannot hold. :class:`~repro.analysis.explorer.Explorer`
    catches it, rebuilds its code space with first-seen object codes
    (every configuration id kept) and repeats the call, so a request
    never sees it.
    """


class KernelUnavailableError(AnalysisError):
    """A specific exploration backend was requested but cannot run.

    Raised by :func:`repro.analysis.kernel.make_backend` when
    ``Explorer(kernel="compiled")`` forces the C backend and the
    accelerated extension is not built (the message
    carries the captured build log when one exists). The server maps it
    to HTTP 503 — the request is fine, this deployment just cannot
    serve it — and the CLI to exit code 3.
    """


# -- the stable error taxonomy ----------------------------------------------


@dataclass(frozen=True)
class ErrorClass:
    """One row of the taxonomy: a stable code and its three renderings."""

    code: str
    http_status: int
    exit_code: int
    description: str


#: The closed code set, in severity-agnostic alphabetical order. Codes
#: are append-only: consumers (CI greps, dashboards, clients switching
#: on ``data["error_code"]``) rely on existing names never changing.
ERROR_TABLE: Tuple[ErrorClass, ...] = (
    ErrorClass(
        "BUDGET_EXCEEDED",
        422,
        4,
        "a strict exploration/fuzz budget was exhausted before an answer",
    ),
    ErrorClass(
        "CACHE_INTEGRITY",
        500,
        6,
        "a cache entry failed validation and could not be recomputed",
    ),
    ErrorClass(
        "INTERNAL",
        500,
        1,
        "an engine failed in a way the taxonomy does not name",
    ),
    ErrorClass(
        "INVALID_REQUEST",
        400,
        2,
        "the request failed validation before any engine ran",
    ),
    ErrorClass(
        "KERNEL_UNAVAILABLE",
        503,
        3,
        "a requested exploration backend is not built on this host",
    ),
    ErrorClass(
        "OVERLOADED",
        429,
        7,
        "the server's bounded job queue is full or draining",
    ),
    ErrorClass(
        "REPLAY_DIVERGENCE",
        500,
        5,
        "a strict counterexample replay diverged from its script",
    ),
)

#: code → :class:`ErrorClass` (the lookup the three consumers share).
ERROR_CODES: Mapping[str, ErrorClass] = {
    entry.code: entry for entry in ERROR_TABLE
}


def classify_error(exc: BaseException) -> str:
    """The taxonomy code for ``exc`` (total: unknowns are INTERNAL)."""
    if isinstance(exc, InvalidRequestError):
        return "INVALID_REQUEST"
    if isinstance(exc, (SpecificationError, InvalidOperationError)):
        return "INVALID_REQUEST"
    if isinstance(exc, ExplorationBudgetExceeded):
        return "BUDGET_EXCEEDED"
    if isinstance(exc, CacheIntegrityError):
        return "CACHE_INTEGRITY"
    if isinstance(exc, KernelUnavailableError):
        return "KERNEL_UNAVAILABLE"
    if isinstance(exc, ReplayDivergenceError):
        return "REPLAY_DIVERGENCE"
    if isinstance(exc, ServerOverloadedError):
        return "OVERLOADED"
    return "INTERNAL"


def http_status_for(code: str) -> int:
    """The HTTP status the server answers with for ``code``."""
    entry = ERROR_CODES.get(code)
    return entry.http_status if entry is not None else 500


def exit_code_for(code: str) -> int:
    """The process exit code the CLI uses for ``code``."""
    entry = ERROR_CODES.get(code)
    return entry.exit_code if entry is not None else 1


def error_report(
    command: str,
    exc: BaseException,
    detail: Optional[str] = None,
) -> Any:
    """Fold a caught exception into the standard Report envelope.

    ``status`` is ``"error"``, the exit code comes from the taxonomy
    table, and the code rides in ``data["error_code"]`` plus the single
    error finding's ``data`` — so the CLI, the server, and API callers
    all read the same classification from the same places.
    """
    from .reports import Finding, Report

    code = classify_error(exc)
    message = detail if detail is not None else str(exc)
    line = f"{code}: {message}"
    return Report(
        command=command,
        status="error",
        exit_code=exit_code_for(code),
        summary=line,
        body=(line,),
        findings=(
            Finding(
                "error",
                subject=code,
                detail=message,
                data={"error_code": code, "exception": type(exc).__name__},
            ),
        ),
        data={"error_code": code},
    )
