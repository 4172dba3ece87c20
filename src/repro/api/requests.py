"""Typed request objects — the canonical form of every API question.

The API's four activities (verify / refute / fuzz / explore) are
each described by one frozen dataclass here. A request splits cleanly
into two kinds of field:

* **semantic** fields (``n``, ``inputs``, ``seed``, ``budget``, …) —
  they determine the *answer*. Two requests with equal semantic fields
  produce byte-identical Report bodies, by the library's determinism
  contract.
* :class:`ExecutionOptions` — *how* the answer is computed (``jobs``,
  ``cache``, ``cache_dir``). Every option is observable-identical by
  contract, so options are deliberately **excluded** from the
  fingerprint: a pooled run coalesces with a serial one. A trace is
  not an option at all; it is :func:`repro.api.execute`'s ``trace=``
  argument.

:meth:`Request.fingerprint` renders the semantic fields through the
exploration cache's canonicalizer and sha256 scheme
(:func:`repro.analysis.cache.fingerprint`, code salt included), so the
server's coalescing map, its warm result cache, and the on-disk
exploration cache all speak the same content addresses — and any source
edit anywhere in the package busts all three at once.

Construction validates: a bad field raises
:class:`repro.errors.InvalidRequestError` before any engine runs
(mapped to HTTP 400 by :mod:`repro.serve` and exit code 2 by the CLI).
``to_dict`` / :func:`request_from_dict` round-trip losslessly — they
are the server's wire format.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import (
    Any,
    ClassVar,
    Dict,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from ..errors import InvalidRequestError

__all__ = [
    "ExecutionOptions",
    "ExploreRequest",
    "FuzzRequest",
    "RefuteRequest",
    "Request",
    "REQUEST_TYPES",
    "VerifyRequest",
    "request_from_dict",
]

def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidRequestError(message)


def _check_int(name: str, value: Any, minimum: Optional[int] = None) -> None:
    _require(
        isinstance(value, int) and not isinstance(value, bool),
        f"{name} must be an integer, not {value!r}",
    )
    if minimum is not None:
        _require(value >= minimum, f"{name} must be >= {minimum}, got {value}")


def _check_opt_int(name: str, value: Any, minimum: int) -> None:
    if value is not None:
        _check_int(name, value, minimum)


def _check_bool(name: str, value: Any) -> None:
    _require(isinstance(value, bool), f"{name} must be a bool, not {value!r}")


def _check_opt_str(name: str, value: Any) -> None:
    _require(
        value is None or isinstance(value, str),
        f"{name} must be a string or null, not {value!r}",
    )


@dataclass(frozen=True)
class ExecutionOptions:
    """How a request is executed — never *what* it answers.

    ``jobs`` is the worker-process count (``1`` runs inline); ``cache``
    and ``cache_dir`` select the content-addressed exploration cache.
    Every knob here is observable-identical by the library's
    determinism contract (reports are byte-identical across ``jobs``
    and cache states), so none of them participates in
    :meth:`Request.fingerprint`. ``repro serve`` refuses ``cache:
    true`` and ``cache_dir``: the server, not its client, owns the
    files it writes.
    """

    jobs: int = 1
    cache: bool = False
    cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        _check_int("jobs", self.jobs, 1)
        _check_bool("cache", self.cache)
        _check_opt_str("cache_dir", self.cache_dir)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExecutionOptions":
        _reject_unknown_keys(
            "options", payload, {f.name for f in fields(cls)}
        )
        try:
            return cls(**dict(payload))
        except TypeError as exc:
            raise InvalidRequestError(f"bad options: {exc}") from None


def _reject_unknown_keys(
    what: str, payload: Mapping[str, Any], allowed: set
) -> None:
    _require(
        isinstance(payload, Mapping),
        f"{what} must be a JSON object, not {payload!r}",
    )
    unknown = sorted(set(payload) - allowed)
    _require(
        not unknown,
        f"unknown {what} field(s): {', '.join(unknown)}",
    )


@dataclass(frozen=True)
class Request:
    """Shared shape of the four request types (never instantiated raw).

    Subclasses declare their semantic fields plus the trailing
    ``options``; ``command`` is a class attribute naming the API verb.
    """

    #: The API verb ("verify" / "refute" / "fuzz" / "explore").
    command: ClassVar[str] = ""
    #: The Report ``command`` string the verb renders as (CLI parity).
    report_command: ClassVar[str] = ""

    def semantic_fields(self) -> Dict[str, Any]:
        """The answer-determining fields, options excluded."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "options"
        }

    def canonical(self) -> Tuple[Any, ...]:
        """Hash-seed-independent canonical rendering (command tagged)."""
        from ..analysis.cache import canonicalize

        return canonicalize(
            {"command": self.command, **self.semantic_fields()}
        )

    def fingerprint(self) -> str:
        """Content address under the exploration cache's sha256 scheme.

        Two requests coalesce (server) or warm-hit (caches) exactly
        when their fingerprints agree; the code salt inside
        :func:`repro.analysis.cache.fingerprint` makes any source edit
        bust every address at once.
        """
        from ..analysis.cache import fingerprint

        return fingerprint(command=self.command, **self.semantic_fields())

    def to_dict(self) -> Dict[str, Any]:
        """Lossless wire form: semantic fields + nested options."""
        payload: Dict[str, Any] = {"command": self.command}
        for name, value in self.semantic_fields().items():
            payload[name] = list(value) if isinstance(value, tuple) else value
        payload["options"] = self.options.to_dict()  # type: ignore[attr-defined]
        return payload

    @classmethod
    def from_fields(
        cls, payload: Mapping[str, Any]
    ) -> "Request":
        allowed = {f.name for f in fields(cls)} | {"command"}
        _reject_unknown_keys(f"{cls.command} request", payload, allowed)
        kwargs = {
            key: value
            for key, value in payload.items()
            if key not in ("command", "options")
        }
        options = payload.get("options", None)
        if options is not None:
            if not isinstance(options, ExecutionOptions):
                options = ExecutionOptions.from_dict(options)
            kwargs["options"] = options
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise InvalidRequestError(
                f"bad {cls.command} request: {exc}"
            ) from None


@dataclass(frozen=True)
class VerifyRequest(Request):
    """Model-check Theorem 4.1 at size ``n`` over every input assignment."""

    command: ClassVar[str] = "verify"
    report_command: ClassVar[str] = "check-algorithm2"

    n: int = 3
    symmetry: bool = False
    options: ExecutionOptions = field(default_factory=ExecutionOptions)

    def __post_init__(self) -> None:
        _check_int("n", self.n, 1)
        _check_bool("symmetry", self.symmetry)


@dataclass(frozen=True)
class RefuteRequest(Request):
    """Run the doomed-candidate suite (optionally one candidate)."""

    command: ClassVar[str] = "refute"
    report_command: ClassVar[str] = "refute"

    candidate: Optional[str] = None
    options: ExecutionOptions = field(default_factory=ExecutionOptions)

    def __post_init__(self) -> None:
        _check_opt_str("candidate", self.candidate)


@dataclass(frozen=True)
class FuzzRequest(Request):
    """Seeded coverage-guided schedule/response fuzzing.

    ``corpus_dir`` persists the campaign's corpus across runs; ``repro
    serve`` refuses it, so every served answer is a pure function of
    the request.
    """

    command: ClassVar[str] = "fuzz"
    report_command: ClassVar[str] = "fuzz"

    candidate: Optional[str] = None
    algorithm2_n: Optional[int] = None
    budget: int = 300
    seed: int = 0
    shards: Optional[int] = None
    corpus_dir: Optional[str] = None
    shrink: bool = True
    max_steps: int = 64
    options: ExecutionOptions = field(default_factory=ExecutionOptions)

    def __post_init__(self) -> None:
        _check_opt_str("candidate", self.candidate)
        _check_opt_int("algorithm2_n", self.algorithm2_n, 1)
        _check_int("budget", self.budget, 1)
        _check_int("seed", self.seed)
        _check_opt_int("shards", self.shards, 1)
        _check_opt_str("corpus_dir", self.corpus_dir)
        _check_bool("shrink", self.shrink)
        _check_int("max_steps", self.max_steps, 1)


@dataclass(frozen=True)
class ExploreRequest(Request):
    """Build one Algorithm 2 instance's reachable configuration graph."""

    command: ClassVar[str] = "explore"
    report_command: ClassVar[str] = "explore"

    n: int = 3
    inputs: Optional[Tuple[Any, ...]] = None
    symmetry: bool = False
    max_configurations: int = 400_000
    options: ExecutionOptions = field(default_factory=ExecutionOptions)

    def __post_init__(self) -> None:
        _check_int("n", self.n, 1)
        if self.inputs is None:
            # Normalize the defaulted instance to its concrete inputs so
            # "explore n=3" and "explore n=3 with the paper's inputs"
            # carry one fingerprint (they are one question).
            from ..protocols.tasks import DacDecisionTask

            object.__setattr__(
                self, "inputs", tuple(DacDecisionTask.paper_initial_inputs(self.n))
            )
        if self.inputs is not None:
            _require(
                isinstance(self.inputs, Sequence)
                and not isinstance(self.inputs, (str, bytes)),
                f"inputs must be a sequence, not {self.inputs!r}",
            )
            object.__setattr__(self, "inputs", tuple(self.inputs))
            _require(
                len(self.inputs) == self.n,
                f"inputs must have length n={self.n}, "
                f"got {len(self.inputs)}",
            )
        _check_bool("symmetry", self.symmetry)
        _check_int("max_configurations", self.max_configurations, 1)


#: command string → request type (the server's dispatch table).
REQUEST_TYPES: Dict[str, Type[Request]] = {
    cls.command: cls
    for cls in (VerifyRequest, RefuteRequest, FuzzRequest, ExploreRequest)
}


def request_from_dict(payload: Mapping[str, Any]) -> Request:
    """Parse a wire-form mapping into the right typed request.

    The inverse of :meth:`Request.to_dict`; every validation failure is
    an :class:`~repro.errors.InvalidRequestError`.
    """
    _require(
        isinstance(payload, Mapping),
        f"request must be a JSON object, not {payload!r}",
    )
    command = payload.get("command")
    _require(
        isinstance(command, str) and command in REQUEST_TYPES,
        f"unknown command {command!r}; expected one of "
        f"{sorted(REQUEST_TYPES)}",
    )
    return REQUEST_TYPES[command].from_fields(payload)
