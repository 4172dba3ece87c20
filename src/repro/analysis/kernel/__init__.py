"""Packed-state exploration kernel with two build-detected backends.

Two byte-identical backends implement one protocol (``KernelBackend``):

* ``compiled`` — ``repro.analysis.kernel._ckernel``, a hand-written C
  extension built best-effort at install time (or via ``make
  kernel-ext``). Used whenever it imports.
* ``python`` — :class:`~repro.analysis.kernel._pycore.PyKernel`, a flat
  big-int core with no compile step. Used when the extension is absent,
  and the reference backend the equivalence tests compare against.

There is no user-set selection: :func:`select` picks ``compiled`` iff
the extension imports. ``Explorer(kernel="python" | "compiled")``
forces one backend — a seam for the equivalence tests and the kernel
bench. Forcing ``compiled`` when the extension is absent is an error,
never a silent fallback.

Exploration is one path per backend — first-miss callbacks memoized in
flat maps, one serial BFS walk — and repeated questions are answered
from the exploration cache's small per-instance records, never from a
stored graph (``docs/performance.md``, "Knob ledger").

Both backends produce identical configuration ids, edge ids, and BFS
orders by construction: ids are allocated in discovery order and all
protocol semantics (invoke resolution, outcome enumeration, edge-id
allocation) run through the same Python callbacks in the same
deterministic sequence. Verdicts, seed digests, and cache keys are
therefore byte-for-byte backend-independent, which is why the content-
addressed cache fingerprint deliberately excludes the kernel name.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

from ...errors import AnalysisError
from .encoding import FIELD_BITS, MAX_CODE, PackedEncoder
from ._pycore import PyKernel

__all__ = [
    "FIELD_BITS",
    "MAX_CODE",
    "PackedEncoder",
    "PyKernel",
    "compiled_available",
    "make_backend",
    "select",
]

def compiled_available() -> bool:
    """Whether the accelerated extension module is importable.

    The import is tried once per process and the answer kept on the
    function: a failing import is not cached by ``sys.modules``, and
    retrying it cost about half of every ``Explorer`` build.
    """
    answer = getattr(compiled_available, "answer", None)
    if answer is None:
        try:
            from . import _ckernel  # noqa: F401
        except ImportError:
            answer = False
        else:
            answer = True
        compiled_available.answer = answer  # type: ignore[attr-defined]
    return answer


def select() -> str:
    """The backend exploration runs on: ``"compiled"`` when the
    extension imports, ``"python"`` otherwise."""
    return "compiled" if compiled_available() else "python"


def make_backend(
    kernel: Optional[str],
    n_fields: int,
    n_processes: int,
    resolve_invoke: Callable[[int, int], Tuple[int, int]],
    compute_deltas: Callable[
        [int, int, int, int], Sequence[Tuple[int, int, int, int]]
    ],
):
    """Instantiate a backend. Returns ``(backend, name)``.

    ``kernel=None`` takes :func:`select`'s pick; ``"python"`` or
    ``"compiled"`` forces that backend.
    """
    name = select() if kernel is None else kernel
    if name == "python":
        backend = PyKernel(
            n_fields, n_processes, resolve_invoke, compute_deltas
        )
        return backend, name
    if name != "compiled":
        raise AnalysisError(
            f"unknown kernel {name!r}; choose 'python' or 'compiled'"
        )
    if not compiled_available():
        from . import _build
        from ...errors import KernelUnavailableError

        message = (
            "kernel 'compiled' requested but the accelerated extension is "
            "not built; run `make kernel-ext`"
        )
        build_error = _build.last_build_error()
        if build_error is not None:
            message += f"\nlast build attempt failed with:\n{build_error}"
        raise KernelUnavailableError(message)
    from . import _ckernel

    backend = _ckernel.KernelState(
        n_fields, n_processes, resolve_invoke, compute_deltas
    )
    return backend, name
