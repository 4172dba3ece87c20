"""Packed-state exploration kernel with selectable backends.

Two byte-identical backends implement one protocol (``KernelBackend``):

* ``python`` — :class:`~repro.analysis.kernel._pycore.PyKernel`, a flat
  big-int core with no compile step. The default.
* ``compiled`` — ``repro.analysis.kernel._ckernel``, a hand-written C
  extension built best-effort at install time (or via ``make
  kernel-ext``). Opt-in; importing it is the only capability check.

Selection order: an explicit ``kernel=`` argument beats the
``REPRO_KERNEL`` environment variable beats ``auto`` (compiled when the
extension imports, python otherwise). Requesting ``compiled`` when the
extension is absent is an error, never a silent fallback — ``auto`` is
the spelling for "fastest available". ``REPRO_KERNEL`` is a user-set
default only: nothing in the package writes it, and the request layer
(:mod:`repro.api`) hands ``kernel=`` explicitly to every explorer it
builds, pool workers included.

The backend is the only knob. Exploration is one path per backend —
first-miss callbacks memoized in flat maps, one serial BFS walk — and
repeated instances are served at graph level by the exploration
cache (``docs/performance.md``, "Knob ledger").

Both backends produce identical configuration ids, edge ids, and BFS
orders by construction: ids are allocated in discovery order and all
protocol semantics (invoke resolution, outcome enumeration, edge-id
allocation) run through the same Python callbacks in the same
deterministic sequence. Verdicts, seed digests, and cache keys are
therefore byte-for-byte backend-independent, which is why the content-
addressed cache fingerprint deliberately excludes the kernel name.
"""

from __future__ import annotations

import os
from typing import Callable, Optional, Tuple

from ...errors import AnalysisError
from .encoding import FIELD_BITS, MAX_CODE, PackedEncoder
from ._pycore import PyKernel

__all__ = [
    "FIELD_BITS",
    "MAX_CODE",
    "KERNEL_CHOICES",
    "PackedEncoder",
    "PyKernel",
    "compiled_available",
    "make_backend",
    "select",
]

#: Valid values for ``--kernel`` / ``REPRO_KERNEL`` / ``kernel=``.
KERNEL_CHOICES = ("auto", "python", "compiled")

#: Environment variable consulted when no explicit kernel is passed:
#: a user-set default only — the library never writes it.
ENV_VAR = "REPRO_KERNEL"


def compiled_available() -> bool:
    """Whether the accelerated extension module is importable."""
    try:
        from . import _ckernel  # noqa: F401
    except ImportError:
        return False
    return True


def select(kernel: Optional[str] = None) -> str:
    """Resolve a kernel request to a concrete backend name.

    ``kernel=None`` defers to ``REPRO_KERNEL`` and then to ``auto``.
    Returns ``"python"`` or ``"compiled"``.
    """
    if kernel is None:
        kernel = os.environ.get(ENV_VAR) or "auto"
    if kernel not in KERNEL_CHOICES:
        raise AnalysisError(
            f"unknown kernel {kernel!r}; choose one of {KERNEL_CHOICES}"
        )
    if kernel == "auto":
        return "compiled" if compiled_available() else "python"
    if kernel == "compiled" and not compiled_available():
        from . import _build
        from ...errors import KernelUnavailableError

        message = (
            "kernel 'compiled' requested but the accelerated extension is "
            "not built; run `make kernel-ext` or use --kernel auto"
        )
        build_error = _build.last_build_error()
        if build_error is not None:
            message += f"\nlast build attempt failed with:\n{build_error}"
        raise KernelUnavailableError(message)
    return kernel


def make_backend(
    kernel: Optional[str],
    n_fields: int,
    n_processes: int,
    resolve_invoke: Callable[[int, int], int],
    compute_deltas: Callable[
        [int, int, int, int], Tuple[Tuple[int, int, int, int], ...]
    ],
):
    """Instantiate the resolved backend. Returns ``(backend, name)``."""
    name = select(kernel)
    if name == "compiled":
        from . import _ckernel

        return (
            _ckernel.KernelState(
                n_fields, n_processes, resolve_invoke, compute_deltas
            ),
            name,
        )
    return PyKernel(n_fields, n_processes, resolve_invoke, compute_deltas), name

