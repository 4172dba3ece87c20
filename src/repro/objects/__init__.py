"""Shared-object substrate: sequential specs, live objects, the catalog.

This package provides the generic machinery
(:class:`~repro.objects.spec.SequentialSpec`,
:class:`~repro.objects.base.SharedObject`, response oracles) plus the
classical object catalog the paper's model quantifies over: registers,
``m``-consensus objects, and the standard consensus-hierarchy
inhabitants (test-and-set, fetch-and-add, compare-and-swap, swap, FIFO
queue, sticky bit).

The paper's own objects — ``n``-PAC, ``n``-DAC, 2-SA, ``(n, m)``-PAC,
``O_n``, ``O'_n`` — live in :mod:`repro.core`.
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "base": ("SeededOracle",),
        "classic": (
            "FetchAndAddSpec",
            "QueueSpec",
            "StickyBitSpec",
            "TestAndSetSpec",
        ),
        "consensus": ("MConsensusSpec",),
        "register": ("RegisterSpec",),
    },
)
