"""Asynchronous shared-memory runtime: the paper's model, executable.

Processes (:mod:`repro.runtime.process`) take atomic steps on shared
objects under an adversarial scheduler
(:mod:`repro.runtime.scheduler`); :class:`~repro.runtime.system.System`
is the step loop; :mod:`repro.runtime.history` records what happened.
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "scheduler": (
            "AlternatingScheduler",
            "RoundRobinScheduler",
            "SeededScheduler",
        ),
        "system": ("System",),
    },
)
