"""k-set agreement through an ``O'_n`` bundle's ``PROPOSE(v, k)`` face.

:class:`BundleProcess` is how ``O'_n`` realizes each component of its
set agreement power: experiment E10's grid and the bundle-level power
cells (:func:`repro.core.power_certification.certify_bundle_level`)
run it. The lower-bound protocols of the classic objects (registers,
``m``-consensus, strong ``c``-SA) back the tests that certify
:mod:`repro.core.power` against them.
"""

from __future__ import annotations

from typing import Hashable, List, Sequence

from ..errors import SpecificationError
from ..types import ProcessId, Value, op, require
from ..runtime.events import Action, Decide, Invoke
from ..runtime.process import ProcessAutomaton


class _ProposeDecideProcess(ProcessAutomaton):
    """Shared shape: one propose on one object, then decide the response."""

    def __init__(self, pid: ProcessId, value: Value, obj: str, operation) -> None:
        super().__init__(pid)
        self.value = value
        self.obj = obj
        self._operation = operation

    def initial_state(self) -> Hashable:
        return ("propose",)

    def next_action(self, state: Hashable) -> Action:
        if state[0] == "propose":
            return Invoke(self.obj, self._operation)
        return Decide(state[1])

    def transition(self, state: Hashable, response: Value) -> Hashable:
        return ("decided", response)


class BundleProcess(_ProposeDecideProcess):
    """Decide an SA-bundle's level-``k`` answer: ``PROPOSE(v, k)``.

    This is how ``O'_n`` + registers solves ``k``-set agreement among
    ``n_k`` processes — the defining property of the embodiment object.
    """

    def __init__(
        self, pid: ProcessId, value: Value, level: int, obj: str = "OPRIME"
    ) -> None:
        require(level >= 1, SpecificationError, f"level must be >= 1, got {level}")
        super().__init__(pid, value, obj, op("propose", value, level))
        self.level = level


def bundle_processes(
    inputs: Sequence[Value], level: int, obj: str = "OPRIME"
) -> List[BundleProcess]:
    """Instantiate :class:`BundleProcess` per input at one bundle level."""
    return [
        BundleProcess(pid, value, level, obj) for pid, value in enumerate(inputs)
    ]
