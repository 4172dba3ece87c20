"""k-set agreement protocols: the constructive power lower bounds.

The tests certify :mod:`repro.core.power`'s claimed lower bounds by
model-checking these protocols (``tests/core/test_power_certification.py``):

* :func:`trivial_processes` — ``k``-set agreement among ``n <= k``
  processes with *nothing*: everyone decides its own input;
* :func:`group_partition_processes` — ``k``-set agreement among
  ``m · k`` processes from ``k`` ``m``-consensus objects (partition into
  ``k`` groups; each group runs consensus on its own object). This is
  the protocol behind ``n_k >= m·k`` for ``m``-consensus;
* :class:`StrongSaProcess` — ``k``-set agreement (``k >= c``) among
  *any* number of processes from one strong ``c``-SA object;
* :class:`NkSaProcess` — ``k``-set agreement among up to ``n_k``
  processes from one ``(n_k, k)``-SA object (the defining use);
* :func:`collection_partition` — mixed collections of the above.

The ``O'_n`` bundle protocol, which the product runs, is
:mod:`repro.protocols.set_agreement`.
"""

from typing import Hashable, List, Sequence

from repro.core.set_agreement import StrongSetAgreementSpec
from repro.errors import SpecificationError
from repro.objects.consensus import MConsensusSpec
from repro.protocols.set_agreement import _ProposeDecideProcess
from repro.runtime.events import Action, Decide, Invoke
from repro.runtime.process import ProcessAutomaton
from repro.types import ProcessId, Value, op, require
from tests.oracles import FunctionalAutomaton


def trivial_processes(inputs: Sequence[Value]) -> List[ProcessAutomaton]:
    """Everyone decides its own input: k-set agreement for ``n <= k``."""

    def make(pid: ProcessId, value: Value) -> FunctionalAutomaton:
        return FunctionalAutomaton(
            pid=pid,
            initial="done",
            action=lambda _state, v=value: Decide(v),
            update=lambda state, _response: state,
        )

    return [make(pid, value) for pid, value in enumerate(inputs)]


class GroupConsensusProcess(ProcessAutomaton):
    """One participant of the group-partition protocol.

    Process ``pid`` belongs to group ``pid // m`` and proposes to that
    group's consensus object; it decides the response. With ``k`` groups
    of ``m``, at most ``k`` distinct values are decided, each some group
    member's input — ``k``-set agreement among ``m·k`` processes.
    """

    def __init__(
        self,
        pid: ProcessId,
        value: Value,
        group_size: int,
        obj_prefix: str = "CONS",
    ) -> None:
        super().__init__(pid)
        require(group_size >= 1, SpecificationError, "group size must be >= 1")
        self.value = value
        self.group = pid // group_size
        self.obj = f"{obj_prefix}{self.group}"

    def initial_state(self) -> Hashable:
        return ("propose",)

    def next_action(self, state: Hashable) -> Action:
        if state[0] == "propose":
            return Invoke(self.obj, op("propose", self.value))
        return Decide(state[1])

    def transition(self, state: Hashable, response: Value) -> Hashable:
        return ("decided", response)


def group_partition_processes(
    inputs: Sequence[Value],
    group_size: int,
    obj_prefix: str = "CONS",
) -> List[GroupConsensusProcess]:
    """Instantiate the group-partition protocol over ``inputs``.

    With ``len(inputs) = m·k`` and ``group_size = m`` this solves
    ``k``-set agreement using objects ``CONS0 .. CONS{k-1}`` (each an
    ``m``-consensus spec — see :func:`group_partition_objects`).
    """
    return [
        GroupConsensusProcess(pid, value, group_size, obj_prefix)
        for pid, value in enumerate(inputs)
    ]


def group_partition_objects(
    num_processes: int, group_size: int, obj_prefix: str = "CONS"
) -> dict:
    """Consensus objects for :func:`group_partition_processes`."""
    groups = (num_processes + group_size - 1) // group_size
    return {
        f"{obj_prefix}{g}": MConsensusSpec(group_size) for g in range(groups)
    }


class StrongSaProcess(_ProposeDecideProcess):
    """Decide a strong ``c``-SA object's answer to your proposal.

    At most ``c`` distinct responses ever leave the object, and all are
    proposed values — so this solves ``k``-set agreement for any
    ``k >= c`` among any number of processes (Section 4).
    """

    def __init__(self, pid: ProcessId, value: Value, obj: str = "SA") -> None:
        super().__init__(pid, value, obj, op("propose", value))


def strong_sa_processes(
    inputs: Sequence[Value], obj: str = "SA"
) -> List[StrongSaProcess]:
    """Instantiate :class:`StrongSaProcess` per input."""
    return [StrongSaProcess(pid, value, obj) for pid, value in enumerate(inputs)]


class NkSaProcess(_ProposeDecideProcess):
    """Decide an ``(n, k)``-SA object's answer (one propose per process)."""

    def __init__(self, pid: ProcessId, value: Value, obj: str = "NKSA") -> None:
        super().__init__(pid, value, obj, op("propose", value))


def collection_partition(
    inputs: Sequence[Value],
    plan: Sequence[tuple],
) -> tuple:
    """Set-consensus *collections*: mixed groups of consensus and SA.

    The paper's discussion (and [7], which it refutes a conjecture of)
    concerns collections of set agreement capabilities. This builder
    partitions the processes into groups, each served by its own
    object, and returns ``(objects, processes, k_total)`` where
    ``k_total`` bounds the number of distinct decisions:

    * ``("consensus", m)`` — the next ``m`` processes share one
      ``m``-consensus object (contributes 1 decision value);
    * ``("strong_sa", c, size)`` — the next ``size`` processes share
      one strong ``c``-SA object (contributes at most ``c`` values).

    The plan must cover ``len(inputs)`` processes exactly. The result
    solves ``k_total``-set agreement among all of them — model-checked
    in ``tests/protocols/test_set_agreement_protocols.py``.
    """
    objects: dict = {}
    processes: List[ProcessAutomaton] = []
    cursor = 0
    k_total = 0
    for index, group in enumerate(plan):
        kind = group[0]
        if kind == "consensus":
            _kind, m = group
            name = f"COLL{index}_CONS"
            objects[name] = MConsensusSpec(m)
            members = range(cursor, cursor + m)
            k_total += 1
            for pid in members:
                processes.append(
                    _ProposeDecideProcess(
                        pid, inputs[pid], name, op("propose", inputs[pid])
                    )
                )
            cursor += m
        elif kind == "strong_sa":
            _kind, c, size = group
            name = f"COLL{index}_SA"
            objects[name] = StrongSetAgreementSpec(c)
            members = range(cursor, cursor + size)
            k_total += c
            for pid in members:
                processes.append(
                    StrongSaProcess(pid, inputs[pid], obj=name)
                )
            cursor += size
        else:
            raise SpecificationError(f"unknown group kind {kind!r}")
    if cursor != len(inputs):
        raise SpecificationError(
            f"plan covers {cursor} processes, inputs have {len(inputs)}"
        )
    return objects, processes, k_total
