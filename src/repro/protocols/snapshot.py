"""Wait-free atomic snapshot from plain registers (Afek et al. 1993).

The construction that closes the register level of the hierarchy: an
atomic ``scan``/``update`` object built from single-writer registers
only. Each register ``R{i}`` holds a triple ``(seq, value, view)``:

* ``update(i, v)`` (by process ``i``): perform an *embedded scan*,
  then write ``(seq + 1, v, that scan's view)``;
* ``scan()``: repeatedly *collect* (read all registers). If two
  consecutive collects are identical, return their values — the scan
  "flew between" all updates (a clean double collect linearizes at any
  point between the two collects). Otherwise, any process observed to
  move **twice** must have completed an entire update — and hence an
  entire embedded scan — strictly inside our scan's interval; borrow
  its embedded view, which is a valid snapshot inside our interval.

Wait-freedom: a scan does at most ``n + 2`` collects (after ``n + 2``
collects some process moved twice by pigeonhole); an update is a scan
plus one write.

This is a substrate demonstration — the same
:class:`~repro.protocols.implementation.Implementation` +
linearizability-checker pipeline that validates the paper's Lemma 6.4
and Observation 5.1 implementations validates a genuinely subtle
classical construction (experiment-grade test:
``tests/protocols/test_snapshot.py``).
"""

from __future__ import annotations

from typing import Any, Dict

from ..errors import InvalidOperationError, SpecificationError
from ..objects.register import RegisterSpec
from ..objects.snapshot import SnapshotSpec
from ..objects.spec import SequentialSpec
from ..runtime.events import Invoke
from ..types import NIL, Operation, ProcessId, Value, op, require
from .implementation import Implementation, OperationProgram

#: Register contents: (sequence number, value, embedded view or None).
_INITIAL_CELL = (0, NIL, None)


class AfekSnapshotImplementation(Implementation):
    """Single-writer snapshot for ``n`` processes from ``n`` registers."""

    def __init__(self, n: int, initial: Value = NIL) -> None:
        require(n >= 1, SpecificationError, f"snapshot needs n >= 1, got {n}")
        self.n = n
        self.initial = initial
        self._target = SnapshotSpec(n, initial)

    def target_spec(self) -> SequentialSpec:
        return self._target

    def base_objects(self) -> Dict[str, SequentialSpec]:
        return {
            f"SNAP_R{i}": RegisterSpec((0, self.initial, None))
            for i in range(self.n)
        }

    # -- coroutine building blocks ------------------------------------------

    def _collect(self) -> OperationProgram:
        cells = []
        for i in range(self.n):
            cell = yield Invoke(f"SNAP_R{i}", op("read"))
            cells.append(cell)
        return tuple(cells)

    def _embedded_scan(self) -> OperationProgram:
        """The scan kernel: double collect with view borrowing."""
        moved: Dict[int, int] = {}
        previous = yield from self._collect()
        # n + 2 attempts suffice; the loop is provably bounded but we
        # keep an explicit guard so a bug fails loudly, not silently.
        for _attempt in range(self.n + 2):
            current = yield from self._collect()
            if current == previous:
                return tuple(cell[1] for cell in current)
            for i in range(self.n):
                if current[i][0] != previous[i][0]:
                    moved[i] = moved.get(i, 0) + 1
                    if moved[i] >= 2:
                        view = current[i][2]
                        if view is None:
                            raise SpecificationError(
                                "double-mover with no embedded view — "
                                "broken invariant"
                            )
                        return view
            previous = current
        raise SpecificationError(
            "snapshot scan exceeded its wait-freedom bound"
        )

    def operation_program(
        self, pid: ProcessId, operation: Operation, memory: Dict[str, Any]
    ) -> OperationProgram:
        if operation.name == "scan":
            view = yield from self._embedded_scan()
            return view
        if operation.name == "update":
            index, value = operation.args
            if index != pid:
                raise InvalidOperationError(
                    f"single-writer snapshot: process {pid} may only update "
                    f"segment {pid}, not {index}"
                )
            view = yield from self._embedded_scan()
            sequence = memory.get("sequence", 0) + 1
            memory["sequence"] = sequence
            yield Invoke(f"SNAP_R{index}", op("write", (sequence, value, view)))
            from ..types import DONE

            return DONE
        raise InvalidOperationError(
            f"snapshot supports scan/update, got {operation}"
        )

    def name(self) -> str:
        return f"Afek-snapshot[{self.n}] from registers"
