"""The ``n``-DAC problem and the abortable ``n``-DAC object — Section 4.

Two artifacts live here:

* :class:`DacTask` — the *problem* statement of [9] reproduced in the
  paper: ``n >= 2`` processes with binary inputs must decide a common
  binary value; one distinguished process ``p`` may *abort* instead.
  The class bundles the Agreement / Validity / Nontriviality safety
  predicate used by the explorer and the simulation harness
  (experiments E3 and E5). Termination is a liveness property and is
  checked by the run/exploration machinery, not by this predicate.

* :class:`AbortableDacSpec` — a directly-usable ``n``-DAC *object*. The
  object of [9] aborts nondeterministically when operations are
  concurrent; in a linearized (atomic-step) world, concurrency at the
  object is visible only as *interleaving*, which is exactly the signal
  the paper's ``n``-PAC object reconstructs with its ``L`` variable.
  We therefore expose the determinized behaviour: a port's
  propose-then-decide round trip aborts iff another port's operation
  landed in between. This is precisely the object one obtains by
  running the paper's propose/decide simulation on an ``n``-PAC object,
  and we *test* that correspondence rather than assume it
  (``tests/core/test_dac.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Mapping, Optional, Sequence, Tuple

from ..errors import SpecificationError
from ..types import ABORT, BOTTOM, Operation, ProcessId, Value, require
from ..objects.spec import Outcome, SequentialSpec


@dataclass(frozen=True)
class DacVerdict:
    """Result of auditing one completed execution against the n-DAC spec.

    ``ok`` — True when every safety property holds; ``violations`` —
    human-readable explanations otherwise.
    """

    ok: bool
    violations: Tuple[str, ...] = ()


class DacTask:
    """The ``n``-DAC decision task (binary inputs, distinguished ``p``).

    * **Agreement** — all decided values are equal.
    * **Validity** — any decided value is the input of a process that
      did not abort.
    * **Nontriviality** — if ``p`` aborts, some other process took at
      least one step.
    * **Termination** — (a) if ``p`` takes infinitely many steps it
      decides or aborts; (b) if any other process runs solo forever it
      decides. (Liveness; checked by the explorer's solo-run analysis.)
    """

    def __init__(self, n: int, distinguished: ProcessId = 0) -> None:
        require(n >= 2, SpecificationError, f"n-DAC requires n >= 2, got {n}")
        require(
            0 <= distinguished < n,
            SpecificationError,
            f"distinguished process {distinguished} out of range for n={n}",
        )
        self.n = n
        self.distinguished = distinguished

    def check(
        self,
        inputs: Mapping[ProcessId, Value],
        decisions: Mapping[ProcessId, Value],
        aborted: Sequence[ProcessId] = (),
        steps_taken: Optional[Mapping[ProcessId, int]] = None,
    ) -> DacVerdict:
        """Audit a completed (or truncated) execution's outcomes.

        ``decisions`` maps each decided process to its decision;
        ``aborted`` lists processes that aborted; ``steps_taken`` (if
        given) enables the Nontriviality check.
        """
        violations = []
        values = sorted({repr(v) for v in decisions.values()})
        if len(values) > 1:
            violations.append(f"agreement: multiple decisions {values}")
        aborted_set = set(aborted)
        non_aborted_inputs = {
            inputs[pid] for pid in inputs if pid not in aborted_set
        }
        for pid, value in decisions.items():
            if value not in non_aborted_inputs:
                violations.append(
                    f"validity: process {pid} decided {value!r}, not the "
                    f"input of any non-aborting process"
                )
        if self.distinguished in aborted_set and steps_taken is not None:
            others_moved = any(
                steps_taken.get(pid, 0) > 0
                for pid in inputs
                if pid != self.distinguished
            )
            if not others_moved:
                violations.append(
                    "nontriviality: the distinguished process aborted while "
                    "running alone"
                )
        if self.distinguished in decisions and self.distinguished in aborted_set:
            violations.append(
                "the distinguished process both decided and aborted"
            )
        for pid in aborted_set:
            if pid != self.distinguished:
                violations.append(
                    f"process {pid} aborted but only the distinguished "
                    f"process may abort"
                )
        return DacVerdict(ok=not violations, violations=tuple(violations))


@dataclass(frozen=True)
class DacObjectState:
    """Determinized abortable-DAC state: ``pac`` is an embedded
    ``n``-PAC state (the propose/decide pairing is performed internally
    by the composite operation)."""

    pac: Hashable


class AbortableDacSpec(SequentialSpec):
    """A one-step-per-round-trip view of the abortable ``n``-DAC object.

    ``try_propose(v, port)`` performs the paper's simulation —
    ``PROPOSE(v, port)`` followed immediately by ``DECIDE(port)`` on an
    internal ``n``-PAC — as a *single atomic* operation. Because the
    pair is atomic, no operation can intervene, so the round trip never
    aborts spuriously; the object aborts (answers :data:`ABORT`) exactly
    when the embedded PAC is upset, i.e. when the port discipline was
    violated — the atomic-world image of "concurrent operations on a
    port".

    This object exists for client code that wants DAC semantics without
    managing the two-step PAC protocol; the *interesting* executions —
    where interleavings between the propose and the decide cause aborts
    — are produced by running :class:`~repro.protocols.dac_from_pac`
    (Algorithm 2) on a raw ``n``-PAC object under an adversarial
    scheduler.
    """

    kind = "abortable-DAC"
    deterministic = True

    def __init__(self, n: int) -> None:
        # Imported here: the task checks (and so a warm check-algorithm2
        # cache hit) never need the PAC object.
        from .pac import NPacSpec

        require(n >= 2, SpecificationError, f"n-DAC requires n >= 2, got {n}")
        self.n = n
        self.kind = f"{n}-DAC"
        self._pac = NPacSpec(n)

    def initial_state(self) -> Hashable:
        return DacObjectState(pac=self._pac.initial_state())

    def operation_names(self) -> Tuple[str, ...]:
        return ("try_propose",)

    def responses(self, state: Hashable, operation: Operation) -> Sequence[Outcome]:
        from ..types import op as make_op  # local import avoids cycle at module load

        assert isinstance(state, DacObjectState)
        if operation.name != "try_propose":
            from ..objects.spec import reject_unknown

            reject_unknown(self, operation)
        if len(operation.args) != 2:
            from ..errors import InvalidOperationError

            raise InvalidOperationError(
                f"{self.kind}: try_propose expects (value, port), got {operation}"
            )
        value, port = operation.args
        pac_state, _done = self._pac.apply(
            state.pac, make_op("propose", value, port)
        )
        pac_state, decided = self._pac.apply(pac_state, make_op("decide", port))
        response: Value = ABORT if decided is BOTTOM else decided
        return ((DacObjectState(pac=pac_state), response),)
