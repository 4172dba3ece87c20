"""The ``n``-DAC problem — Section 4.

:class:`DacTask` is the *problem* statement of [9] reproduced in the
paper: ``n >= 2`` processes with binary inputs must decide a common
binary value; one distinguished process ``p`` may *abort* instead. The
class bundles the Agreement / Validity / Nontriviality safety predicate
used by the explorer and the simulation harness (experiments E3 and
E5). Termination is a liveness property and is checked by the
run/exploration machinery, not by this predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..errors import SpecificationError
from ..types import ProcessId, Value, require


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
