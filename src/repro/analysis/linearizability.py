"""Linearizability checking (Herlihy & Wing [11]; Wing & Gong search).

The paper's notion of "object A implements object B" is wait-free
linearizable implementation: every concurrent history of the
implementation must be *linearizable* with respect to B's sequential
specification. This module decides linearizability of a recorded
:class:`~repro.runtime.history.ConcurrentHistory` against any
:class:`~repro.objects.spec.SequentialSpec`:

* completed operations must all be placed, in an order extending the
  real-time precedence order, such that the spec produces exactly the
  observed responses;
* pending operations (invoked, never responded) may either be dropped
  (they never took effect) or placed with *any* response the spec
  allows (they took effect before the crash/cut).

Nondeterministic specs are handled by branching over the outcomes whose
response matches the observation. The search is the classical Wing–Gong
backtracking with memoization on (set of linearized op ids, spec
state) — exact, exponential worst case, fast on the histories our
harnesses produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Set, Tuple

from ..errors import NotLinearizableError
from ..objects.spec import SequentialSpec
from ..runtime.history import CompletedOp, ConcurrentHistory
from ..types import Value


@dataclass(frozen=True)
class LinearizabilityVerdict:
    """Outcome of a linearizability check.

    ``ok`` — True iff the history is linearizable; ``linearization`` —
    a witness order of op ids (completed ops plus any pending ops the
    witness chose to take effect); ``explanation`` — why the check
    failed, when it did.
    """

    ok: bool
    linearization: Tuple[int, ...] = ()
    explanation: str = ""


class LinearizabilityChecker:
    """Checks histories against one sequential specification.

    The Wing–Gong search caches failed (linearized-set, spec-state)
    pairs, so no such pair is searched twice.
    """

    def __init__(self, spec: SequentialSpec) -> None:
        self.spec = spec

    def check(self, history: ConcurrentHistory) -> LinearizabilityVerdict:
        """Decide whether ``history`` is linearizable w.r.t. the spec."""
        operations = history.operations()
        completed = [entry for entry in operations if not entry.pending]
        pending = [entry for entry in operations if entry.pending]
        by_id: Dict[int, CompletedOp] = {entry.op_id: entry for entry in operations}

        # Precedence: op A must precede op B iff A responded before B
        # was invoked. Precompute the predecessor sets over completed
        # ops (pending ops are never forced-before anything: they have
        # no response; completed ops may be forced before pending ones).
        preds: Dict[int, Set[int]] = {entry.op_id: set() for entry in operations}
        for first in completed:
            for second in operations:
                if first.op_id == second.op_id:
                    continue
                if history.precedes(first, second):
                    preds[second.op_id].add(first.op_id)

        all_completed_ids = frozenset(entry.op_id for entry in completed)
        pending_ids = frozenset(entry.op_id for entry in pending)

        memo: Set[Tuple[FrozenSet[int], Hashable]] = set()
        witness: List[int] = []

        def feasible(placed: FrozenSet[int], state: Hashable) -> bool:
            """Can the remaining completed ops all be linearized?"""
            if all_completed_ids <= placed:
                return True
            key = (placed, state)
            if key in memo:
                return False
            # Candidates: unplaced ops whose forced predecessors are
            # all placed. Pending ops are optional, so they are
            # candidates too but never *required*.
            for entry in operations:
                if entry.op_id in placed:
                    continue
                if not preds[entry.op_id] <= placed:
                    continue
                outcomes = self.spec.responses(state, entry.operation)
                for next_state, response in outcomes:
                    if not entry.pending and not _responses_match(
                        response, entry.response
                    ):
                        continue
                    witness.append(entry.op_id)
                    if feasible(placed | {entry.op_id}, next_state):
                        return True
                    witness.pop()
            memo.add(key)
            return False

        if feasible(frozenset(), self.spec.initial_state()):
            return LinearizabilityVerdict(ok=True, linearization=tuple(witness))
        return LinearizabilityVerdict(
            ok=False,
            explanation=(
                f"no linearization of {len(completed)} completed operations "
                f"(+{len(pending)} pending) matches the "
                f"{self.spec.kind} specification"
            ),
        )

    def require(self, history: ConcurrentHistory) -> Tuple[int, ...]:
        """Check and raise :class:`NotLinearizableError` on failure."""
        verdict = self.check(history)
        if not verdict.ok:
            raise NotLinearizableError(verdict.explanation)
        return verdict.linearization


def _responses_match(spec_response: Value, observed: Value) -> bool:
    """Spec/observation response equality (identity for sentinels)."""
    if spec_response is observed:
        return True
    try:
        return bool(spec_response == observed)
    except Exception:  # uncomparable values are simply unequal
        return False


def check_linearizable(
    history: ConcurrentHistory, spec: SequentialSpec
) -> LinearizabilityVerdict:
    """Convenience wrapper: one-off check of a history against a spec."""
    return LinearizabilityChecker(spec).check(history)
