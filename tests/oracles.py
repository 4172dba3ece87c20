"""Reference objects, adversaries and auditors the tests check the
product against.

* :class:`AbortableDacSpec` — the abortable ``n``-DAC *object* as one
  atomic operation. The object of [9] aborts nondeterministically when
  operations are concurrent; in a linearized (atomic-step) world,
  concurrency at the object is visible only as *interleaving*, which is
  exactly the signal the paper's ``n``-PAC object reconstructs with its
  ``L`` variable. This is the determinized behaviour: a port's
  propose-then-decide round trip aborts iff another port's operation
  landed in between — the object one obtains by running the paper's
  propose/decide simulation on an ``n``-PAC object
  (``tests/core/test_dac.py`` checks that correspondence).
* :class:`FunctionalAutomaton` — a small process automaton from three
  plain functions, for hand-built test protocols;
* :class:`SoloScheduler` / :class:`BlockingScheduler` — adversaries:
  one process runs alone (the "q-solo histories" the proofs lean on),
  or a victim set runs only after the rest finish (crashes);
* :func:`audit_wait_freedom` — per-process step bounds: a wait-free
  protocol must decide within a known bound of its own steps;
* :func:`reference_run_bfs` — the kernel walk in its plainest form:
  expand a configuration, then scan its adjacency. The backends'
  ``run_bfs`` must return what it returns and leave the kernel as it
  leaves it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, List, Optional, Sequence, Tuple

from repro.core.pac import NPacSpec
from repro.errors import InvalidOperationError, SchedulingError, SpecificationError
from repro.objects.spec import Outcome, SequentialSpec, reject_unknown
from repro.runtime.events import Action
from repro.runtime.history import RunHistory
from repro.runtime.process import ProcessAutomaton
from repro.runtime.scheduler import RoundRobinScheduler, Scheduler
from repro.types import ABORT, BOTTOM, Operation, ProcessId, Value, op, require


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

    The *interesting* executions — where interleavings between the
    propose and the decide cause aborts — are produced by running
    :mod:`repro.protocols.dac_from_pac` (Algorithm 2) on a raw
    ``n``-PAC object under an adversarial scheduler.
    """

    kind = "abortable-DAC"
    deterministic = True

    def __init__(self, n: int) -> None:
        require(n >= 2, SpecificationError, f"n-DAC requires n >= 2, got {n}")
        self.n = n
        self.kind = f"{n}-DAC"
        self._pac = NPacSpec(n)

    def initial_state(self) -> Hashable:
        return DacObjectState(pac=self._pac.initial_state())

    def operation_names(self) -> Tuple[str, ...]:
        return ("try_propose",)

    def responses(self, state: Hashable, operation: Operation) -> Sequence[Outcome]:
        assert isinstance(state, DacObjectState)
        if operation.name != "try_propose":
            reject_unknown(self, operation)
        if len(operation.args) != 2:
            raise InvalidOperationError(
                f"{self.kind}: try_propose expects (value, port), got {operation}"
            )
        value, port = operation.args
        pac_state, _done = self._pac.apply(state.pac, op("propose", value, port))
        pac_state, decided = self._pac.apply(pac_state, op("decide", port))
        response: Value = ABORT if decided is BOTTOM else decided
        return ((DacObjectState(pac=pac_state), response),)


class FunctionalAutomaton(ProcessAutomaton):
    """Build a small automaton from three plain functions."""

    def __init__(
        self,
        pid: ProcessId,
        initial: Hashable,
        action: Callable[[Hashable], Action],
        update: Callable[[Hashable, Value], Hashable],
    ) -> None:
        super().__init__(pid)
        self._initial = initial
        self._action = action
        self._update = update

    def initial_state(self) -> Hashable:
        return self._initial

    def next_action(self, state: Hashable) -> Action:
        return self._action(state)

    def transition(self, state: Hashable, response: Value) -> Hashable:
        return self._update(state, response)


class SoloScheduler(Scheduler):
    """Run exactly one process; error if it is not enabled.

    Solo runs are the workhorse of the paper's proofs (Termination (b)
    of the n-DAC problem is a solo-run guarantee).
    """

    def __init__(self, pid: ProcessId) -> None:
        self.pid = pid

    def choose(self, enabled: Sequence[ProcessId], step_index: int) -> ProcessId:
        if self.pid not in enabled:
            raise SchedulingError(
                f"scheduler chose process {self.pid}, which is not enabled "
                f"(enabled: {list(enabled)})"
            )
        return self.pid


class BlockingScheduler(Scheduler):
    """Suppress a victim set until every other process is done.

    Models crashes: a crashed process is one the scheduler stops
    picking. If only victims remain enabled, they run round-robin (the
    adversary cannot suppress everyone forever in a run that must make
    progress).
    """

    def __init__(self, victims: Sequence[ProcessId]) -> None:
        self.victims = frozenset(victims)
        self._fallback = RoundRobinScheduler()

    def choose(self, enabled: Sequence[ProcessId], step_index: int) -> ProcessId:
        preferred = [pid for pid in enabled if pid not in self.victims]
        pool = preferred if preferred else list(enabled)
        return self._fallback.choose(pool, step_index)


@dataclass(frozen=True)
class WaitFreedomAudit:
    """Step counts of processes that terminated vs. the bound."""

    ok: bool
    offenders: Tuple[Tuple[ProcessId, int], ...] = ()


def audit_wait_freedom(
    history: RunHistory,
    step_bound: int,
    exempt: Sequence[ProcessId] = (),
) -> WaitFreedomAudit:
    """Check that every terminated process used at most ``step_bound``
    of its *own* steps.

    ``exempt`` lists processes the bound does not apply to (e.g. the
    non-distinguished n-DAC processes, whose termination guarantee is
    solo-run only, so an adversary may legitimately starve them into
    many retries).
    """
    counts = history.steps_by_pid
    terminated = (
        set(history.decisions) | set(history.aborted) | set(history.halted)
    )
    offenders = tuple(
        (pid, counts.get(pid, 0))
        for pid in sorted(terminated)
        if pid not in exempt and counts.get(pid, 0) > step_bound
    )
    return WaitFreedomAudit(ok=not offenders, offenders=offenders)


def reference_run_bfs(
    backend,
    start_id: int,
    max_configurations: int,
    on_round: Optional[Callable[[int, int, int], None]] = None,
) -> Tuple[List[int], List[int], bool, int, int]:
    """``backend.run_bfs`` as expand-then-scan, through the public API.

    Each frontier cid is expanded in full (``backend.expand`` records
    its adjacency), then its adjacency is scanned for successors this
    walk has not seen. The budget is charged per newly discovered
    successor; the walk stops at the first one past it, so the
    truncating cid's adjacency is recorded and later frontier members
    stay unexpanded.
    """
    if not 0 <= start_id < len(backend):
        raise IndexError(f"unknown configuration id {start_id}")
    seen = {start_id}
    order = [start_id]
    parents: List[int] = []
    frontier = [start_id]
    expansions = 0
    rounds = 0
    while frontier:
        if on_round is not None:
            on_round(rounds, len(frontier), len(seen))
        next_frontier: List[int] = []
        for cid in frontier:
            expansions += 1
            adj = backend.expand(cid)
            for k in range(0, len(adj), 2):
                eid, tid = adj[k], adj[k + 1]
                if tid in seen:
                    continue
                if len(seen) >= max_configurations:
                    return order, parents, False, expansions, rounds
                seen.add(tid)
                order.append(tid)
                parents += (tid, cid, eid)
                next_frontier.append(tid)
        rounds += 1
        frontier = next_frontier
    return order, parents, True, expansions, rounds
