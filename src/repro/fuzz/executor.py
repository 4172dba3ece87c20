"""Deterministic gene interpretation: any int sequence is a valid run.

Schedules and nondeterministic responses are fuzzed together as one
*gene* sequence: gene ``k`` is an ``(s, c)`` pair of non-negative ints,
interpreted against the live configuration exactly the way AFL-style
fuzzers interpret a byte string against a grammar —

* the moving process is ``enabled[s % len(enabled)]``;
* the adversary's response choice is ``c % len(outcomes)`` among that
  process's outcomes (object nondeterminism, e.g. the 2-SA's "either
  of the first two proposals").

Reduction modulo the *current* option count makes every gene sequence
executable: mutation and delta-debugging never produce an invalid
schedule, only a different one. Interpretation is a pure function of
(target, genes) — no clocks, no global RNG, no hash-order iteration —
so a gene sequence IS a replayable artifact, and the executed
:class:`~repro.analysis.explorer.Edge` list bridges into the strict
scripted replay of :mod:`repro.analysis.replay`.

Coverage is *novel configurations*: the target's explorer interns
every configuration into the packed kernel's dense-id row table, and
the caller's seen-set holds the ids its runs visited, so "id not in
the set" is exactly "configuration never visited by an earlier run
under this set" — the feedback signal that decides which gene
sequences enter the corpus.

The interpreter itself runs on packed ids: each step looks up the
current configuration's enabled set and task verdict (memoized per id,
both decoded from the status row once per distinct row) and picks an
edge from the mover's options, split out of the kernel's full
expansion once per configuration. It builds no ``Configuration``: a
run carries its final id, decoded only when asked for. Successor ids
come from the same full-expansion order as the old object-level loop,
so coverage and corpus decisions are bit-identical to the pre-kernel
executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..analysis.explorer import Edge, Explorer
from ..protocols.tasks import SafetyVerdict
from .target import FuzzTarget

#: One fuzz decision: (scheduler gene, response-choice gene).
Gene = Tuple[int, int]
Genes = Tuple[Gene, ...]

#: Finding kinds. ``FindingKind`` is a plain str for picklability.
SAFETY = "safety"
CYCLE = "cycle"


@dataclass(frozen=True)
class GeneRun:
    """The outcome of interpreting one gene sequence.

    ``kind`` is ``"safety"`` (the task's predicate failed at the final
    configuration), ``"cycle"`` (a configuration repeated within the
    run while some mover is still running — the in-run face of a
    livelock), or None (budget exhausted or the run went quiescent).
    ``steps`` counts the genes actually consumed; trailing genes that
    were never interpreted (run ended first) are reported so shrinking
    can drop them wholesale. ``new_coverage`` is the number of
    configurations this run visited first, against the seen-set it was
    executed under (its shard's). ``final_id`` is the
    final configuration's id in the executor's explorer.
    """

    edges: Tuple[Edge, ...]
    final_id: int
    kind: Optional[str]
    verdict: Optional[SafetyVerdict]
    cycle_start: Optional[int]
    steps: int
    new_coverage: int

    @property
    def violating(self) -> bool:
        return self.kind is not None


class FuzzExecutor:
    """Interpret gene sequences against one target's explorer.

    One executor = one :class:`~repro.analysis.explorer.Explorer`, so
    successor memoization and the intern table amortize across the
    whole campaign — every shard of a request in one process, the
    shrinker and the renderer — and re-executing a mutated prefix costs
    dictionary lookups, not transition recomputation. Executions share
    nothing else: coverage is the caller's set, and a run's outcome is
    a function of the target and the genes alone.
    """

    def __init__(self, target: FuzzTarget, max_steps: int = 64) -> None:
        self.target = target
        self.max_steps = max_steps
        self.explorer = Explorer(target.objects, target.processes)
        self._initial = self.explorer.initial_configuration()
        self._initial_id = self.explorer.intern_id(self._initial)
        #: status-code row -> memoized task verdict: safety is a pure
        #: function of the status segment, so one predicate call per
        #: distinct row covers every configuration sharing it.
        self._verdicts: Dict[Tuple[int, ...], SafetyVerdict] = {}
        #: id -> (enabled pids, task verdict) of a reached configuration.
        self._facts: Dict[int, Tuple[Tuple[int, ...], SafetyVerdict]] = {}
        #: id -> per-pid (edge, successor id) options, in the kernel's
        #: full-expansion order: one split per configuration moved from.
        self._moves: Dict[int, Dict[int, List[Tuple[Edge, int]]]] = {}
        #: Total :meth:`execute` calls over this executor's lifetime —
        #: campaign executions *plus* shrinker probes, of every shard
        #: that shares the executor.
        self.executions = 0

    def execute(
        self, genes: Genes, coverage: Optional[Set[int]] = None
    ) -> GeneRun:
        """Run ``genes`` (up to ``max_steps`` of them) from the initial
        configuration. ``coverage`` is the shard's seen-id set; pass
        None for side-effect-free evaluation (the shrinker does)."""
        self.executions += 1
        facts = self._facts
        moves = self._moves
        detect_cycles = self.target.detect_cycles
        cid = self._initial_id
        fact = facts.get(cid) or self._reached(cid)
        new_coverage = 0
        if coverage is not None and cid not in coverage:
            coverage.add(cid)
            new_coverage += 1
        visited_at: Dict[int, int] = {cid: 0}
        edges: List[Edge] = []
        kind: Optional[str] = None
        verdict: Optional[SafetyVerdict] = None
        cycle_start: Optional[int] = None
        steps = 0
        for scheduler_gene, choice_gene in genes[: self.max_steps]:
            enabled = fact[0]
            if not enabled:
                break
            by_pid = moves.get(cid) or self._split_moves(cid)
            options = by_pid[enabled[scheduler_gene % len(enabled)]]
            edge, cid = options[choice_gene % len(options)]
            edges.append(edge)
            steps += 1
            if coverage is not None and cid not in coverage:
                coverage.add(cid)
                new_coverage += 1
            fact = facts.get(cid) or self._reached(cid)
            if not fact[1].ok:
                kind = SAFETY
                verdict = fact[1]
                break
            first_seen = visited_at.get(cid)
            if first_seen is not None:
                # The run returned to an earlier configuration: every
                # pid that moved inside the window was RUNNING then and
                # (statuses being part of the configuration) is RUNNING
                # again now — an adversary looping these genes forever
                # starves it without a decision.
                if detect_cycles:
                    kind = CYCLE
                    cycle_start = first_seen
                    break
            else:
                visited_at[cid] = steps
        return GeneRun(
            edges=tuple(edges),
            final_id=cid,
            kind=kind,
            verdict=verdict,
            cycle_start=cycle_start,
            steps=steps,
            new_coverage=new_coverage,
        )

    def _reached(self, cid: int) -> Tuple[Tuple[int, ...], SafetyVerdict]:
        explorer = self.explorer
        skey = explorer._backend.status_key(cid)
        decisions, aborted, enabled = explorer._segment_info(skey)
        verdict = self._verdicts.get(skey)
        if verdict is None:
            target = self.target
            verdict = target.task.check_safety(target.inputs, decisions, aborted)
            self._verdicts[skey] = verdict
        fact = (enabled, verdict)
        self._facts[cid] = fact
        return fact

    def _split_moves(self, cid: int) -> Dict[int, List[Tuple[Edge, int]]]:
        by_pid: Dict[int, List[Tuple[Edge, int]]] = {}
        for entry in self.explorer._successor_entries(cid):
            by_pid.setdefault(entry[0].pid, []).append(entry)
        self._moves[cid] = by_pid
        return by_pid
