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

Coverage is *novel interned configurations*: the target's explorer
interns every configuration it ever sees into the packed kernel's
dense-id row table, so "new id allocated" is exactly "configuration
never visited by any earlier run of this campaign" — the feedback
signal that decides which gene sequences enter the corpus.

The interpreter itself runs on packed ids: each step reads the current
configuration's status row (enabled set, decisions, aborts are all
functions of it, memoized per distinct row), picks an edge from the
kernel's flat adjacency, and only materializes a ``Configuration``
dataclass once — for the run's final state. Successor ids come from the
same full-expansion order as the old object-level loop, so coverage ids
and corpus decisions are bit-identical to the pre-kernel executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..analysis.explorer import Configuration, Edge, Explorer
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
    configurations this run interned for the first time, against the
    campaign-wide seen-set it was executed under.
    """

    edges: Tuple[Edge, ...]
    final: Configuration
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
    whole campaign: re-executing a mutated prefix costs dictionary
    lookups, not transition recomputation.
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
        #: Total :meth:`execute` calls over this executor's lifetime —
        #: campaign executions *plus* shrinker probes, so the engine can
        #: report shrink cost as the difference.
        self.executions = 0

    def execute(
        self, genes: Genes, coverage: Optional[Set[int]] = None
    ) -> GeneRun:
        """Run ``genes`` (up to ``max_steps`` of them) from the initial
        configuration. ``coverage`` is the campaign's seen-id set; pass
        None for side-effect-free evaluation (the shrinker does)."""
        self.executions += 1
        explorer = self.explorer
        backend = explorer._backend
        segment_info = explorer._segment_info
        successor_entries = explorer._successor_entries
        task = self.target.task
        inputs = self.target.inputs
        detect_cycles = self.target.detect_cycles
        verdicts = self._verdicts
        cid = self._initial_id
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
            skey = backend.status_key(cid)
            enabled = segment_info(skey)[2]
            if not enabled:
                break
            pid = enabled[scheduler_gene % len(enabled)]
            options = [
                entry
                for entry in successor_entries(cid)
                if entry[0].pid == pid
            ]
            edge, cid = options[choice_gene % len(options)]
            edges.append(edge)
            steps += 1
            if coverage is not None and cid not in coverage:
                coverage.add(cid)
                new_coverage += 1
            skey = backend.status_key(cid)
            checked = verdicts.get(skey)
            if checked is None:
                decisions, aborted, _ = segment_info(skey)
                checked = task.check_safety(inputs, decisions, aborted)
                verdicts[skey] = checked
            if not checked.ok:
                kind = SAFETY
                verdict = checked
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
            final=explorer.interned(cid),
            kind=kind,
            verdict=verdict,
            cycle_start=cycle_start,
            steps=steps,
            new_coverage=new_coverage,
        )
