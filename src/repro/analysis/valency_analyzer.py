"""Whole-graph valency analysis with shared memoization.

:func:`repro.analysis.valency.classify` answers one configuration's
valency by exploring its reachable subgraph — fine for a handful of
queries, wasteful for the proofs' access pattern (classify *every*
configuration, then hunt for critical ones). :class:`ValencyAnalyzer`
does the whole job in two passes over a single exploration:

1. explore the reachable graph once (forward);
2. propagate decision sets backwards to a fixpoint — each
   configuration's decision set is the union of its own decisions and
   its successors' sets. Cycles are handled by iterating until nothing
   changes (the sets are small and monotone, so this converges
   quickly).

Both passes are int-keyed over the explorer's intern table, and the
fixpoint writes into the explorer's *shared* decision-set table — so a
later :func:`repro.analysis.valency.classify` (or another analyzer on
the same explorer) reuses it instead of recomputing.

On top of the per-configuration sets the analyzer offers the proofs'
vocabulary directly: bivalent configurations, *critical* configurations
(bivalent, every successor univalent — Claim 4.2.5 / 5.2.2), and the
hook-step structure around them (which process's step decides which
way).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .. import obs
from ..errors import AnalysisError
from ..types import Value
from .explorer import Configuration, Edge, ExplorationResult, Explorer
from .valency import BIVALENT, valence_label


@dataclass(frozen=True)
class HookStep:
    """One decisive step out of a critical configuration."""

    edge: Edge
    label: str


@dataclass(frozen=True)
class CriticalReport:
    """A critical configuration plus its decisive outgoing steps."""

    configuration: Configuration
    hooks: Tuple[HookStep, ...]

    def directions(self) -> Set[str]:
        return {hook.label for hook in self.hooks}


class ValencyAnalyzer:
    """Classify every reachable configuration of one protocol instance."""

    def __init__(
        self,
        explorer: Explorer,
        initial: Optional[Configuration] = None,
        domain: Tuple[Value, Value] = (0, 1),
        max_configurations: int = 200_000,
    ) -> None:
        self.explorer = explorer
        self.domain = domain
        start = initial if initial is not None else explorer.initial_configuration()
        with obs.span("valency.analyze") as span:
            self.graph: ExplorationResult = explorer.explore(
                start, max_configurations
            )
            if not self.graph.complete:
                raise AnalysisError(
                    "valency analysis needs the complete reachable graph; "
                    "raise max_configurations"
                )
            self._table = explorer.decision_table(exploration=self.graph)
            span.set(configurations=len(self.graph.order_ids))
        obs.counter("valency.analyses")
        obs.counter("valency.configurations", len(self.graph.order_ids))

    # -- queries -------------------------------------------------------------

    def decision_set(self, config: Configuration) -> FrozenSet[Value]:
        """All decision values reachable from ``config`` (memoized)."""
        assert self.graph.intern is not None
        ident = self.graph.intern.get_id(config)
        if ident is None or (
            ident != self.graph.order_ids[0]
            and ident not in self.graph.parent_ids
        ):
            raise AnalysisError(
                "configuration is not in the analyzed reachable graph"
            )
        return self._table[ident]

    def _label_of_id(self, ident: int) -> str:
        return valence_label(self._table[ident], self.domain)

    def label(self, config: Configuration) -> str:
        return valence_label(self.decision_set(config), self.domain)

    def critical_configurations(self) -> List[CriticalReport]:
        """Every critical configuration in the reachable graph.

        Critical = bivalent with all successors univalent (the shape
        Claims 4.2.5 / 5.2.2 descend to). Returns each with its hook
        steps labelled by the successor's valence.
        """
        assert self.graph.intern is not None
        value = self.graph.intern.value
        successor_ids = self.graph.successor_ids
        reports: List[CriticalReport] = []
        for ident in self.graph.order_ids:
            if self._label_of_id(ident) != BIVALENT:
                continue
            edges = successor_ids.get(ident, ())
            if not edges:
                # Terminal yet bivalent: only possible when the
                # protocol already violated agreement (two decisions
                # present); not a critical configuration in the proof
                # sense.
                continue
            labels = [
                (edge, self._label_of_id(successor))
                for edge, successor in edges
            ]
            if any(label == BIVALENT for _edge, label in labels):
                continue
            reports.append(
                CriticalReport(
                    configuration=value(ident),
                    hooks=tuple(HookStep(edge, label) for edge, label in labels),
                )
            )
        return reports

    def schedule_to(self, config: Configuration) -> List[Edge]:
        """Witness schedule from the analyzed initial configuration."""
        return self.graph.schedule_to(config)

    def summary(self) -> Dict[str, int]:
        """Counts per valency label over the whole reachable graph."""
        counts: Dict[str, int] = {}
        for ident in self.graph.order_ids:
            label = self._label_of_id(ident)
            counts[label] = counts.get(label, 0) + 1
        return counts
