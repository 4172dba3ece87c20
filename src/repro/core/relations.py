"""The implementability relation, assembled from executed evidence.

The paper's conclusions are statements about a relation between object
families: *A implements B* (instances of A plus registers wait-free
implement B), and its symmetric closure *equivalence*. This module
keeps a ledger of that relation where every edge carries evidence:

* **positive edges** are added only through :meth:`Ledger.verify` — a
  callable that actually runs a verification (typically a
  linearizability-checked implementation) must succeed first;
* **negative edges** record refuted candidate suites plus the theorem
  that generalizes them — honest provenance for statements no finite
  run can prove.

:func:`separation_report` is the one Corollary 6.6 computation. For
one hierarchy level ``n`` it populates the ledger by *running* the
paper's constructive content (Observation 5.1, Lemma 6.4, Theorem 4.1)
and the lower bounds' candidate refutations (Theorems 4.2/4.3), then
returns a :class:`SeparationReport`: same power (the labels agree, and
each object's k-set agreement cells for k = 1, 2 are certified by
running their protocols), the O_n side solved, every candidate
refuted, hence an explicit negative edge from ``O'_n`` to ``O_n``.
:func:`paper_ledger` is that report's ledger; ``repro separation`` and
``repro ledger`` both render one report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from ..errors import AnalysisError, SpecificationError
from ..types import require
from .power import SetAgreementPower, on_power, on_prime_power
from .power_certification import (
    Certification,
    certify_bundle_level,
    certify_combined_pac,
)

#: The power components whose lower bounds a report certifies.
CERTIFIED_LEVELS = (1, 2)


@dataclass(frozen=True)
class Edge:
    """One assertion ``source -> target`` with provenance."""

    source: str
    target: str
    positive: bool
    evidence: str


#: The name :mod:`repro.core` exports :class:`Edge` under.
RelationEdge = Edge


class Ledger:
    """An evidence-backed implementability relation between families."""

    def __init__(self) -> None:
        self._positive: Dict[Tuple[str, str], Edge] = {}
        self._negative: Dict[Tuple[str, str], Edge] = {}

    # -- recording -----------------------------------------------------------

    def verify(
        self,
        source: str,
        target: str,
        check: Callable[[], bool],
        evidence: str,
    ) -> Edge:
        """Record ``source implements target`` — only if ``check()``
        passes right now."""
        if not check():
            raise AnalysisError(
                f"verification failed for {source} -> {target}: {evidence}"
            )
        edge = Edge(source, target, positive=True, evidence=evidence)
        self._positive[(source, target)] = edge
        return edge

    def refute(
        self,
        source: str,
        target: str,
        candidates_refuted: int,
        theorem: str,
    ) -> Edge:
        """Record ``source does NOT implement target``, backed by a
        refuted candidate suite plus the paper's theorem."""
        require(
            candidates_refuted >= 1,
            SpecificationError,
            "a refutation edge needs at least one refuted candidate",
        )
        evidence = (
            f"{candidates_refuted} candidate(s) refuted with concrete "
            f"witnesses; generalized by {theorem}"
        )
        edge = Edge(source, target, positive=False, evidence=evidence)
        self._negative[(source, target)] = edge
        return edge

    # -- queries -------------------------------------------------------------

    def implements(self, source: str, target: str) -> bool:
        """Is ``source -> target`` derivable from positive edges?

        Uses reflexive-transitive closure: implementability composes
        (stack the implementations).
        """
        if source == target:
            return True
        frontier = [source]
        seen = {source}
        while frontier:
            node = frontier.pop()
            for (edge_source, edge_target), _edge in self._positive.items():
                if edge_source == node and edge_target not in seen:
                    if edge_target == target:
                        return True
                    seen.add(edge_target)
                    frontier.append(edge_target)
        return False

    def refuted(self, source: str, target: str) -> Optional[Edge]:
        return self._negative.get((source, target))

    def equivalent(self, a: str, b: str) -> bool:
        return self.implements(a, b) and self.implements(b, a)

    def check_consistency(self) -> List[str]:
        """Positive closure must not contradict a negative edge."""
        conflicts = []
        for (source, target), edge in self._negative.items():
            if self.implements(source, target):
                conflicts.append(
                    f"{source} -> {target} both derivable and refuted "
                    f"({edge.evidence})"
                )
        return conflicts

    def nodes(self) -> FrozenSet[str]:
        names: Set[str] = set()
        for source, target in list(self._positive) + list(self._negative):
            names.add(source)
            names.add(target)
        return frozenset(names)

    def edges(self) -> List[Edge]:
        return list(self._positive.values()) + list(self._negative.values())


def paper_ledger(n: int = 2, seeds: int = 4) -> Ledger:
    """The paper's level-``n`` relation, assembled from executed
    evidence — the ledger :func:`separation_report` builds."""
    return separation_report(n, seeds).ledger


@dataclass(frozen=True)
class SeparationReport:
    """Corollary 6.6 at level ``n``: the ledger plus the evidence it
    was built from.

    ``on_cells`` and ``on_prime_cells`` hold one certification per
    level in :data:`CERTIFIED_LEVELS`: the object solving k-set
    agreement among n_k processes, model-checked. ``candidates`` pairs
    each candidate reduction's name with its outcome: ``"safety"`` or
    ``"liveness"`` (refuted) or ``"none"`` (it survived every schedule).
    """

    n: int
    ledger: Ledger
    on_power: SetAgreementPower
    on_prime_power: SetAgreementPower
    on_cells: Tuple[Certification, ...]
    on_prime_cells: Tuple[Certification, ...]
    on_solves_dac: bool
    candidates: Tuple[Tuple[str, str], ...]

    @property
    def power_cells(self) -> Tuple[Tuple[str, Tuple[Certification, ...]], ...]:
        """``(object name, its cells)`` for ``O_n``, then ``O'_n``."""
        return (
            (f"O_{self.n}", self.on_cells),
            (f"O'_{self.n}", self.on_prime_cells),
        )

    @property
    def uncertified(self) -> Tuple[str, ...]:
        """``"<object> k=<k>"`` for each cell whose protocol failed."""
        return tuple(
            f"{name} k={cell.k}"
            for name, cells in self.power_cells
            for cell in cells
            if not cell.certified
        )

    @property
    def same_power(self) -> bool:
        """The power labels agree and every certified cell holds."""
        return (
            self.on_power.agrees_with(self.on_prime_power, 8)
            and not self.uncertified
        )

    @property
    def survivors(self) -> Tuple[str, ...]:
        """Names of the candidates no schedule refuted."""
        return tuple(
            name for name, outcome in self.candidates if outcome == "none"
        )

    @property
    def on_implements_witness_task(self) -> bool:
        return self.ledger.implements(f"O_{self.n}", f"{self.n + 1}-DAC")

    @property
    def on_prime_refuted(self) -> bool:
        return self.ledger.refuted(f"O'_{self.n}", f"O_{self.n}") is not None

    @property
    def conflicts(self) -> Tuple[str, ...]:
        return tuple(self.ledger.check_consistency())

    @property
    def reproduces_corollary_6_6(self) -> bool:
        return (
            self.same_power
            and self.on_implements_witness_task
            and not self.survivors
            and not self.conflicts
        )


def separation_report(n: int = 2, seeds: int = 4) -> SeparationReport:
    """Run the paper's level-``n`` evidence once and derive Corollary 6.6.

    Positive edges run the actual implementations through the
    linearizability harness (``seeds`` schedules each) or the explorer;
    negative edges run the candidate suite through the explorer, and
    are recorded only when every candidate is refuted. The power cells
    run O_n's group partition over its consensus faces and O'_n's own
    ``PROPOSE(v, k)`` face. Each explorer walks its graph once.
    Everything is re-verified at call time.
    """
    require(n >= 2, SpecificationError, f"levels start at n = 2, got {n}")
    from ..analysis.explorer import Explorer
    from ..protocols.candidates import dac_via_consensus, dac_via_sa_arbiter
    from ..protocols.dac_from_pac import algorithm2_processes
    from ..protocols.embodiment import (
        combined_pac_from_parts,
        consensus_from_combined,
        on_prime_from_consensus_and_sa,
        pac_from_combined,
    )
    from ..protocols.implementation import check_implementation
    from ..protocols.tasks import DacDecisionTask
    from ..runtime.scheduler import SeededScheduler
    from ..types import op
    from .pac import NPacSpec
    from .separation import make_on_prime

    ledger = Ledger()

    def linearizable(impl, workloads) -> bool:
        for seed in range(seeds):
            verdict, _result = check_implementation(
                impl, workloads, scheduler=SeededScheduler(seed)
            )
            if not verdict.ok:
                return False
        return True

    on = f"O_{n}"
    on_prime = f"O'_{n}"
    n_cons = f"{n}-consensus"
    pac = f"{n + 1}-PAC"
    dac = f"{n + 1}-DAC"
    base_family = f"{n}-consensus + 2-SA + registers"

    # Obs 5.1(a): O_n = (n+1, n)-PAC from (n+1)-PAC + n-consensus.
    ledger.verify(
        f"{pac} + {n_cons}",
        on,
        lambda: linearizable(
            combined_pac_from_parts(n + 1, n),
            {
                0: [op("proposeC", "u"), op("proposeP", "x", 1), op("decideP", 1)],
                1: [op("proposeC", "w"), op("proposeP", "y", 2)],
            },
        ),
        "Obs 5.1(a), linearizability-checked",
    )
    # Obs 5.1(b): O_n implements the (n+1)-PAC.
    ledger.verify(
        on,
        pac,
        lambda: linearizable(
            pac_from_combined(n + 1, n),
            {
                0: [op("propose", "a", 1), op("decide", 1)],
                1: [op("propose", "b", 2), op("decide", 2)],
            },
        ),
        "Obs 5.1(b), linearizability-checked",
    )
    # Obs 5.1(c): O_n implements n-consensus.
    ledger.verify(
        on,
        n_cons,
        lambda: linearizable(
            consensus_from_combined(n + 1, n),
            {0: [op("propose", "a")], 1: [op("propose", "b")]},
        ),
        "Obs 5.1(c), linearizability-checked",
    )
    # Lemma 6.4: the base family implements O'_n.
    ledger.verify(
        base_family,
        on_prime,
        lambda: linearizable(
            on_prime_from_consensus_and_sa(n, levels=3),
            {
                0: [op("propose", "a", 1), op("propose", "x", 2)],
                1: [op("propose", "b", 2), op("propose", "y", 3)],
            },
        ),
        "Lemma 6.4, linearizability-checked",
    )
    # Theorem 4.1: the (n+1)-PAC solves (n+1)-DAC — safety and solo
    # termination of every pid, model-checked.
    inputs = DacDecisionTask.paper_initial_inputs(n + 1)
    explorer = Explorer({"PAC": NPacSpec(n + 1)}, algorithm2_processes(inputs))
    on_solves_dac = explorer.check_safety(
        DacDecisionTask(n + 1), inputs
    ) is None and all(explorer.solo_termination(pid) for pid in range(n + 1))
    if on_solves_dac:
        ledger.verify(
            pac,
            dac,
            lambda: on_solves_dac,
            "Theorem 4.1, model-checked over all schedules",
        )

    # Theorem 4.2/4.3: the base family does NOT reach the (n+1)-PAC /
    # (n+1)-DAC — candidate suite refuted.
    candidates = []
    for candidate in [
        dac_via_consensus(n, fallback="own"),
        dac_via_consensus(n, fallback="spin"),
        dac_via_sa_arbiter(n),
    ]:
        outcome, _witness = Explorer(
            candidate.objects, candidate.processes
        ).find_violation(candidate.task, candidate.inputs)
        candidates.append((candidate.name, outcome))
    bundle_levels = make_on_prime(n, levels=len(CERTIFIED_LEVELS)).levels
    report = SeparationReport(
        n=n,
        ledger=ledger,
        on_power=on_power(n),
        on_prime_power=on_prime_power(n),
        on_cells=tuple(
            certify_combined_pac(n + 1, n, k) for k in CERTIFIED_LEVELS
        ),
        on_prime_cells=tuple(
            certify_bundle_level(bundle_levels, k)
            for k in CERTIFIED_LEVELS
        ),
        on_solves_dac=on_solves_dac,
        candidates=tuple(candidates),
    )
    if not report.survivors:
        refuted = len(candidates)
        ledger.refute(base_family, dac, refuted, "Theorem 4.2")
        ledger.refute(base_family, pac, refuted, "Theorem 4.3")
        ledger.refute(
            on_prime, on, refuted, "Theorem 6.5 (via Lemma 6.4 + Thm 4.3)"
        )
    return report
