"""Valency analysis: the FLP/bivalency machinery, computed.

The paper's impossibility proofs (Theorems 4.2 and 5.2) are bivalency
arguments [8]: classify configurations by which values remain
decidable, show the initial configuration is bivalent, descend to a
*critical* configuration (bivalent, but every step lands univalent),
and derive a contradiction from the object at the critical step.

For concrete protocol instances all of this is computable, and this
module computes it:

* :func:`classify` — the valence of a configuration
  (:data:`ZERO_VALENT` / :data:`ONE_VALENT` / :data:`BIVALENT` /
  :data:`DECISIONLESS`, labelled by :func:`valence_label`);
* :func:`initial_valency_report` — Claim 4.2.4 / 5.2.1 style: which
  input assignments give bivalent initial configurations;
* :func:`find_critical_configuration` — Claim 4.2.5 / 5.2.2 style
  descent to a critical configuration, returning the witness schedule
  and the per-successor valences;
* :func:`contended_object` — Claim 5.2.3 style: at a critical
  configuration, which object is everyone poised to access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from ..runtime.events import Invoke
from ..types import ProcessId, Value
from .explorer import Configuration, Edge, Explorer

#: Valence labels.
ZERO_VALENT = "0-valent"
ONE_VALENT = "1-valent"
BIVALENT = "bivalent"
DECISIONLESS = "decisionless"  # no decision reachable at all (livelock-only)


@dataclass(frozen=True)
class Valency:
    """The decision values reachable from a configuration, classified.

    ``values`` is the full reachable decision set; ``label`` classifies
    it against the binary domain ``domain`` (default ``{0, 1}``).
    """

    values: FrozenSet[Value]
    label: str

    @property
    def bivalent(self) -> bool:
        return self.label == BIVALENT


def valence_label(
    values: FrozenSet[Value], domain: Tuple[Value, Value] = (0, 1)
) -> str:
    """The valence label of a reachable decision set over ``domain``."""
    zero, one = domain
    has_zero, has_one = zero in values, one in values
    if has_zero and has_one:
        return BIVALENT
    if has_zero:
        return ZERO_VALENT
    if has_one:
        return ONE_VALENT
    return DECISIONLESS


def classify(
    explorer: Explorer,
    config: Configuration,
    domain: Tuple[Value, Value] = (0, 1),
    max_configurations: int = 200_000,
) -> Valency:
    """Compute and classify the reachable decision set of ``config``."""
    values = explorer.decision_values(config, max_configurations=max_configurations)
    return Valency(values=values, label=valence_label(values, domain))


@dataclass(frozen=True)
class InitialValencyReport:
    """Valences of the initial configurations over input assignments."""

    entries: Tuple[Tuple[Tuple[Value, ...], str], ...]


def initial_valency_report(
    make_explorer,
    input_assignments: Sequence[Tuple[Value, ...]],
    domain: Tuple[Value, Value] = (0, 1),
    max_configurations: int = 200_000,
) -> InitialValencyReport:
    """Classify the initial configuration for each input assignment.

    ``make_explorer(inputs)`` must build a fresh :class:`Explorer` for
    an input assignment (protocol automata embed their inputs, so each
    assignment is a different system). This reproduces the shape of
    Claim 4.2.4 ("I is bivalent") and Claim 5.2.1 ("the algorithm has a
    bivalent initial configuration").
    """
    entries: List[Tuple[Tuple[Value, ...], str]] = []
    for inputs in input_assignments:
        explorer = make_explorer(tuple(inputs))
        valency = classify(
            explorer,
            explorer.initial_configuration(),
            domain,
            max_configurations,
        )
        entries.append((tuple(inputs), valency.label))
    return InitialValencyReport(entries=tuple(entries))


@dataclass(frozen=True)
class CriticalConfiguration:
    """A bivalent configuration whose every successor is univalent.

    ``schedule`` reaches it from the initial configuration;
    ``successor_valences`` maps each outgoing edge to the successor's
    valence label; ``poised_objects`` maps each enabled pid to the
    object it is about to access.
    """

    configuration: Configuration
    schedule: Tuple[Edge, ...]
    successor_valences: Tuple[Tuple[Edge, str], ...]
    poised_objects: Tuple[Tuple[ProcessId, str], ...]


def find_critical_configuration(
    explorer: Explorer,
    initial: Optional[Configuration] = None,
    domain: Tuple[Value, Value] = (0, 1),
    max_configurations: int = 200_000,
) -> Optional[CriticalConfiguration]:
    """Descend from a bivalent configuration to a critical one.

    Standard FLP descent: while some successor is bivalent, move to it;
    cycles are avoided by tracking visited configurations (if every
    bivalent successor was already visited, the protocol has a bivalent
    cycle and the adversary never needs to leave it — we then report
    None, since no critical configuration is reachable along this
    greedy path; the *livelock itself* is the impossibility witness in
    that case, see :meth:`Explorer.find_livelock`).

    Returns None when the initial configuration is not bivalent.

    Cost: one exploration + one backward fixpoint total. The first
    :func:`classify` populates the explorer's shared decision-set table
    for the whole reachable subgraph, so every per-successor
    classification during the descent is a table lookup — not a fresh
    exploration per successor per step.
    """
    config = initial if initial is not None else explorer.initial_configuration()
    valency = classify(explorer, config, domain, max_configurations)
    if not valency.bivalent:
        return None

    schedule: List[Edge] = []
    visited: Set[Configuration] = {config}
    while True:
        edges = explorer.successors(config)
        labelled: List[Tuple[Edge, Configuration, str]] = []
        for edge, successor in edges:
            label = classify(
                explorer, successor, domain, max_configurations
            ).label
            labelled.append((edge, successor, label))
        bivalent_moves = [
            (edge, successor)
            for edge, successor, label in labelled
            if label == BIVALENT
        ]
        if not bivalent_moves:
            poised = _poised_objects(explorer, config)
            return CriticalConfiguration(
                configuration=config,
                schedule=tuple(schedule),
                successor_valences=tuple(
                    (edge, label) for edge, _successor, label in labelled
                ),
                poised_objects=tuple(sorted(poised.items())),
            )
        progressed = False
        for edge, successor in bivalent_moves:
            if successor not in visited:
                visited.add(successor)
                schedule.append(edge)
                config = successor
                progressed = True
                break
        if not progressed:
            # Every bivalent successor is already on the visited set:
            # the bivalence lives on a cycle.
            return None


def _poised_objects(
    explorer: Explorer, config: Configuration
) -> Dict[ProcessId, str]:
    """Which object is each enabled process about to access?

    This is the Claim 5.2.3 observation: at a critical configuration
    every process is poised at the *same* object (otherwise steps on
    different objects would commute, contradicting criticality).
    """
    poised: Dict[ProcessId, str] = {}
    for pid in config.enabled():
        action = explorer.processes[pid].cached_next_action(
            config.process_states[pid]
        )
        if isinstance(action, Invoke):
            poised[pid] = action.obj
    return poised


def contended_object(critical: CriticalConfiguration) -> Optional[str]:
    """The single object all poised processes target, or None.

    For protocols matching the paper's hypotheses this is never None at
    a critical configuration (Claim 5.2.3); candidate protocols that
    *do* return a single name here let the experiments identify which
    object kind absorbs the contention — the paper's case analysis then
    says that kind must be neither register, nor m-consensus, nor
    2-SA/PAC, which is the contradiction.
    """
    names = {name for _pid, name in critical.poised_objects}
    if len(names) == 1:
        return next(iter(names))
    return None
