"""Bounded exhaustive exploration of system configurations.

This module mechanizes the configuration calculus of the paper's
bivalency proofs. A :class:`Configuration` is an immutable value —
process local states and statuses plus object states — and the
:class:`Explorer` computes its successor relation exactly as the proofs
do: the adversary picks which process moves *and*, for nondeterministic
objects (the 2-SA), which allowed response it receives.

On top of the raw graph the explorer offers:

* :meth:`Explorer.explore` — the reachable graph (bounded), with parent
  pointers so any configuration can be turned into a concrete schedule;
* :meth:`Explorer.check_safety` — audit a
  :class:`~repro.protocols.tasks.DecisionTask`'s safety predicate on
  every reachable configuration, returning a violating schedule if one
  exists;
* :meth:`Explorer.find_livelock` — find a reachable cycle in which
  processes keep stepping without deciding (the adversarial infinite
  runs the proofs construct);
* :meth:`Explorer.solo_termination` — check the solo-run termination
  rubric (n-DAC Termination (a)/(b)).

Valency computations live in :mod:`repro.analysis.valency`, built on
:meth:`Explorer.decision_values`.

Fast core
---------

The explorer is the hot path of every exhaustive verdict. Since the
packed-kernel rework its bookkeeping is built on four layers (see
``docs/performance.md``):

* **packed encoding** — every configuration is a fixed-width row of
  small integer codes (one per process local state, process status, and
  object state; :mod:`repro.analysis.kernel.encoding`), interned to a
  dense id by the kernel backend; :class:`PackedConfigTable` is the
  configuration <-> id bijection over those rows;
* **batch frontier expansion** — :meth:`explore` hands the whole BFS to
  :meth:`KernelBackend.run_bfs`, which returns discovery order, parent
  edge triples, and truncation state in one call; applying a transition
  inside the kernel is integer arithmetic on three fields, and
  ``Configuration`` dataclasses are materialized lazily only at the API
  boundary (witness traces, result views, the portable rendering);
* **successor memoization** — the kernel replays transitions from flat
  delta tables keyed by ``(pid, local code, object code)`` and calls
  back into the explorer's code space (:class:`_CodeSpace`) only on a
  miss. The callbacks answer from
  code-keyed tables: invoke resolution once per ``(pid, local code)``,
  the process's transition, absorbed status and edge id once per
  ``(pid, local code, choice, response)``; only ``spec.responses`` and
  the new object code are computed per miss. Object-level views
  (:meth:`successors`, :meth:`step`) stay memoized per id;
* **symmetry reduction** (opt-in) — :meth:`explore` accepts a
  :class:`~repro.analysis.symmetry.ProcessSymmetry` and then walks only
  canonical representatives of process-permutation orbits, over packed
  ids: each successor row is canonicalized from cached per-slot
  ``repr`` pieces (:meth:`Explorer.row_canonicalizer`), and witness
  schedules are mapped back through the accumulated permutations so
  they replay bit-for-bit on the *unreduced* system.

Two kernel backends implement the same contract — ``compiled`` (a
best-effort C extension, used whenever it is built) and ``python``
(flat big-int words, used otherwise). Both allocate ids in discovery
order and derive edges through the same callbacks, so orders, verdicts,
digests and cache keys are byte-identical across backends.

In unreduced mode all results are bit-identical to the naive
calculus: ``ExplorationResult.order`` is BFS discovery order, and
every analysis that selects a witness iterates that order, never a
hash-seeded set (lint rule R001).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    TYPE_CHECKING,
    Union,
)

from .. import obs
from ..errors import AnalysisError, ExplorationBudgetExceeded
from ..objects.spec import SequentialSpec
from ..runtime.events import Abort, Decide, Halt, Invoke
from ..runtime.process import ProcessAutomaton
from ..types import ProcessId, Value
from ..protocols.tasks import DecisionTask, SafetyVerdict
from .kernel import PackedEncoder, make_backend
from .kernel.encoding import FIELD_BITS  # noqa: F401  (re-exported for docs)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .symmetry import ProcessSymmetry

#: Process status encodings inside a configuration (hashable tuples).
RUNNING = ("running",)
HALTED = ("halted",)
ABORTED = ("aborted",)

#: A process permutation: ``perm[i]`` is the new pid of old pid ``i``.
Permutation = Tuple[int, ...]


def _decided(value: Value) -> Tuple[str, Value]:
    return ("decided", value)


@dataclass(frozen=True)
class Configuration:
    """An immutable global state: local states, statuses, object states.

    ``statuses[i]`` is one of ``RUNNING``, ``HALTED``, ``ABORTED`` or
    ``("decided", v)``. Object states are ordered by the explorer's
    fixed object-name order.
    """

    process_states: Tuple[Hashable, ...]
    statuses: Tuple[Tuple, ...]
    object_states: Tuple[Hashable, ...]

    def __hash__(self) -> int:
        # Configurations are hashed constantly (intern table, result
        # views); the deep tuple hash is computed once and cached on
        # the instance. Sound because the dataclass is frozen.
        try:
            return self._hash  # type: ignore[attr-defined]
        except AttributeError:
            digest = hash(
                (self.process_states, self.statuses, self.object_states)
            )
            object.__setattr__(self, "_hash", digest)
            return digest

    def __getstate__(self) -> Dict[str, Hashable]:
        # The cached hash must never cross a process or disk boundary:
        # tuple hashes depend on PYTHONHASHSEED, so a pickled _hash
        # would corrupt dict lookups in the receiving interpreter.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def decisions(self) -> Dict[ProcessId, Value]:
        """pid → decided value, for the processes decided *in* this
        configuration."""
        return {
            pid: status[1]
            for pid, status in enumerate(self.statuses)
            if status[0] == "decided"
        }

    def aborted(self) -> Tuple[ProcessId, ...]:
        return tuple(
            pid for pid, status in enumerate(self.statuses) if status is ABORTED
        )

    def enabled(self) -> Tuple[ProcessId, ...]:
        return tuple(
            pid for pid, status in enumerate(self.statuses) if status is RUNNING
        )


@dataclass(frozen=True)
class Edge:
    """One transition: process ``pid`` moved, adversary chose outcome
    ``choice``, object answered ``response``."""

    pid: ProcessId
    choice: int
    response: Value


class PackedConfigTable:
    """The configuration <-> dense-id bijection, over packed kernel rows.

    The interning API (``intern``/``canonical``/``id_of``/
    ``get_id``/``value``/``in``/``len``) is what every analysis keyed
    on intern ids uses; ids are allocated by the kernel
    backend over structural integer rows. ``Configuration`` objects are
    materialized lazily: :meth:`value` decodes a row on first request
    and caches the instance, and configurations interned *as objects*
    keep their identity (``canonical`` returns the first-seen object,
    which is what lets status singletons survive round trips).
    """

    __slots__ = ("_encoder", "_backend", "_values")

    def __init__(self, encoder: PackedEncoder, backend) -> None:
        self._encoder = encoder
        self._backend = backend
        #: cid -> first-seen/decoded Configuration (None until needed).
        self._values: List[Optional[Configuration]] = []

    def intern(self, config: Configuration) -> int:
        """Return the id for ``config``, allocating one if it is new."""
        row = self._encoder.encode(
            config.process_states, config.statuses, config.object_states
        )
        cid = self._backend.intern_row(row)
        values = self._values
        if cid >= len(values):
            values.extend([None] * (cid + 1 - len(values)))
        if values[cid] is None:
            values[cid] = config
        return cid

    def canonical(self, config: Configuration) -> Configuration:
        """The first-seen object equal to ``config`` (identity intern)."""
        return self._values[self.intern(config)]  # type: ignore[return-value]

    def id_of(self, config: Configuration) -> int:
        """The id of an already-interned value (KeyError if unseen)."""
        ident = self.get_id(config)
        if ident is None:
            raise KeyError(config)
        return ident

    def get_id(self, config: Configuration) -> Optional[int]:
        """The id of ``config`` or None — never allocates."""
        row = self._encoder.peek(
            config.process_states, config.statuses, config.object_states
        )
        if row is None:
            return None
        return self._backend.find_row(row)

    def value(self, ident: int) -> Configuration:
        """The configuration with id ``ident`` (decoded lazily, once)."""
        values = self._values
        if ident >= len(values):
            values.extend([None] * (ident + 1 - len(values)))
        config = values[ident]
        if config is None:
            states, statuses, objects = self._encoder.decode(
                self._backend.row(ident)
            )
            config = Configuration(states, statuses, objects)
            values[ident] = config
        return config

    def __contains__(self, config: Configuration) -> bool:
        return self.get_id(config) is not None

    def __len__(self) -> int:
        return len(self._backend)


class ExplorationResult:
    """The reachable (bounded) configuration graph.

    ``parent_ids`` maps each reached id to one (parent id, edge) pair —
    enough to reconstruct a witness schedule with :func:`schedule_to`.
    ``complete`` is False when a budget truncated the search, in which
    case absence of a violation is *not* a proof.

    ``order`` lists the configurations in BFS discovery order.
    Analyses that *select* a configuration (the counterexample
    ``check_safety`` returns, the livelock entry) must iterate ``order``
    rather than the ``configurations`` set: set iteration order depends
    on ``PYTHONHASHSEED``, and a witness whose identity changes between
    interpreter runs cannot be replayed bit-for-bit (lint rule R001).

    The graph itself is int-keyed (``order_ids``, ``successor_ids``,
    ``parent_ids`` over ``intern`` ids); ``order`` and
    ``configurations`` are the only object-level views. For a
    kernel-built graph, ``successor_ids`` and ``parent_ids`` are
    materialized lazily from the backend's flat adjacency and parent
    triples — the BFS itself never builds per-configuration edge
    tuples.

    When the graph was built under symmetry reduction (``reduced``),
    configurations are canonical orbit representatives:
    ``source_initial`` is the concrete initial configuration the caller
    supplied, ``initial_permutation`` maps it onto ``initial``, and
    ``parent_perms`` records, per reached id, the permutation applied
    when its concrete successor was canonicalized. ``schedule_to``
    composes these permutations back out, returning a schedule that
    replays on the *unreduced* system. ``group`` lists every
    permutation of the symmetry group the walk quotiented by (identity
    first); it is empty for an unreduced graph.
    """

    __slots__ = (
        "initial",
        "complete",
        "intern",
        "order_ids",
        "reduced",
        "source_initial",
        "initial_permutation",
        "group",
        "parent_perms",
        "expansions",
        "_successor_ids",
        "_parent_ids",
        "_parent_triples",
        "_edge_resolver",
        "_adjacency",
        "_order",
        "_configurations",
    )

    def __init__(
        self,
        initial: Configuration,
        complete: bool = True,
        intern: Optional[PackedConfigTable] = None,
        order_ids: Optional[List[int]] = None,
        successor_ids: Optional[Dict[int, Tuple[Tuple[Edge, int], ...]]] = None,
        parent_ids: Optional[Dict[int, Tuple[int, Edge]]] = None,
        reduced: bool = False,
        source_initial: Optional[Configuration] = None,
        initial_permutation: Optional[Permutation] = None,
        parent_perms: Optional[Dict[int, Permutation]] = None,
        expansions: int = 0,
        edge_resolver: Optional[Callable[[int], Edge]] = None,
        adjacency: Optional[Callable[[int], Sequence[int]]] = None,
        parent_triples: Optional[Sequence[int]] = None,
        group: Tuple[Permutation, ...] = (),
    ) -> None:
        self.initial = initial
        self.complete = complete
        self.intern = intern
        self.order_ids: List[int] = order_ids if order_ids is not None else []
        self.reduced = reduced
        self.source_initial = source_initial
        self.initial_permutation = initial_permutation
        self.group = group
        self.parent_perms: Dict[int, Permutation] = (
            parent_perms if parent_perms is not None else {}
        )
        #: How many leading entries of ``order_ids`` were expanded (all
        #: of them for a complete graph; the truncation point otherwise).
        self.expansions = expansions
        # Either explicit relations (reduced/adopted graphs) or the
        # ingredients to materialize them lazily (kernel graphs): the
        # flat [tid, cid, eid, ...] parent triples and the adjacency.
        self._successor_ids = successor_ids
        if parent_ids is None and parent_triples is None:
            parent_ids = {}
        self._parent_ids = parent_ids
        self._parent_triples = parent_triples
        self._edge_resolver = edge_resolver
        self._adjacency = adjacency
        # Lazily materialized object-keyed views (see the properties
        # below): the hot path never touches them.
        self._order: Optional[List[Configuration]] = None
        self._configurations: Optional[Set[Configuration]] = None

    @property
    def successor_ids(self) -> Dict[int, Tuple[Tuple[Edge, int], ...]]:
        """id -> ((edge, successor id), ...) for every expanded id.

        Kernel-built graphs materialize this view on first access from
        the backend's flat adjacency, in expansion (= discovery) order —
        the portable rendering and every digest depend on that order.
        """
        if self._successor_ids is None:
            assert self._edge_resolver is not None
            assert self._adjacency is not None
            resolve = self._edge_resolver
            expand = self._adjacency
            table: Dict[int, Tuple[Tuple[Edge, int], ...]] = {}
            for cid in self.order_ids[: self.expansions]:
                flat = expand(cid)
                table[cid] = tuple(
                    (resolve(flat[k]), flat[k + 1])
                    for k in range(0, len(flat), 2)
                )
            self._successor_ids = table
        return self._successor_ids

    @property
    def parent_ids(self) -> Dict[int, Tuple[int, Edge]]:
        """id -> (parent id, edge) for every reached id but the root.

        Kernel-built graphs build this dict on first access from the
        BFS's flat parent triples; most explorations only ask for the
        size and completeness of the graph and never pay for it.
        """
        if self._parent_ids is None:
            assert self._edge_resolver is not None
            assert self._parent_triples is not None
            resolve = self._edge_resolver
            triples = iter(self._parent_triples)
            self._parent_ids = {
                tid: (cid, resolve(eid))
                for tid, cid, eid in zip(triples, triples, triples)
            }
            self._parent_triples = None
        return self._parent_ids

    def successor_tid_rows(self) -> Dict[int, Tuple[int, ...]]:
        """id -> successor ids only — no Edge materialization.

        The decision fixpoint wants bare target ids; going through
        ``successor_ids`` would build every Edge tuple just to discard
        the edges again.
        """
        if self._successor_ids is not None:
            return {
                cid: tuple(tid for _edge, tid in entries)
                for cid, entries in self._successor_ids.items()
            }
        assert self._adjacency is not None
        expand = self._adjacency
        return {
            cid: tuple(expand(cid)[1::2])
            for cid in self.order_ids[: self.expansions]
        }

    @property
    def order(self) -> List[Configuration]:
        """BFS discovery order (deterministic; see the class docstring)."""
        if self._order is None:
            assert self.intern is not None
            value = self.intern.value
            self._order = [value(ident) for ident in self.order_ids]
        return self._order

    @property
    def configurations(self) -> Set[Configuration]:
        if self._configurations is None:
            self._configurations = set(self.order)
        return self._configurations

    def _reached_id(self, target: Configuration) -> int:
        """The intern id of ``target`` if this exploration reached it."""
        assert self.intern is not None
        tid = self.intern.get_id(target)
        if tid is not None and (
            tid == self.order_ids[0] or tid in self.parent_ids
        ):
            return tid
        raise AnalysisError("target configuration was never reached")

    def _chain_to(
        self, target: Configuration
    ) -> List[Tuple[Configuration, Edge]]:
        assert self.intern is not None
        value = self.intern.value
        cursor = self._reached_id(target)
        root = self.order_ids[0]
        chain: List[Tuple[Configuration, Edge]] = []
        while cursor != root:
            parent, edge = self.parent_ids[cursor]
            chain.append((value(cursor), edge))
            cursor = parent
        chain.reverse()
        return chain

    def schedule_to(self, target: Configuration) -> List[Edge]:
        """Reconstruct the schedule (edge sequence) reaching ``target``.

        For a reduced graph the returned edges are expressed in the
        *unreduced* system's frame: replaying them with
        :meth:`Explorer.step` from ``source_initial`` reaches a
        configuration whose canonical representative is ``target``
        (:meth:`permutation_to` returns the mapping permutation).
        """
        chain = self._chain_to(target)
        if not self.reduced:
            return [edge for _config, edge in chain]
        assert self.intern is not None
        assert self.initial_permutation is not None
        accumulated = self.initial_permutation
        edges: List[Edge] = []
        for config, edge in chain:
            inverse = _invert(accumulated)
            edges.append(Edge(inverse[edge.pid], edge.choice, edge.response))
            step_perm = self.parent_perms[self.intern.id_of(config)]
            accumulated = _compose(step_perm, accumulated)
        return edges

    def permutation_to(self, target: Configuration) -> Permutation:
        """The permutation carrying the concrete endpoint of
        :meth:`schedule_to` onto ``target`` (identity when unreduced)."""
        chain = self._chain_to(target)
        if not self.reduced:
            return tuple(range(len(target.process_states)))
        assert self.intern is not None
        assert self.initial_permutation is not None
        accumulated = self.initial_permutation
        for config, _edge in chain:
            step_perm = self.parent_perms[self.intern.id_of(config)]
            accumulated = _compose(step_perm, accumulated)
        return accumulated

    def __len__(self) -> int:
        return len(self.order_ids)


def _invert(perm: Permutation) -> Permutation:
    inverse = [0] * len(perm)
    for source, image in enumerate(perm):
        inverse[image] = source
    return tuple(inverse)


def _row_reader(perm: Permutation) -> Callable[[Tuple], Tuple]:
    """Maps a per-pid row to the row of the permuted configuration:
    pid ``i`` moves to ``perm[i]``, so position ``j`` reads the row at
    the inverse image of ``j``."""
    inverse = _invert(perm)
    if len(inverse) == 1:
        return tuple
    return itemgetter(*inverse)


def _compose(outer: Permutation, inner: Permutation) -> Permutation:
    """``outer ∘ inner``: first apply ``inner``, then ``outer``."""
    return tuple(outer[image] for image in inner)


@dataclass(frozen=True)
class SafetyCounterexample:
    """A reachable configuration violating a task's safety predicate."""

    configuration: Configuration
    verdict: SafetyVerdict
    schedule: Tuple[Edge, ...]


@dataclass(frozen=True)
class Livelock:
    """A reachable cycle in which processes step without deciding.

    ``prefix`` reaches ``entry``; following ``cycle`` from ``entry``
    returns to it. ``moving`` are the pids that take steps inside the
    cycle — each takes infinitely many steps without deciding when the
    adversary loops forever.
    """

    entry: Configuration
    prefix: Tuple[Edge, ...]
    cycle: Tuple[Edge, ...]
    moving: FrozenSet[ProcessId]


class _Truncated(Exception):
    """Internal: the BFS hit its configuration budget."""


class _CodeSpace:
    """One protocol instance in code space: what the kernel's miss hooks read.

    Holds the encoder, the specs and automata, and the code-keyed memo
    tables the first-miss callbacks answer from. The kernel backend
    holds this object's bound hooks and the :class:`Explorer` holds the
    object itself; it references neither of them. The explorer's object
    graph is therefore acyclic: reference counting frees an explorer,
    its kernel and every table the moment the last user drops them, and
    an :class:`ExplorationResult` that outlives its explorer keeps the
    kernel and this object alive, so later kernel misses still resolve.

    The hooks are called only on the kernel's first miss per key, in
    deterministic (pid-ascending, outcome-order) sequence — which is
    what makes edge and configuration ids identical across backends.
    They answer from code-keyed tables: the n-PAC object changes state
    on nearly every step, so the kernel's ``(pid, local, object)`` table
    rarely hits, but the process side of a miss repeats constantly.
    """

    __slots__ = (
        "encoder",
        "specs",
        "processes",
        "object_slots",
        "index_of",
        "status_cache",
        "invokes",
        "process_deltas",
        "edge_ids",
        "edge_list",
    )

    def __init__(
        self,
        specs: Tuple[SequentialSpec, ...],
        processes: Tuple[ProcessAutomaton, ...],
        index_of: Dict[str, int],
    ) -> None:
        #: Structural slot codes; statuses seeded so RUNNING is code 0
        #: (the kernel's "enabled" test is a zero-test on that field).
        self.encoder = PackedEncoder(
            len(processes), len(specs), seed_statuses=(RUNNING, HALTED, ABORTED)
        )
        self.specs = specs
        self.processes = processes
        #: per object: the encoder's live (state -> code, code -> state)
        #: tables, read directly on every miss.
        self.object_slots = tuple(
            self.encoder.object_slot(index) for index in range(len(specs))
        )
        #: object name -> index in the explorer's object order.
        self.index_of = index_of
        #: per-pid local state -> absorbed status tuple.
        self.status_cache: Tuple[Dict[Hashable, Tuple], ...] = tuple(
            {} for _ in processes
        )
        #: (pid, local code) -> (local state, operation, object index) of
        #: the Invoke the process is poised at.
        self.invokes: Dict[
            Tuple[ProcessId, int], Tuple[Hashable, Hashable, int]
        ] = {}
        #: (pid, local code, choice, response) -> (edge id, new local
        #: code, new status code): the process half of a delta row.
        self.process_deltas: Dict[
            Tuple[ProcessId, int, int, Value], Tuple[int, int, int]
        ] = {}
        #: (pid, choice, response) -> dense edge id; edge id -> the one
        #: Edge object for it.
        #: Edge ids are what the kernel's flat adjacency carries.
        self.edge_ids: Dict[Tuple[ProcessId, int, Value], int] = {}
        self.edge_list: List[Edge] = []

    def absorbed_status(self, pid: ProcessId, state: Hashable) -> Tuple:
        """The status a running process with local ``state`` settles to:
        ``RUNNING`` while poised at an Invoke, else the terminal status
        of its pending local action. Memoized per (pid, state)."""
        cache = self.status_cache[pid]
        status = cache.get(state)
        if status is None:
            action = self.processes[pid].cached_next_action(state)
            if isinstance(action, Invoke):
                status = RUNNING
            elif isinstance(action, Decide):
                status = _decided(action.value)
            elif isinstance(action, Abort):
                status = ABORTED
            elif isinstance(action, Halt):
                status = HALTED
            else:
                # Unknown local action: leave the process running so the
                # next expansion raises the seed's "unabsorbed" error.
                status = RUNNING
            cache[state] = status
        return status

    def resolve_invoke_codes(self, pid: ProcessId, local_code: int) -> int:
        """Kernel miss hook: the object index ``pid`` invokes from the
        local state carrying ``local_code``."""
        return self.invoke_of(pid, local_code)[2]

    def compute_delta_codes(
        self, pid: ProcessId, local_code: int, obj_index: int, obj_code: int
    ) -> List[Tuple[int, int, int, int]]:
        """Kernel miss hook: one ``(edge id, new local code, new status
        code, new object code)`` row per adversary choice for ``pid``
        stepping against the object state carrying ``obj_code``.

        Only the object half is computed per call. The process half is
        looked up per ``(pid, local code, choice, response)``; a miss
        there is the first sight of anything it could allocate, so
        codes and edge ids are allocated in the same order as if every
        row were computed afresh.
        """
        encoder = self.encoder
        info = self.invokes.get((pid, local_code))
        if info is None:
            info = self.invoke_of(pid, local_code)
        local_state, operation, _obj_index = info
        object_ids, object_values = self.object_slots[obj_index]
        outcomes = self.specs[obj_index].responses(
            object_values[obj_code], operation
        )
        process_deltas = self.process_deltas
        deltas = []
        for choice, (new_obj, response) in enumerate(outcomes):
            key = (pid, local_code, choice, response)
            row = process_deltas.get(key)
            if row is None:
                local = self.processes[pid].cached_transition(
                    local_state, response
                )
                status = self.absorbed_status(pid, local)
                row = (
                    self.edge_id(pid, choice, response),
                    encoder.local_code(pid, local),
                    encoder.status_code(status),
                )
                process_deltas[key] = row
            new_code = object_ids.get(new_obj)
            if new_code is None:
                new_code = encoder.object_code(obj_index, new_obj)
            deltas.append(row + (new_code,))
        return deltas

    def invoke_of(
        self, pid: ProcessId, local_code: int
    ) -> Tuple[Hashable, Hashable, int]:
        """(local state, operation, object index) of the Invoke ``pid``
        is poised at in the local state carrying ``local_code``
        (validated: a well-formed Invoke on a known object)."""
        key = (pid, local_code)
        info = self.invokes.get(key)
        if info is None:
            local_state = self.encoder.local_value(pid, local_code)
            action = self.processes[pid].cached_next_action(local_state)
            if not isinstance(action, Invoke):
                raise AnalysisError(
                    f"process {pid} has unabsorbed local action {action!r}"
                )
            obj_index = self.index_of.get(action.obj)
            if obj_index is None:
                raise AnalysisError(
                    f"process {pid} invoked unknown object {action.obj!r}"
                )
            info = (local_state, action.operation, obj_index)
            self.invokes[key] = info
        return info

    def edge_id(self, pid: ProcessId, choice: int, response: Value) -> int:
        """The dense id of (pid, choice, response), allocating if new."""
        key = (pid, choice, response)
        eid = self.edge_ids.get(key)
        if eid is None:
            eid = len(self.edge_list)
            self.edge_ids[key] = eid
            self.edge_list.append(Edge(pid, choice, response))
        return eid


class Explorer:
    """Exhaustive (bounded) explorer for one protocol instance.

    ``objects`` maps names to specs; ``processes`` must be pure automata
    (``supports_snapshot``), which is what makes configurations values.

    ``kernel=None`` (the default) runs on the compiled backend when the
    C extension is built and on the python backend otherwise.
    ``"python"`` or ``"compiled"`` forces one — a seam for the
    equivalence tests and the kernel bench; forcing ``"compiled"``
    without the extension raises
    :class:`~repro.errors.KernelUnavailableError`. Backends are
    byte-identical — same orders, ids, verdicts, digests — and each has
    one exploration path (first-miss callbacks, one serial BFS walk).

    All caches (intern table, successor memo, decision-set table) are
    per-instance: one :class:`Explorer` = one protocol instance whose
    transition relation is immutable, so the caches can never go stale.
    """

    def __init__(
        self,
        objects: Mapping[str, SequentialSpec],
        processes: Sequence[ProcessAutomaton],
        kernel: Optional[str] = None,
    ) -> None:
        for automaton in processes:
            if not automaton.supports_snapshot:
                raise AnalysisError(
                    f"process {automaton.pid} is generator-based and cannot "
                    f"be model-checked; use a ProcessAutomaton"
                )
        pids = [automaton.pid for automaton in processes]
        if pids != list(range(len(pids))):
            raise AnalysisError(
                f"explorer requires densely numbered pids 0..n-1, got {pids}"
            )
        self.object_names: Tuple[str, ...] = tuple(sorted(objects))
        self.specs: Tuple[SequentialSpec, ...] = tuple(
            objects[name] for name in self.object_names
        )
        self.processes: Tuple[ProcessAutomaton, ...] = tuple(processes)
        # -- packed kernel --------------------------------------------
        # The kernel holds the code space's hooks, never the explorer's:
        # nothing points back here, so the explorer is freed by
        # reference counting (docs/performance.md, "Graph lifetime").
        codes = _CodeSpace(
            self.specs,
            self.processes,
            {name: i for i, name in enumerate(self.object_names)},
        )
        self._codes = codes
        self._encoder = codes.encoder
        self._backend, self.kernel = make_backend(
            kernel,
            self._encoder.n_fields,
            len(self.processes),
            codes.resolve_invoke_codes,
            codes.compute_delta_codes,
        )
        #: edge id -> the one Edge object for it (the code space's list).
        self._edge_list: List[Edge] = codes.edge_list
        # -- fast-core caches ----------------------------------------
        #: Configuration <-> dense id bijection (discovery order).
        self._intern: PackedConfigTable = PackedConfigTable(
            self._encoder, self._backend
        )
        #: id -> tuple[(Edge, successor id)] — the memoized object-level
        #: relation (populated on demand; the kernel BFS bypasses it).
        self._succ_cache: Dict[int, Tuple[Tuple[Edge, int], ...]] = {}
        #: status-code row -> (decisions, aborted, enabled) — everything
        #: a safety predicate can see, decoded once per distinct row.
        self._segment_cache: Dict[Tuple[int, ...], Tuple] = {}
        #: id -> reachable decision set (shared valency memo).
        self._decision_sets: Dict[int, FrozenSet[Value]] = {}

    # -- configuration construction -----------------------------------------

    def initial_configuration(self) -> Configuration:
        states = tuple(auto.initial_state() for auto in self.processes)
        statuses = tuple(RUNNING for _ in self.processes)
        objects = tuple(spec.initial_state() for spec in self.specs)
        return self._absorb(Configuration(states, statuses, objects))

    def intern_id(self, config: Configuration) -> int:
        """The configuration's dense id in this explorer's intern table."""
        return self._intern.intern(config)

    def _absorb(self, config: Configuration) -> Configuration:
        """Settle local actions: decided/aborted/halted processes are
        marked immediately (decisions are not shared-memory steps)."""
        absorbed_status = self._codes.absorbed_status
        statuses = list(config.statuses)
        changed = False
        for pid in range(len(self.processes)):
            if statuses[pid] is not RUNNING:
                continue
            status = absorbed_status(pid, config.process_states[pid])
            if status is not RUNNING:
                statuses[pid] = status
                changed = True
        if not changed:
            return config
        return Configuration(
            config.process_states, tuple(statuses), config.object_states
        )

    def _entries_from_flat(
        self, flat: Sequence[int]
    ) -> Tuple[Tuple[Edge, int], ...]:
        """Materialize a flat [eid, tid, ...] run as (Edge, id) pairs."""
        edge_list = self._edge_list
        return tuple(
            (edge_list[flat[k]], flat[k + 1]) for k in range(0, len(flat), 2)
        )

    def _successor_entries(self, cid: int) -> Tuple[Tuple[Edge, int], ...]:
        """The memoized successor relation of configuration id ``cid``."""
        entries = self._succ_cache.get(cid)
        if entries is None:
            entries = self._entries_from_flat(self._backend.expand(cid))
            self._succ_cache[cid] = entries
        return entries

    def _pid_entries(
        self, cid: int, pid: ProcessId
    ) -> Tuple[Tuple[Edge, int], ...]:
        """Only ``pid``'s outgoing edges — computed without enumerating
        the other processes' moves (reuses the full relation when the
        object memo or the kernel already expanded this id)."""
        full = self._succ_cache.get(cid)
        if full is not None:
            return tuple(entry for entry in full if entry[0].pid == pid)
        flat = self._backend.adjacency(cid)
        if flat is None:
            return self._entries_from_flat(self._backend.expand_pid(cid, pid))
        edge_list = self._edge_list
        return tuple(
            (edge_list[flat[k]], flat[k + 1])
            for k in range(0, len(flat), 2)
            if edge_list[flat[k]].pid == pid
        )

    def successors(
        self, config: Configuration
    ) -> List[Tuple[Edge, Configuration]]:
        """All (edge, configuration) pairs one adversary step away."""
        cid = self._intern.intern(config)
        value = self._intern.value
        return [
            (edge, value(tid)) for edge, tid in self._successor_entries(cid)
        ]

    def step(
        self, config: Configuration, pid: ProcessId, choice: int = 0
    ) -> Configuration:
        """Follow one specific edge (process ``pid``, outcome ``choice``).

        Computes only the requested process's outcomes — it does not
        enumerate the other processes' moves.
        """
        cid = self._intern.intern(config)
        for edge, tid in self._pid_entries(cid, pid):
            if edge.choice == choice:
                return self._intern.value(tid)
        raise AnalysisError(
            f"no successor for pid={pid} choice={choice} from this "
            f"configuration (enabled: {config.enabled()})"
        )

    # -- graph exploration ---------------------------------------------------

    def explore(
        self,
        initial: Optional[Configuration] = None,
        max_configurations: int = 200_000,
        symmetry: Optional["ProcessSymmetry"] = None,
    ) -> ExplorationResult:
        """BFS the reachable configuration graph from ``initial``.

        Stops at ``max_configurations``, marking the result incomplete
        (``complete=False``); it never raises. With ``symmetry``,
        explores the quotient graph of canonical representatives
        instead — see :mod:`repro.analysis.symmetry` for the soundness
        conditions — and records the permutations needed to map
        witnesses back.

        The unreduced walk is one batch call into the kernel backend:
        the whole frontier is expanded over packed ids and no
        ``Configuration`` object is built until a result view asks for
        one.
        """
        start = initial if initial is not None else self.initial_configuration()
        start = self._intern.canonical(start)
        if symmetry is not None:
            return self._explore_reduced(start, max_configurations, symmetry)

        intern = self._intern
        start_id = intern.id_of(start)

        # Observability: counts accumulate in the kernel and publish
        # once at the end; per-level trace events are delivered through
        # the round hook only when a trace session is active.
        intern_before = len(intern)
        on_round = None
        if obs.tracing():

            def on_round(depth: int, width: int, seen: int) -> None:
                obs.event(
                    "explorer.frontier", depth=depth, width=width, seen=seen
                )

        order_ids, parent_triples, complete, expansions, rounds = (
            self._backend.run_bfs(start_id, max_configurations, on_round)
        )

        if obs.enabled():
            obs.counter("explorer.explorations")
            obs.counter("explorer.configurations", len(order_ids))
            obs.counter("explorer.expansions", expansions)
            obs.counter("explorer.interned", len(intern) - intern_before)
            obs.histogram("explorer.depth", rounds)
            if not complete:
                obs.counter("explorer.truncations")

        return ExplorationResult(
            initial=start,
            complete=complete,
            intern=intern,
            order_ids=list(order_ids),
            source_initial=start,
            expansions=expansions,
            edge_resolver=self._edge_list.__getitem__,
            adjacency=self._backend.expand,
            parent_triples=parent_triples,
        )

    def _explore_reduced(
        self,
        start: Configuration,
        max_configurations: int,
        symmetry: "ProcessSymmetry",
    ) -> ExplorationResult:
        """The symmetry-reduced walk, over packed ids end to end: every
        successor the kernel expands is mapped to its orbit
        representative by :meth:`row_canonicalizer`, which reads the
        kernel row and builds no configuration."""
        canonicalize = self.row_canonicalizer(symmetry)
        intern = self._intern
        start_id, initial_perm = canonicalize(intern.id_of(start))
        expand = self._backend.expand
        edge_list = self._edge_list
        order_ids: List[int] = [start_id]
        seen: Set[int] = {start_id}
        parent_ids: Dict[int, Tuple[int, Edge]] = {}
        parent_perms: Dict[int, Permutation] = {}
        successor_ids: Dict[int, Tuple[Tuple[Edge, int], ...]] = {}
        complete = True

        trace_on = obs.tracing()
        intern_before = len(intern)
        expansions = 0
        symmetry_hits = 0
        depth = 0

        frontier: List[int] = [start_id]
        try:
            while frontier:
                if trace_on:
                    obs.event(
                        "explorer.frontier",
                        depth=depth,
                        width=len(frontier),
                        seen=len(seen),
                    )
                next_frontier: List[int] = []
                for cid in frontier:
                    expansions += 1
                    flat = expand(cid)
                    # The quotient graph's edges must target the
                    # canonical representatives, so every id in
                    # successor_ids stays inside order_ids and
                    # graph-level passes (decision fixpoint, livelock
                    # DFS) work unchanged on reduced results.
                    entries: List[Tuple[Edge, int]] = []
                    perms: List[Permutation] = []
                    for k in range(0, len(flat), 2):
                        tid = flat[k + 1]
                        rep_id, perm = canonicalize(tid)
                        if rep_id != tid:
                            symmetry_hits += 1
                        entries.append((edge_list[flat[k]], rep_id))
                        perms.append(perm)
                    successor_ids[cid] = tuple(entries)
                    for (edge, tid), perm in zip(entries, perms):
                        if tid in seen:
                            continue
                        if len(seen) >= max_configurations:
                            complete = False
                            raise _Truncated()
                        seen.add(tid)
                        order_ids.append(tid)
                        parent_ids[tid] = (cid, edge)
                        parent_perms[tid] = perm
                        next_frontier.append(tid)
                frontier = next_frontier
                depth += 1
        except _Truncated:
            pass

        if obs.enabled():
            obs.counter("explorer.explorations")
            obs.counter("explorer.configurations", len(order_ids))
            obs.counter("explorer.expansions", expansions)
            obs.counter("explorer.interned", len(intern) - intern_before)
            obs.histogram("explorer.depth", depth)
            obs.counter("explorer.symmetry_hits", symmetry_hits)
            if not complete:
                obs.counter("explorer.truncations")

        return ExplorationResult(
            initial=intern.value(start_id),
            complete=complete,
            intern=intern,
            order_ids=order_ids,
            successor_ids=successor_ids,
            parent_ids=parent_ids,
            reduced=True,
            source_initial=start,
            initial_permutation=initial_perm,
            group=symmetry.permutations,
            parent_perms=parent_perms,
            expansions=expansions,
        )

    def row_canonicalizer(
        self, symmetry: "ProcessSymmetry"
    ) -> Callable[[int], Tuple[int, Permutation]]:
        """A map ``id -> (representative id, perm)`` for one walk.

        The representative of a configuration's orbit is its permuted
        variant whose ``(process_states, statuses, object_states)``
        triple has the least ``repr`` over ``symmetry.permutations``
        (the first such permutation on a tie, so the identity keeps a
        configuration that is already least); ``perm`` carries the
        configuration onto it. A string comparison, so the choice is
        independent of ``PYTHONHASHSEED`` (R001).

        Each key string is assembled from the kernel row out of cached
        pieces, exactly as ``repr`` of the permuted triple would print
        it: a head ``((process_states), (statuses), (`` per permutation
        for every distinct process/status code segment, and the
        permuted state and its ``repr`` per (object, code,
        permutation). A permutation whose head does not start with the
        least head cannot win, whatever follows, so only the rest are
        compared in full. No configuration is built; only the winner
        is encoded and interned. The caches belong to the returned
        function, so they are freed with the walk that uses it.
        """
        n = len(self.processes)
        perms = symmetry.permutations
        inverses = [_invert(perm) for perm in perms]
        identity = tuple(range(n))
        encoder = self._encoder
        row_of = self._backend.row
        intern_row = self._backend.intern_row
        permuters = [
            symmetry.object_permuters.get(name) for name in self.object_names
        ]
        n_objects = len(permuters)
        # ``repr`` of a 1-tuple ends in ",)".
        process_close = ",)" if n == 1 else ")"
        object_close = (",)" if n_objects == 1 else ")") + ")"
        #: per pid: local code -> repr; status code -> repr
        local_reprs: List[Dict[int, str]] = [{} for _ in range(n)]
        status_reprs: Dict[int, str] = {}
        #: process/status code segment -> (key head per permutation,
        #: the permutations whose head starts with the least one)
        heads: Dict[Tuple[int, ...], Tuple[List[str], List[int]]] = {}
        #: per object: (code, permutation index) -> (state, its repr)
        objects: List[Dict[Tuple[int, int], Tuple[Hashable, str]]] = [
            {} for _ in range(n_objects)
        ]
        canon: Dict[int, Tuple[int, Permutation]] = {}

        def head_of(segment: Tuple[int, ...]) -> Tuple[List[str], List[int]]:
            local_parts = []
            status_parts = []
            for pid in range(n):
                code = segment[pid]
                part = local_reprs[pid].get(code)
                if part is None:
                    part = repr(encoder.local_value(pid, code))
                    local_reprs[pid][code] = part
                local_parts.append(part)
                code = segment[n + pid]
                part = status_reprs.get(code)
                if part is None:
                    part = repr(encoder.status_value(code))
                    status_reprs[code] = part
                status_parts.append(part)
            head = [
                "(("
                + ", ".join([local_parts[i] for i in inverse])
                + process_close
                + ", ("
                + ", ".join([status_parts[i] for i in inverse])
                + process_close
                + ", ("
                for inverse in inverses
            ]
            least = min(head)
            contenders = [
                k for k, start in enumerate(head) if start.startswith(least)
            ]
            heads[segment] = (head, contenders)
            return head, contenders

        def object_variant(
            index: int, code: int, k: int
        ) -> Tuple[Hashable, str]:
            permuter = permuters[index]
            key = (code, k if permuter is not None else 0)
            variant = objects[index].get(key)
            if variant is None:
                state = encoder.object_value(index, code)
                if permuter is not None:
                    state = permuter(state, perms[k])
                variant = (state, repr(state))
                objects[index][key] = variant
            return variant

        def canonicalize(tid: int) -> Tuple[int, Permutation]:
            result = canon.get(tid)
            if result is not None:
                return result
            row = row_of(tid)
            segment = row[: 2 * n]
            head, contenders = heads.get(segment) or head_of(segment)
            codes = row[2 * n :]
            best = contenders[0]
            if len(contenders) > 1:
                best_key = ""
                for k in contenders:
                    key = (
                        head[k]
                        + ", ".join(
                            [
                                object_variant(index, code, k)[1]
                                for index, code in enumerate(codes)
                            ]
                        )
                        + object_close
                    )
                    if k == contenders[0] or key < best_key:
                        best, best_key = k, key
            if perms[best] == identity:
                result = (tid, identity)
            else:
                inverse = inverses[best]
                rep_codes = [
                    encoder.local_code(
                        image, encoder.local_value(source, row[source])
                    )
                    for image, source in enumerate(inverse)
                ]
                rep_codes.extend(row[n + source] for source in inverse)
                rep_codes.extend(
                    encoder.object_code(
                        index, object_variant(index, code, best)[0]
                    )
                    for index, code in enumerate(codes)
                )
                result = (intern_row(rep_codes), perms[best])
            canon[tid] = result
            return result

        return canonicalize

    # -- status segments -------------------------------------------------------

    def _segment_info(
        self, key: Tuple[int, ...]
    ) -> Tuple[Dict[ProcessId, Value], Tuple[ProcessId, ...], Tuple[ProcessId, ...]]:
        """(decisions, aborted, enabled) of a packed status row.

        Everything a safety predicate or valency seed can observe is a
        function of the status fields alone, so configurations sharing
        a status row share this decoding — one dict per distinct row
        instead of one per configuration.
        """
        info = self._segment_cache.get(key)
        if info is None:
            status_value = self._encoder.status_value
            decisions: Dict[ProcessId, Value] = {}
            aborted: List[ProcessId] = []
            enabled: List[ProcessId] = []
            for pid, code in enumerate(key):
                status = status_value(code)
                if status is RUNNING:
                    enabled.append(pid)
                elif status is ABORTED:
                    aborted.append(pid)
                elif status[0] == "decided":
                    decisions[pid] = status[1]
            info = (decisions, tuple(aborted), tuple(enabled))
            self._segment_cache[key] = info
        return info

    # -- analyses ------------------------------------------------------------

    def check_safety(
        self,
        task: DecisionTask,
        inputs: Sequence[Value],
        initial: Optional[Configuration] = None,
        max_configurations: int = 200_000,
        symmetry: Optional["ProcessSymmetry"] = None,
        exploration: Optional[ExplorationResult] = None,
    ) -> Optional[SafetyCounterexample]:
        """Audit safety at every reachable configuration.

        Returns a counterexample (with its witness schedule) or None. A
        None from an incomplete exploration raises — absence of evidence
        under a truncated search is not evidence.

        With ``symmetry``, the quotient graph is audited instead (see
        :meth:`_check_safety_reduced`): the verdict is the unreduced
        walk's for any predicate, symmetric or not, from an initial
        configuration the group fixes. The returned counterexample is
        always concrete and replayable on the unreduced system.

        Pass ``exploration`` (this explorer's graph, reduced or not) to
        audit it instead of re-walking the BFS; ``initial``,
        ``max_configurations`` and ``symmetry`` then go unused.
        """
        if exploration is None:
            exploration = self.explore(
                initial, max_configurations, symmetry=symmetry
            )
        if exploration.reduced:
            counterexample = self._check_safety_reduced(
                task, inputs, exploration
            )
        else:
            counterexample = self._check_safety_full(
                task, inputs, exploration
            )
        if counterexample is None and not exploration.complete:
            raise ExplorationBudgetExceeded(
                "no violation found, but the exploration was truncated; "
                "raise max_configurations"
            )
        return counterexample

    def _check_safety_full(
        self,
        task: DecisionTask,
        inputs: Sequence[Value],
        exploration: ExplorationResult,
    ) -> Optional[SafetyCounterexample]:
        # The predicate only sees (decisions, aborted), a function of
        # the status row: audit each distinct row once and scan ids in
        # BFS order (R001: same counterexample on every run). No
        # Configuration is materialized unless a violation is reported.
        status_key = self._backend.status_key
        verdicts: Dict[Tuple[int, ...], SafetyVerdict] = {}
        for cid in exploration.order_ids:
            key = status_key(cid)
            verdict = verdicts.get(key)
            if verdict is None:
                decisions, aborted, _enabled = self._segment_info(key)
                verdict = task.check_safety(inputs, decisions, aborted)
                verdicts[key] = verdict
            if verdict.ok:
                continue
            config = self._intern.value(cid)
            return SafetyCounterexample(
                configuration=config,
                verdict=verdict,
                schedule=tuple(exploration.schedule_to(config)),
            )
        return None

    def _check_safety_reduced(
        self,
        task: DecisionTask,
        inputs: Sequence[Value],
        exploration: ExplorationResult,
    ) -> Optional[SafetyCounterexample]:
        """Safety over a quotient graph, for any predicate.

        Every concrete configuration a representative stands for has
        the representative's status row permuted by some group element
        (the group fixes inputs), and the predicate sees nothing else.
        So each distinct representative row is audited under every
        permutation in ``exploration.group``. A violating permutation's
        witness is the representative's concrete schedule with its pids
        relabelled to match, replayed on the unreduced system, where it
        must violate as well; if no violating permutation replays to a
        violation the reduction is unsound for this start or task, and
        that raises rather than returning a verdict.
        """
        status_key = self._backend.status_key
        segment_info = self._segment_info
        # A reduced result that does not carry its group is audited
        # under the identity: its representatives only.
        group = exploration.group or (tuple(range(len(self.processes))),)
        readers = [(perm, _row_reader(perm)) for perm in group]
        verdicts: Dict[Tuple[int, ...], SafetyVerdict] = {}
        audited: Set[Tuple[int, ...]] = set()
        for cid in exploration.order_ids:
            key = status_key(cid)
            if key in audited:
                continue
            audited.add(key)
            clean = True
            for row in dict.fromkeys([read(key) for _perm, read in readers]):
                verdict = verdicts.get(row)
                if verdict is None:
                    decisions, aborted, _enabled = segment_info(row)
                    verdict = task.check_safety(inputs, decisions, aborted)
                    verdicts[row] = verdict
                clean = clean and verdict.ok
            if not clean:
                violating = [
                    perm
                    for perm, read in readers
                    if not verdicts[read(key)].ok
                ]
                return self._realize_violation(
                    task, inputs, exploration, cid, violating
                )
        return None

    def _realize_violation(
        self,
        task: DecisionTask,
        inputs: Sequence[Value],
        exploration: ExplorationResult,
        cid: int,
        violating: Sequence[Permutation],
    ) -> SafetyCounterexample:
        """A concrete counterexample for representative ``cid`` under
        one of the ``violating`` permutations of its status row."""
        assert exploration.source_initial is not None
        rep = self._intern.value(cid)
        schedule = exploration.schedule_to(rep)
        # ``schedule`` reaches the concrete c with to_rep(c) = rep, so
        # perm(rep) = relabel(c) for relabel = perm ∘ to_rep. The
        # identity relabelling (c itself) is tried first.
        to_rep = exploration.permutation_to(rep)
        identity = tuple(range(len(to_rep)))
        relabellings = [_compose(perm, to_rep) for perm in violating]
        relabellings.sort(key=lambda relabel: relabel != identity)
        source_id = self._intern.intern(exploration.source_initial)
        for relabel in relabellings:
            replayed = self._follow_relabelled(source_id, schedule, relabel)
            if replayed is None:
                continue
            edges, tid = replayed
            config = self._intern.value(tid)
            verdict = task.check_safety(
                inputs, config.decisions(), config.aborted()
            )
            if not verdict.ok:
                return SafetyCounterexample(
                    configuration=config,
                    verdict=verdict,
                    schedule=edges,
                )
        raise AnalysisError(
            "symmetry reduction is unsound for this task: a permutation "
            "of a canonical representative violates safety but no "
            "relabelling of its witness replays to a concrete violation "
            "— the initial configuration is not fixed by the symmetry, "
            "or the symmetry is not an automorphism of the system"
        )

    def _follow_relabelled(
        self, cid: int, schedule: Sequence[Edge], relabel: Permutation
    ) -> Optional[Tuple[Tuple[Edge, ...], int]]:
        """Replay ``schedule`` from id ``cid`` with every pid mapped
        through ``relabel``: the edges taken and the id reached, or None
        when some step has no such move."""
        edges: List[Edge] = []
        for edge in schedule:
            for moved, tid in self._pid_entries(cid, relabel[edge.pid]):
                if moved.choice == edge.choice:
                    break
            else:
                return None
            edges.append(moved)
            cid = tid
        return tuple(edges), cid

    def decision_table(
        self,
        initial: Optional[Configuration] = None,
        max_configurations: int = 200_000,
        exploration: Optional[ExplorationResult] = None,
    ) -> Dict[int, FrozenSet[Value]]:
        """Reachable decision sets for every configuration reachable
        from ``initial``, by one backward fixpoint over the memoized
        graph (keys are intern ids; the table is shared and reused by
        every later valency query on this explorer).

        Pass ``exploration`` to reuse an already-computed graph (the
        :class:`~repro.analysis.valency_analyzer.ValencyAnalyzer` does)
        instead of re-walking the BFS.
        """
        if exploration is not None:
            if exploration.order_ids[0] not in self._decision_sets:
                self._run_decision_fixpoint(exploration)
            return self._decision_sets
        start = initial if initial is not None else self.initial_configuration()
        start = self._intern.canonical(start)
        start_id = self._intern.id_of(start)
        if start_id not in self._decision_sets:
            self._populate_decision_sets(start, max_configurations)
        return self._decision_sets

    def _populate_decision_sets(
        self, start: Configuration, max_configurations: int
    ) -> None:
        exploration = self.explore(start, max_configurations)
        if not exploration.complete:
            raise ExplorationBudgetExceeded(
                "decision_values needs a complete subgraph; raise the budget"
            )
        self._run_decision_fixpoint(exploration)

    def _run_decision_fixpoint(self, exploration: ExplorationResult) -> None:
        order_ids = exploration.order_ids
        successor_rows = exploration.successor_tid_rows()
        known = self._decision_sets
        status_key = self._backend.status_key
        sets: Dict[int, Set[Value]] = {}
        for cid in order_ids:
            fixed = known.get(cid)
            if fixed is not None:
                sets[cid] = set(fixed)
            else:
                decisions, _aborted, _enabled = self._segment_info(
                    status_key(cid)
                )
                sets[cid] = set(decisions.values())
        # Backward fixpoint: reverse-BFS order settles acyclic parts in
        # one sweep; cycles converge because the sets are monotone.
        changed = True
        while changed:
            changed = False
            for cid in reversed(order_ids):
                merged = sets[cid]
                before = len(merged)
                for tid in successor_rows.get(cid, ()):
                    merged |= sets[tid]
                if len(merged) != before:
                    changed = True
        for cid, values in sets.items():
            known[cid] = frozenset(values)

    def decision_values(
        self, config: Configuration, max_configurations: int = 200_000
    ) -> FrozenSet[Value]:
        """All values decided anywhere in the subgraph reachable from
        ``config``.

        This is the semantic core of valency: a configuration is
        v-valent iff ``decision_values`` is a subset of ``{v}``. It is
        answered from the shared memoized decision-set table (one
        backward fixpoint per new subgraph, never one exploration per
        query).
        """
        table = self.decision_table(config, max_configurations)
        return table[self._intern.id_of(self._intern.canonical(config))]

    def find_livelock(
        self,
        max_configurations: int = 200_000,
        exploration: Optional[ExplorationResult] = None,
    ) -> Optional[Livelock]:
        """Find a cycle reachable from the initial configuration that
        moves at least one process which never decides inside it — a
        genuine liveness violation witness ("takes infinitely many steps
        without deciding").

        Pass ``exploration`` to search an already-computed graph of this
        explorer instead of re-walking the BFS.
        """
        if exploration is None:
            exploration = self.explore(max_configurations=max_configurations)
        if not exploration.complete:
            raise ExplorationBudgetExceeded(
                "livelock search needs a complete graph; raise the budget"
            )
        # Iterative DFS with colors to find a back edge — int-keyed on
        # intern ids (the traversal order matches the seed calculus
        # exactly, so the reported livelock is bit-identical).
        WHITE, GRAY, BLACK = 0, 1, 2
        color: Dict[int, int] = {cid: WHITE for cid in exploration.order_ids}
        on_path: List[Tuple[int, Edge]] = []
        successor_ids = exploration.successor_ids
        value = self._intern.value
        start_id = exploration.order_ids[0]

        stack: List[Tuple[int, int]] = [(start_id, 0)]
        color[start_id] = GRAY
        while stack:
            cid, edge_index = stack[-1]
            edges = successor_ids.get(cid, ())
            if edge_index >= len(edges):
                color[cid] = BLACK
                stack.pop()
                if on_path:
                    on_path.pop()
                continue
            stack[-1] = (cid, edge_index + 1)
            edge, tid = edges[edge_index]
            if color.get(tid, WHITE) == GRAY:
                # Back edge: cycle tid -> ... -> cid -> tid.
                cycle_edges: List[Edge] = []
                collecting = False
                for path_id, path_edge in on_path:
                    if path_id == tid:
                        collecting = True
                    if collecting:
                        cycle_edges.append(path_edge)
                cycle_edges.append(edge)
                moving = frozenset(e.pid for e in cycle_edges)
                entry = value(tid)
                undecided = {
                    pid
                    for pid in sorted(moving)
                    if entry.statuses[pid] is RUNNING
                }
                if undecided:
                    return Livelock(
                        entry=entry,
                        prefix=tuple(exploration.schedule_to(entry)),
                        cycle=tuple(cycle_edges),
                        moving=moving,
                    )
                continue
            if color.get(tid, WHITE) == WHITE:
                color[tid] = GRAY
                on_path.append((cid, edge))
                stack.append((tid, 0))
        return None

    def find_violation(
        self, task: DecisionTask, inputs: Sequence[Value]
    ) -> Tuple[str, Optional[Union[SafetyCounterexample, Livelock]]]:
        """Safety, then liveness, over one walk of the graph.

        Returns ``("safety", counterexample)``, ``("liveness",
        livelock)`` or ``("none", None)`` — how a candidate is refuted,
        if it is.
        """
        exploration = self.explore()
        counterexample = self.check_safety(task, inputs, exploration=exploration)
        if counterexample is not None:
            return "safety", counterexample
        livelock = self.find_livelock(exploration=exploration)
        if livelock is not None:
            return "liveness", livelock
        return "none", None

    def solo_termination(
        self,
        pid: ProcessId,
        max_configurations: int = 50_000,
    ) -> bool:
        """Does ``pid`` decide (or abort) in *every* solo run from the
        initial configuration?

        Explores the subgraph where only ``pid`` moves; True iff every
        maximal solo path ends with ``pid`` terminated and the subgraph
        is acyclic (a solo cycle = a solo run that never decides). This
        is n-DAC Termination (a)/(b) and the "q-solo history" device the
        proofs invoke constantly.

        The walk is an iterative worklist (no recursion): deep solo
        chains — hundreds of retry steps in the starvation experiments —
        must not hit Python's recursion limit. Successor statuses are
        read straight off the packed rows; no configuration is
        materialized anywhere in the walk.
        """
        start = self._intern.canonical(self.initial_configuration())
        if start.statuses[pid] is not RUNNING:
            return True
        status_key = self._backend.status_key
        WHITE, GRAY, BLACK = 0, 1, 2
        color: Dict[int, int] = {}
        expanded = 0
        start_id = self._intern.id_of(start)
        color[start_id] = GRAY
        # Frame: [config id, edge tuple or None, next edge index].
        stack: List[List] = [[start_id, None, 0]]
        while stack:
            frame = stack[-1]
            cid = frame[0]
            if frame[1] is None:
                if expanded >= max_configurations:
                    raise ExplorationBudgetExceeded(
                        "solo_termination budget exceeded"
                    )
                expanded += 1
                frame[1] = self._pid_entries(cid, pid)
                if not frame[1]:
                    # pid is enabled but has no successor — cannot happen
                    # for total objects; treat as non-termination.
                    return False
            if frame[2] >= len(frame[1]):
                color[cid] = BLACK
                stack.pop()
                continue
            _edge, tid = frame[1][frame[2]]
            frame[2] += 1
            if status_key(tid)[pid] != 0:
                continue  # this solo path terminated
            mark = color.get(tid, WHITE)
            if mark == GRAY:
                return False  # solo cycle: pid steps forever undecided
            if mark == BLACK:
                continue
            color[tid] = GRAY
            stack.append([tid, None, 0])
        return True
