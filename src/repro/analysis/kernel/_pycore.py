"""Pure-Python flat kernel: big-int words, dict-free hot loop.

Each interned configuration is one arbitrary-precision integer — the
packed row of :mod:`~repro.analysis.kernel.encoding` folded as
``sum(code << FIELD_BITS*slot)``. The BFS hot loop then touches only:

* one list (``_words``, cid -> word),
* one dict (``_ids``, word -> cid) hit once per *generated* successor,
* per-``(pid, local, object code & footprint)`` **delta tables**: a
  transition is applied as a single integer add (the precomputed signed
  adjustment of the three affected fields), not dataclass construction.

The walk makes one pass per configuration: it discovers each successor
the moment it interns it, instead of expanding a configuration and then
scanning the adjacency it recorded. The compiled backend expands and
then scans, which is cheap in C; the discovery sequence is the same.

Protocol semantics stay in Python land: when a ``(pid, local)`` or
``(pid, local, obj & footprint)`` key misses its table the kernel calls
back into the explorer's code space (``resolve_invoke`` /
``compute_deltas``) exactly once, then replays the memoized result
forever after. The footprint is the mask of the object code bits the
pending operation reads or writes; the step never changes a bit outside
it, so one adjustment serves every object code under the masked key.
The compiled backend mirrors this contract byte-for-byte — same ids,
same edge order.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from .encoding import FIELD_BITS

#: Backend name reported through ``Explorer.kernel``/benches.
NAME = "python"

_MASK = (1 << FIELD_BITS) - 1


def _unknown_cid(cid: int) -> IndexError:
    """The compiled backend's error for an out-of-range cid, verbatim."""
    return IndexError(f"unknown configuration id {cid}")


class PyKernel:
    """Flat exploration core over packed big-int configuration words.

    ``resolve_invoke(pid, local_code) -> (obj_index, mask)`` names the
    object a running process is poised at and the footprint of its
    operation (``MAX_CODE - 1`` keys on the whole object code);
    ``compute_deltas(pid, local_code, obj_index, obj_code) ->
    ((edge_id, new_local, new_status, new_obj), ...)`` enumerates its
    outcomes from the first object code seen under the masked key, and
    ``new_obj`` must equal ``obj_code`` outside ``mask``. Both are
    called only on table misses, in deterministic (pid-ascending,
    outcome-order) sequence, so edge-id allocation is identical across
    backends.
    """

    __slots__ = (
        "n_fields",
        "n_processes",
        "_resolve_invoke",
        "_compute_deltas",
        "_ids",
        "_words",
        "_adjacency",
        "_invoke",
        "_deltas",
        "_status_shift",
        "_status_mask",
        "_status_keys",
        "_running",
    )

    def __init__(
        self,
        n_fields: int,
        n_processes: int,
        resolve_invoke: Callable[[int, int], Tuple[int, int]],
        compute_deltas: Callable[
            [int, int, int, int], Sequence[Tuple[int, int, int, int]]
        ],
    ) -> None:
        self.n_fields = n_fields
        self.n_processes = n_processes
        self._resolve_invoke = resolve_invoke
        self._compute_deltas = compute_deltas
        self._ids: dict = {}
        self._words: List[int] = []
        #: cid -> flat [eid, tid, eid, tid, ...] or None if unexpanded.
        self._adjacency: List[Optional[List[int]]] = []
        #: (pid << FIELD_BITS | local) -> (object shift, footprint,
        #: delta-key base, object index).
        self._invoke: dict = {}
        #: ((pid << F | local) << F | obj_code & footprint)
        #: -> ((eid, adjustment), ...).
        self._deltas: dict = {}
        #: Status segment (the P status fields as one int) -> its tuple.
        self._status_shift = n_processes * FIELD_BITS
        self._status_mask = (1 << self._status_shift) - 1
        self._status_keys: dict = {}
        #: Status segment -> the pids it marks RUNNING.
        self._running: dict = {}

    # -- interning ------------------------------------------------------------

    def intern_row(self, codes: Sequence[int]) -> int:
        """The cid of a code row, interning it if new."""
        word = 0
        for slot, code in enumerate(codes):
            word |= code << (slot * FIELD_BITS)
        cid = self._ids.get(word)
        if cid is None:
            cid = len(self._words)
            self._ids[word] = cid
            self._words.append(word)
            self._adjacency.append(None)
        return cid

    def find_row(self, codes: Sequence[int]) -> Optional[int]:
        """The cid of a code row, or None — never interns."""
        word = 0
        for slot, code in enumerate(codes):
            word |= code << (slot * FIELD_BITS)
        return self._ids.get(word)

    def row(self, cid: int) -> Tuple[int, ...]:
        """The code row of an interned cid."""
        if not 0 <= cid < len(self._words):
            raise _unknown_cid(cid)
        word = self._words[cid]
        return tuple(
            (word >> (slot * FIELD_BITS)) & _MASK
            for slot in range(self.n_fields)
        )

    def __len__(self) -> int:
        return len(self._words)

    # -- expansion ------------------------------------------------------------

    def _running_of(self, word: int) -> Tuple[int, ...]:
        """The pids RUNNING (status code 0) in ``word``, ascending; one
        tuple per distinct status segment."""
        segment = (word >> self._status_shift) & self._status_mask
        running = self._running.get(segment)
        if running is None:
            running = self._running[segment] = tuple(
                pid
                for pid in range(self.n_processes)
                if not (segment >> (pid * FIELD_BITS)) & _MASK
            )
        return running

    def _step_of(self, pid: int, local: int) -> Tuple[int, int, int, int]:
        """``(object shift, footprint, delta-key base, object index)`` of
        ``pid`` poised in ``local``, resolved on the key's first miss."""
        ikey = (pid << FIELD_BITS) | local
        obj_index, mask = self._resolve_invoke(pid, local)
        step = self._invoke[ikey] = (
            (2 * self.n_processes + obj_index) * FIELD_BITS,
            mask,
            ikey << FIELD_BITS,
            obj_index,
        )
        return step

    def _make_deltas(
        self, pid: int, local: int, obj_index: int, obj_code: int, dkey: int
    ) -> List[Tuple[int, int]]:
        """Precompute and record (eid, signed word adjustment) for the
        missed delta key ``dkey``.

        The expanding pid's status is always code 0 (RUNNING), so the
        adjustment covers all three touched fields exactly:
        local += nl-local, status += ns-0, object += no-obj_code. ``no``
        equals ``obj_code`` outside the footprint, so ``no - obj_code``
        is the same for every object code under the masked key.
        """
        n = self.n_processes
        lshift = pid * FIELD_BITS
        sshift = (n + pid) * FIELD_BITS
        oshift = (2 * n + obj_index) * FIELD_BITS
        deltas = self._deltas[dkey] = [
            (
                eid,
                ((nl - local) << lshift)
                + (ns << sshift)
                + ((no - obj_code) << oshift),
            )
            for eid, nl, ns, no in self._compute_deltas(
                pid, local, obj_index, obj_code
            )
        ]
        return deltas

    def _entries(self, word: int, pids: Sequence[int]) -> List[int]:
        """Flat [eid, tid, ...] of the running ``pids`` stepping from
        ``word``, interning each new successor. :meth:`run_bfs` inlines
        this step to discover successors as it interns them."""
        ids = self._ids
        words = self._words
        entries: List[int] = []
        for pid in pids:
            local = (word >> (pid * FIELD_BITS)) & _MASK
            step = self._invoke.get((pid << FIELD_BITS) | local)
            if step is None:
                step = self._step_of(pid, local)
            oshift, mask, dbase, obj_index = step
            obj_code = (word >> oshift) & _MASK
            dkey = dbase | (obj_code & mask)
            deltas = self._deltas.get(dkey)
            if deltas is None:
                deltas = self._make_deltas(
                    pid, local, obj_index, obj_code, dkey
                )
            for eid, adjustment in deltas:
                tword = word + adjustment
                tid = ids.get(tword)
                if tid is None:
                    tid = ids[tword] = len(words)
                    words.append(tword)
                    self._adjacency.append(None)
                entries.append(eid)
                entries.append(tid)
        return entries

    def expand(self, cid: int) -> List[int]:
        """Flat [eid, tid, ...] adjacency of ``cid`` (computed once)."""
        if not 0 <= cid < len(self._words):
            raise _unknown_cid(cid)
        adj = self._adjacency[cid]
        if adj is None:
            word = self._words[cid]
            adj = self._adjacency[cid] = self._entries(
                word, self._running_of(word)
            )
        return adj

    def adjacency(self, cid: int) -> Optional[List[int]]:
        """The recorded adjacency of ``cid``, or None — never expands."""
        if not 0 <= cid < len(self._words):
            raise _unknown_cid(cid)
        return self._adjacency[cid]

    def expand_pid(self, cid: int, pid: int) -> List[int]:
        """Flat [eid, tid, ...] for one pid; does NOT record adjacency.

        Backs ``Explorer.step``'s targeted expansion, which must not
        populate the full-expansion cache (pinned by the targeted-step
        tests).
        """
        if not 0 <= cid < len(self._words):
            raise _unknown_cid(cid)
        if not 0 <= pid < self.n_processes:
            raise IndexError(f"unknown pid {pid}")
        word = self._words[cid]
        if pid not in self._running_of(word):
            return []
        return self._entries(word, (pid,))

    # -- batch traversal --------------------------------------------------------

    def run_bfs(
        self,
        start_id: int,
        max_configurations: int,
        on_round: Optional[Callable[[int, int, int], None]] = None,
    ) -> Tuple[List[int], List[int], bool, int, int]:
        """Breadth-first expansion of the whole reachable graph.

        Returns ``(order, parents, complete, expansions, rounds)``:
        ``order`` is every distinct configuration in discovery order
        (``start_id`` first); ``parents`` is a flat ``[tid, src, eid,
        ...]`` triple list over the non-root entries of ``order``;
        ``complete`` is False when the ``max_configurations`` budget
        truncated the walk. ``on_round(depth, width, seen)`` fires once
        per frontier before it is scanned (tracing hook).

        One pass per configuration: a frontier cid's recorded adjacency
        is scanned; an unexpanded cid is expanded with the step of
        :meth:`_entries` inlined, each successor discovered as it is
        yielded. An id this walk interns is new to it, so only the ids
        interned before the walk carry a seen flag (the miss hooks
        never intern). Ids, edges and discovery order are those of
        expanding each cid and then scanning its adjacency.

        Truncation replicates the object-level loop exactly: the budget
        is charged per *newly discovered* successor, the truncating
        configuration's full adjacency is recorded before returning,
        and later frontier members stay unexpanded.
        """
        words = self._words
        if not 0 <= start_id < len(words):
            raise _unknown_cid(start_id)
        adjacency = self._adjacency
        intern = self._ids.setdefault
        running_of = self._running
        steps = self._invoke
        delta_tables = self._deltas
        status_shift = self._status_shift
        status_mask = self._status_mask
        # Ids from ``known`` on are interned, and discovered, by this walk.
        known = size = len(words)
        seen = bytearray(known)
        seen[start_id] = 1
        seen_count = 1
        order = [start_id]
        parents: List[int] = []
        frontier = [start_id]
        expansions = 0
        rounds = 0
        complete = True
        while frontier:
            if on_round is not None:
                on_round(rounds, len(frontier), seen_count)
            next_frontier: List[int] = []
            for cid in frontier:
                expansions += 1
                adj = adjacency[cid]
                if adj is not None:
                    # Iterate a C-built slice of the target ids: on warm
                    # replay this loop is the whole walk, and slicing
                    # beats stride-2 indexing by a wide margin.
                    for index, tid in enumerate(adj[1::2]):
                        if not seen[tid]:
                            if seen_count >= max_configurations:
                                order += next_frontier
                                return order, parents, False, expansions, rounds
                            seen[tid] = 1
                            seen_count += 1
                            parents.append(tid)
                            parents.append(cid)
                            parents.append(adj[index * 2])
                            next_frontier.append(tid)
                    continue
                word = words[cid]
                running = running_of.get((word >> status_shift) & status_mask)
                if running is None:
                    running = self._running_of(word)
                entries: List[int] = []
                for pid in running:
                    local = (word >> (pid * FIELD_BITS)) & _MASK
                    step = steps.get((pid << FIELD_BITS) | local)
                    if step is None:
                        step = self._step_of(pid, local)
                    oshift, mask, dbase, obj_index = step
                    obj_code = (word >> oshift) & _MASK
                    dkey = dbase | (obj_code & mask)
                    deltas = delta_tables.get(dkey)
                    if deltas is None:
                        deltas = self._make_deltas(
                            pid, local, obj_index, obj_code, dkey
                        )
                    for eid, adjustment in deltas:
                        tword = word + adjustment
                        tid = intern(tword, size)
                        entries.append(eid)
                        entries.append(tid)
                        if tid == size:
                            size += 1
                            words.append(tword)
                            adjacency.append(None)
                        elif tid >= known or seen[tid]:
                            continue
                        else:
                            seen[tid] = 1
                        # Past the budget the walk ends after this cid,
                        # so a flag set above for an undiscovered id is
                        # never read.
                        if seen_count < max_configurations:
                            seen_count += 1
                            parents.append(tid)
                            parents.append(cid)
                            parents.append(eid)
                            next_frontier.append(tid)
                        else:
                            complete = False
                adjacency[cid] = entries
                if not complete:
                    order += next_frontier
                    return order, parents, False, expansions, rounds
            rounds += 1
            order += next_frontier
            frontier = next_frontier
        return order, parents, True, expansions, rounds

    # -- status access ----------------------------------------------------------

    def status_key(self, cid: int) -> Tuple[int, ...]:
        """The P status codes of ``cid`` — the safety-relevant segment.

        Configurations sharing a status key share decisions, aborts,
        and enabled sets, so verdict memoization keys on this tuple. A
        graph has few distinct status segments, so the tuple is built
        once per segment and shared.
        """
        words = self._words
        if not 0 <= cid < len(words):
            raise _unknown_cid(cid)
        segment = (words[cid] >> self._status_shift) & self._status_mask
        try:
            return self._status_keys[segment]
        except KeyError:
            key = tuple(
                (segment >> (pid * FIELD_BITS)) & _MASK
                for pid in range(self.n_processes)
            )
            self._status_keys[segment] = key
            return key
