"""Pure-Python flat kernel: big-int words, dict-free hot loop.

Each interned configuration is one arbitrary-precision integer — the
packed row of :mod:`~repro.analysis.kernel.encoding` folded as
``sum(code << FIELD_BITS*slot)``. The BFS hot loop then touches only:

* one list (``_words``, cid -> word),
* one dict (``_ids``, word -> cid) hit once per *generated* successor,
* per-``(pid, local, object code & footprint)`` **delta tables**: a
  transition is applied as a single integer add (the precomputed signed
  adjustment of the three affected fields), not dataclass construction.

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
        #: (pid << FIELD_BITS | local) -> (object index, footprint).
        self._invoke: dict = {}
        #: ((pid << F | local) << F | obj_code & footprint)
        #: -> ((eid, adjustment), ...).
        self._deltas: dict = {}
        #: Status segment (the P status fields as one int) -> its tuple.
        self._status_shift = n_processes * FIELD_BITS
        self._status_mask = (1 << self._status_shift) - 1
        self._status_keys: dict = {}

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

    def _expand_new(self, cid: int) -> List[int]:
        """Compute, intern, and record the full adjacency of ``cid``."""
        word = self._words[cid]
        n = self.n_processes
        words = self._words
        ids = self._ids
        adjacency = self._adjacency
        invoke = self._invoke
        delta_tables = self._deltas
        entries: List[int] = []
        for pid in range(n):
            if (word >> ((n + pid) * FIELD_BITS)) & _MASK:
                continue  # status != RUNNING(0): nothing enabled
            local = (word >> (pid * FIELD_BITS)) & _MASK
            ikey = (pid << FIELD_BITS) | local
            target = invoke.get(ikey)
            if target is None:
                target = invoke[ikey] = self._resolve_invoke(pid, local)
            obj_index, mask = target
            obj_code = (word >> ((2 * n + obj_index) * FIELD_BITS)) & _MASK
            dkey = (ikey << FIELD_BITS) | (obj_code & mask)
            deltas = delta_tables.get(dkey)
            if deltas is None:
                deltas = self._make_deltas(pid, local, obj_index, obj_code)
                delta_tables[dkey] = deltas
            for eid, adjustment in deltas:
                tword = word + adjustment
                tid = ids.get(tword)
                if tid is None:
                    tid = len(words)
                    ids[tword] = tid
                    words.append(tword)
                    adjacency.append(None)
                entries.append(eid)
                entries.append(tid)
        adjacency[cid] = entries
        return entries

    def _make_deltas(
        self, pid: int, local: int, obj_index: int, obj_code: int
    ) -> List[Tuple[int, int]]:
        """Precompute (eid, signed word adjustment) for one miss.

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
        deltas = []
        for eid, nl, ns, no in self._compute_deltas(
            pid, local, obj_index, obj_code
        ):
            deltas.append(
                (
                    eid,
                    ((nl - local) << lshift)
                    + (ns << sshift)
                    + ((no - obj_code) << oshift),
                )
            )
        return deltas

    def expand(self, cid: int) -> List[int]:
        """Flat [eid, tid, ...] adjacency of ``cid`` (computed once)."""
        if not 0 <= cid < len(self._words):
            raise _unknown_cid(cid)
        adj = self._adjacency[cid]
        if adj is None:
            adj = self._expand_new(cid)
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
        n = self.n_processes
        if not 0 <= pid < n:
            raise IndexError(f"unknown pid {pid}")
        word = self._words[cid]
        entries: List[int] = []
        if (word >> ((n + pid) * FIELD_BITS)) & _MASK:
            return entries
        local = (word >> (pid * FIELD_BITS)) & _MASK
        ikey = (pid << FIELD_BITS) | local
        target = self._invoke.get(ikey)
        if target is None:
            target = self._invoke[ikey] = self._resolve_invoke(pid, local)
        obj_index, mask = target
        obj_code = (word >> ((2 * n + obj_index) * FIELD_BITS)) & _MASK
        dkey = (ikey << FIELD_BITS) | (obj_code & mask)
        deltas = self._deltas.get(dkey)
        if deltas is None:
            deltas = self._make_deltas(pid, local, obj_index, obj_code)
            self._deltas[dkey] = deltas
        ids = self._ids
        words = self._words
        adjacency = self._adjacency
        for eid, adjustment in deltas:
            tword = word + adjustment
            tid = ids.get(tword)
            if tid is None:
                tid = len(words)
                ids[tword] = tid
                words.append(tword)
                adjacency.append(None)
            entries.append(eid)
            entries.append(tid)
        return entries

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

        Truncation replicates the object-level loop exactly: the budget
        is charged per *newly discovered* successor, the truncating
        configuration's adjacency is already recorded, and the walk
        stops mid-scan (later frontier members stay unexpanded).
        """
        if not 0 <= start_id < len(self._words):
            raise _unknown_cid(start_id)
        words = self._words
        adjacency = self._adjacency
        seen = bytearray(len(words))
        seen[start_id] = 1
        seen_count = 1
        order = [start_id]
        parents: List[int] = []
        frontier = [start_id]
        expansions = 0
        rounds = 0
        depth = 0
        while frontier:
            if on_round is not None:
                on_round(depth, len(frontier), seen_count)
            next_frontier: List[int] = []
            for cid in frontier:
                expansions += 1
                adj = adjacency[cid]
                if adj is None:
                    adj = self._expand_new(cid)
                    if len(seen) < len(words):
                        seen.extend(bytes(len(words) - len(seen)))
                # Iterate a C-built slice of the target ids: on warm
                # replay this loop is the whole walk, and slicing beats
                # stride-2 indexing by a wide margin.
                for index, tid in enumerate(adj[1::2]):
                    if not seen[tid]:
                        if seen_count >= max_configurations:
                            return order, parents, False, expansions, rounds
                        seen[tid] = 1
                        seen_count += 1
                        order.append(tid)
                        parents.append(tid)
                        parents.append(cid)
                        parents.append(adj[index * 2])
                        next_frontier.append(tid)
            rounds += 1
            depth += 1
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
