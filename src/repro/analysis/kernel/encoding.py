"""Structural integer encoding of configurations (the packed word).

Interning whole :class:`~repro.analysis.explorer.Configuration`
objects costs one deep tuple hash per lookup. The kernel goes one level
deeper and interns the *slots*: every process local state, process status, and object state is
mapped to a small per-slot integer code, so a configuration becomes a
fixed-width row of ``2·P + M`` codes (``P`` processes, ``M`` objects)::

    slot        0 .. P-1        P .. 2P-1         2P .. 2P+M-1
    contents    local state     process status    object state
                of pid i        of pid i          of object j

Each code is allocated first-seen (discovery order — deterministic and
independent of ``PYTHONHASHSEED``, the R001 contract) and fits in
:data:`FIELD_BITS` bits, so a whole row packs into one machine-friendly
word: the pure-Python backend folds it into a single big int
(``code << FIELD_BITS·slot``), the compiled backend keeps it as a
``uint32`` row. Applying a transition is then integer arithmetic on
three fields instead of tuple surgery plus a deep hash.

Status code 0 is reserved for ``RUNNING`` (the seed statuses are
pre-interned at construction), which makes "is this process enabled" a
zero-test on the packed status field.

Decoding returns the *original* interned objects — the first-seen local
state / status / object state — so configurations materialized from a
row are value- and repr-identical to the ones the old object-level
explorer built (seed-digest equivalence is bit-for-bit).
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence, Tuple

from ...errors import AnalysisError

#: Width of one packed field. 24 bits = 16.7M distinct values per slot,
#: far beyond any graph the bounded explorer can hold in memory, while
#: keeping a whole status segment comfortably inside one machine word
#: for small ``P``.
FIELD_BITS = 24

#: Exclusive upper bound for any slot code.
MAX_CODE = 1 << FIELD_BITS


class PackedEncoder:
    """Bidirectional (state object) <-> (slot code) tables for one
    protocol instance.

    One encoder belongs to one explorer: the code spaces are built
    around a fixed process/object count, and codes are allocated in
    first-seen order per slot. ``encode`` allocates; the ``peek``
    variants never allocate (they answer None for unseen values), which
    is what keeps :meth:`~repro.analysis.explorer.PackedConfigTable.get_id`
    queries side-effect-free.
    """

    __slots__ = (
        "n_processes",
        "n_objects",
        "n_fields",
        "_local_ids",
        "_local_values",
        "_status_ids",
        "_status_values",
        "_object_ids",
        "_object_values",
    )

    def __init__(
        self,
        n_processes: int,
        n_objects: int,
        seed_statuses: Sequence[Tuple] = (),
    ) -> None:
        self.n_processes = n_processes
        self.n_objects = n_objects
        self.n_fields = 2 * n_processes + n_objects
        self._local_ids: List[dict] = [{} for _ in range(n_processes)]
        self._local_values: List[List[Hashable]] = [
            [] for _ in range(n_processes)
        ]
        self._status_ids: dict = {}
        self._status_values: List[Tuple] = []
        for status in seed_statuses:
            self._status_ids[status] = len(self._status_values)
            self._status_values.append(status)
        self._object_ids: List[dict] = [{} for _ in range(n_objects)]
        self._object_values: List[List[Hashable]] = [
            [] for _ in range(n_objects)
        ]

    # -- per-slot allocation ------------------------------------------------

    def local_code(self, pid: int, state: Hashable) -> int:
        """The code of ``state`` in pid's local slot (allocating)."""
        ids = self._local_ids[pid]
        code = ids.get(state)
        if code is None:
            values = self._local_values[pid]
            code = len(values)
            if code >= MAX_CODE:
                raise AnalysisError(
                    f"packed encoding overflow: process {pid} has more than "
                    f"{MAX_CODE} distinct local states"
                )
            ids[state] = code
            values.append(state)
        return code

    def status_code(self, status: Tuple) -> int:
        """The code of ``status`` in the shared status slot (allocating)."""
        ids = self._status_ids
        code = ids.get(status)
        if code is None:
            values = self._status_values
            code = len(values)
            if code >= MAX_CODE:
                raise AnalysisError(
                    f"packed encoding overflow: more than {MAX_CODE} "
                    f"distinct process statuses"
                )
            ids[status] = code
            values.append(status)
        return code

    def object_code(self, obj_index: int, state: Hashable) -> int:
        """The code of ``state`` in an object's slot (allocating)."""
        ids = self._object_ids[obj_index]
        code = ids.get(state)
        if code is None:
            values = self._object_values[obj_index]
            code = len(values)
            if code >= MAX_CODE:
                raise AnalysisError(
                    f"packed encoding overflow: object {obj_index} has more "
                    f"than {MAX_CODE} distinct states"
                )
            ids[state] = code
            values.append(state)
        return code

    def object_slot(self, obj_index: int) -> Tuple[dict, List[Hashable]]:
        """The live ``(state -> code, code -> state)`` tables of an
        object's slot, for a caller's hot loop: a hit read straight
        from them skips a method call. Allocate through
        :meth:`object_code` only, so the two stay in step."""
        return self._object_ids[obj_index], self._object_values[obj_index]

    # -- decoding -------------------------------------------------------------

    def local_value(self, pid: int, code: int) -> Hashable:
        """The first-seen local state carrying ``code`` in pid's slot."""
        return self._local_values[pid][code]

    def status_value(self, code: int) -> Tuple:
        """The first-seen status tuple carrying ``code``."""
        return self._status_values[code]

    def object_value(self, obj_index: int, code: int) -> Hashable:
        """The first-seen object state carrying ``code``."""
        return self._object_values[obj_index][code]

    # -- whole-row encoding ---------------------------------------------------

    def encode(
        self,
        process_states: Sequence[Hashable],
        statuses: Sequence[Tuple],
        object_states: Sequence[Hashable],
    ) -> List[int]:
        """The code row of a configuration's field triple (allocating)."""
        row = [self.local_code(pid, s) for pid, s in enumerate(process_states)]
        row.extend(self.status_code(status) for status in statuses)
        row.extend(
            self.object_code(oi, s) for oi, s in enumerate(object_states)
        )
        return row

    def peek(
        self,
        process_states: Sequence[Hashable],
        statuses: Sequence[Tuple],
        object_states: Sequence[Hashable],
    ) -> Optional[List[int]]:
        """The code row if every slot value was seen before, else None.

        Never allocates — the side-effect-free form backing
        ``get_id``-style queries.
        """
        row: List[int] = []
        for pid, state in enumerate(process_states):
            code = self._local_ids[pid].get(state)
            if code is None:
                return None
            row.append(code)
        for status in statuses:
            code = self._status_ids.get(status)
            if code is None:
                return None
            row.append(code)
        for oi, state in enumerate(object_states):
            code = self._object_ids[oi].get(state)
            if code is None:
                return None
            row.append(code)
        return row

    def decode(
        self, row: Sequence[int]
    ) -> Tuple[Tuple[Hashable, ...], Tuple[Tuple, ...], Tuple[Hashable, ...]]:
        """The (process_states, statuses, object_states) triple of a row,
        built from the first-seen interned objects."""
        n = self.n_processes
        states = tuple(
            self._local_values[pid][row[pid]] for pid in range(n)
        )
        statuses = tuple(
            self._status_values[row[n + pid]] for pid in range(n)
        )
        objects = tuple(
            self._object_values[oi][row[2 * n + oi]]
            for oi in range(self.n_objects)
        )
        return states, statuses, objects
