"""The portable rendering of an exploration graph, and its digest.

The equivalence tests pin explorations by :func:`graph_digest` over
:func:`to_portable`: plain tuples, lists and ints in BFS order, whose
``repr`` is bit-stable across interpreter runs, ``PYTHONHASHSEED``
values and kernel backends.
"""

import hashlib
from typing import Any, Dict, List, Mapping


def to_portable(result) -> Dict[str, object]:
    """A self-contained, picklable rendering of the graph ``result``
    (an :class:`~repro.analysis.explorer.ExplorationResult`).

    Intern ids are explorer-local, so the portable form re-keys
    everything by *position*: ``nodes`` lists each configuration's
    raw field triple (order first, then any extra ids a truncated
    search referenced but never visited), and edges/parents refer
    to node positions. The structure is plain tuples/lists/ints in
    BFS order — its ``repr`` is bit-stable across interpreter runs,
    which is what :func:`graph_digest` relies on (the canonical graph
    rendering the equivalence tests pin).
    """
    assert result.intern is not None
    value = result.intern.value
    positions: Dict[int, int] = {}
    node_ids: List[int] = []

    def register(cid: int) -> int:
        pos = positions.get(cid)
        if pos is None:
            pos = len(node_ids)
            positions[cid] = pos
            node_ids.append(cid)
        return pos

    for cid in result.order_ids:
        register(cid)
    order_len = len(node_ids)
    successors = []
    for cid, entries in result.successor_ids.items():
        cpos = register(cid)
        successors.append(
            (
                cpos,
                tuple(
                    (edge.pid, edge.choice, edge.response, register(tid))
                    for edge, tid in entries
                ),
            )
        )
    parents = []
    for tid, (cid, edge) in result.parent_ids.items():
        parents.append(
            (
                register(tid),
                register(cid),
                edge.pid,
                edge.choice,
                edge.response,
            )
        )
    parent_perms = [
        (register(cid), perm) for cid, perm in result.parent_perms.items()
    ]
    nodes = [
        (
            value(cid).process_states,
            value(cid).statuses,
            value(cid).object_states,
        )
        for cid in node_ids
    ]
    source_node = None
    if result.source_initial is not None:
        source_node = (
            result.source_initial.process_states,
            result.source_initial.statuses,
            result.source_initial.object_states,
        )
    return {
        "version": 1,
        "complete": result.complete,
        "nodes": nodes,
        "order_len": order_len,
        "successors": successors,
        "parents": parents,
        "reduced": result.reduced,
        "source_node": source_node,
        "initial_permutation": result.initial_permutation,
        "parent_perms": parent_perms,
    }


def graph_digest(portable: Mapping[str, Any]) -> str:
    """Repr-based sha256 over a portable exploration graph.

    The portable form (:func:`to_portable`) is built from lists, tuples,
    ints and hashable leaf values in deterministic (BFS) order, so its
    ``repr`` is bit-stable across interpreter runs, ``PYTHONHASHSEED``
    values and kernel backends — the canonical graph rendering the
    equivalence tests compare.
    """
    parts = (
        portable["complete"],
        portable["nodes"],
        portable["order_len"],
        portable["successors"],
        portable["parents"],
        portable["reduced"],
        portable["source_node"],
        portable["initial_permutation"],
        portable["parent_perms"],
    )
    return hashlib.sha256(repr(parts).encode()).hexdigest()
