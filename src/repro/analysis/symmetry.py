"""Opt-in symmetry reduction for process-symmetric instances.

Many of the paper's instances are *process-symmetric*: swapping two
processes that run the same automaton with the same input yields a
configuration the adversary cannot distinguish from the original. The
reachable graph then splits into orbits under a permutation group, and
exploring one canonical representative per orbit answers every
orbit-invariant question (decision sets, safety of a symmetric task,
valency labels) on a graph that can be factorially smaller.

:class:`ProcessSymmetry` describes such a group: disjoint *groups* of
interchangeable pids, plus per-object *state permuters* for objects
whose state mentions process identities (the ``n``-PAC's label-indexed
proposal array — see :func:`repro.core.pac.permute_pac_state`). Objects
whose state is pid-free (the ``m``-consensus object's ``(winner,
applied)`` pair) need no permuter: the identity is correct.

Soundness
---------

Quotienting by a permutation ``p`` (``p[i]`` = new pid of old pid
``i``) is sound only when ``p`` is an *automorphism* of the transition
relation, which the constructor cannot fully check. The caller asserts:

1. processes within a group run identical automata modulo their pid —
   same local-state machine, same inputs (use :func:`groups_by_input`),
   with any pid-dependence confined to operation arguments the object
   permuter accounts for (Algorithm 2's ``label = pid + 1``);
2. each supplied object permuter is an automorphism of that object's
   sequential spec: permuting the state commutes with every operation
   (with its pid-labelled arguments relabelled accordingly);
3. objects without a permuter have pid-free states and pid-independent
   operations within each group;
4. any property read off the reduced graph is orbit-invariant — e.g.
   decision sets or valency labels. Safety is the exception:
   :meth:`~repro.analysis.explorer.Explorer.check_safety` audits every
   group permutation of each representative's status row, so any
   predicate gets the full walk's verdict from an initial
   configuration the group fixes.

Factories next to the protocols encode these obligations once:
:func:`repro.protocols.dac_from_pac.algorithm2_symmetry` builds the
correct symmetry for Algorithm 2 instances.

Witnesses from a reduced graph are mapped back to the concrete system
by :meth:`~repro.analysis.explorer.ExplorationResult.schedule_to`, so
``repro.analysis.replay`` verifies them bit-for-bit as usual.

Determinism: the canonical representative is the permuted variant with
the lexicographically least ``repr`` — a pure string comparison, so the
choice (and the reduced BFS order) is independent of
``PYTHONHASHSEED``, preserving the replayability contract (R001).

Canonicalization runs on the explorer's packed rows
(:meth:`~repro.analysis.explorer.Explorer.row_canonicalizer`): the
key strings are assembled from cached per-slot ``repr`` pieces and
only the winning variant is encoded, so a reduced walk builds no
configuration per successor. This module describes the group; the
explorer walks it.
"""

from __future__ import annotations

from itertools import permutations as _permutations
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import AnalysisError
from ..types import Value
from .explorer import Permutation

#: Maps an object state through a process permutation.
StatePermuter = Callable[[Hashable, Permutation], Hashable]


def groups_by_input(
    inputs: Sequence[Value], exclude: Iterable[int] = ()
) -> Tuple[Tuple[int, ...], ...]:
    """Group pids by equal input, excluding distinguished pids.

    The standard way to build the pid groups for a protocol whose
    processes are identical modulo input: processes with equal inputs
    are interchangeable, the ``exclude`` pids (e.g. Algorithm 2's
    distinguished aborter) are never grouped.

    >>> groups_by_input((1, 0, 0, 0), exclude=(0,))
    ((1, 2, 3),)
    """
    excluded = set(exclude)
    by_value: Dict[Value, List[int]] = {}
    for pid, value in enumerate(inputs):
        if pid in excluded:
            continue
        by_value.setdefault(value, []).append(pid)
    return tuple(
        tuple(group) for group in by_value.values() if len(group) > 1
    )


class ProcessSymmetry:
    """A process-permutation group with per-object state permuters.

    ``groups`` are disjoint pid sets whose members are interchangeable;
    the group generated is the direct product of the full symmetric
    groups on each. ``object_permuters`` maps object *names* to
    functions relabelling that object's state under a permutation;
    objects not named are assumed pid-free and left untouched.
    """

    def __init__(
        self,
        n: int,
        groups: Iterable[Iterable[int]],
        object_permuters: Optional[Mapping[str, StatePermuter]] = None,
    ) -> None:
        self.n = n
        self.groups: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sorted(group)) for group in groups
        )
        seen: set = set()
        for group in self.groups:
            for pid in group:
                if not 0 <= pid < n:
                    raise AnalysisError(
                        f"symmetry group pid {pid} outside 0..{n - 1}"
                    )
                if pid in seen:
                    raise AnalysisError(
                        f"symmetry groups must be disjoint; pid {pid} repeats"
                    )
                seen.add(pid)
        self.object_permuters: Dict[str, StatePermuter] = dict(
            object_permuters or {}
        )
        self.permutations: Tuple[Permutation, ...] = tuple(
            self._enumerate_permutations()
        )

    def _enumerate_permutations(self) -> List[Permutation]:
        """Every group element as a full 0..n-1 permutation, identity
        first, in a deterministic order."""
        perms: List[Permutation] = [tuple(range(self.n))]
        for group in self.groups:
            extended: List[Permutation] = []
            for images in _permutations(group):
                mapping = dict(zip(group, images))
                for base in perms:
                    extended.append(
                        tuple(
                            mapping.get(base[i], base[i])
                            for i in range(self.n)
                        )
                    )
            # itertools.permutations yields the identity arrangement
            # first, so extended[0] is always the untouched base order.
            perms = extended
        return perms
