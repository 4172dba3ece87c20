"""The separation pair ``O_n`` and ``O'_n`` — paper Section 6.

* ``O_n`` (Definition 6.1) is simply the ``(n+1, n)``-PAC object:
  :func:`make_on` returns the corresponding
  :class:`~repro.core.combined.CombinedPacSpec`.

* ``O'_n`` *embodies* the set agreement power of ``O_n``: it bundles
  the ``(n_k, k)``-SA objects for every ``k >= 1`` behind a single
  ``PROPOSE(v, k)`` operation that routes to the ``k``-th bundle member.
  :class:`SetAgreementBundleSpec` implements the bundle over a *finite
  prefix* of the power sequence — observationally faithful, because any
  finite execution uses finitely many levels ``k`` (DESIGN.md,
  substitution table). Levels beyond the prefix raise, loudly, rather
  than silently misbehaving.

The main theorem (Corollary 6.6) is that these two objects have the same
set agreement power yet are *not* equivalent: ``O'_n`` + registers
cannot implement ``O_n``. The power-equality half is computed by
:mod:`repro.core.power` and swept constructively in experiment E10; the
non-equivalence half is the lower-bound machinery of experiments E5/E7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence, Tuple

from ..errors import InvalidOperationError, SpecificationError
from ..types import Operation, Value, op, require
from ..objects.spec import Outcome, SequentialSpec, expect_arity, reject_unknown
from .combined import CombinedPacSpec
from .power import SetAgreementPower, on_power
from .set_agreement import NKSetAgreementSpec, PortCount, sa_family_for_power


def make_on(n: int) -> CombinedPacSpec:
    """Build ``O_n = (n+1, n)-PAC`` (Definition 6.1). Requires ``n >= 2``."""
    require(n >= 2, SpecificationError, f"O_n is defined for n >= 2, got {n}")
    spec = CombinedPacSpec(n + 1, n)
    spec.kind = f"O_{n}"
    return spec


class SetAgreementBundleSpec(SequentialSpec):
    """A bundle of ``(n_k, k)``-SA objects behind ``PROPOSE(v, k)``.

    ``levels`` holds the port count ``n_k`` for each ``k`` in
    ``1..len(levels)``. The state is the tuple of member states; the
    bundle is nondeterministic because its members are.

    >>> from repro.types import op
    >>> from repro.core.set_agreement import UNBOUNDED
    >>> bundle = SetAgreementBundleSpec((2, UNBOUNDED))
    >>> state = bundle.initial_state()
    >>> state, response = bundle.apply(state, op("propose", "a", 1))
    >>> response
    'a'
    """

    kind = "SA-bundle"
    deterministic = False

    def __init__(self, levels: Sequence[PortCount]) -> None:
        self.levels = tuple(levels)
        self.members: Tuple[NKSetAgreementSpec, ...] = tuple(
            sa_family_for_power(self.levels)
        )
        self.kind = f"SA-bundle[{len(self.levels)} levels]"

    def initial_state(self) -> Hashable:
        return tuple(member.initial_state() for member in self.members)

    def operation_names(self) -> Tuple[str, ...]:
        return ("propose",)

    def responses(self, state: Hashable, operation: Operation) -> Sequence[Outcome]:
        if operation.name != "propose":
            reject_unknown(self, operation)
        expect_arity(operation, 2, self.kind)
        value, level = operation.args
        if not isinstance(level, int) or level < 1:
            raise InvalidOperationError(
                f"{self.kind}: level must be a positive integer, got {level!r}"
            )
        if level > len(self.members):
            raise InvalidOperationError(
                f"{self.kind}: level {level} beyond the materialized prefix "
                f"of {len(self.members)} levels; rebuild the bundle with a "
                f"longer power prefix"
            )
        assert isinstance(state, tuple)
        index = level - 1
        member = self.members[index]
        outcomes = []
        for member_state, response in member.responses(
            state[index], op("propose", value)
        ):
            next_state = state[:index] + (member_state,) + state[index + 1 :]
            outcomes.append((next_state, response))
        return tuple(outcomes)


def make_on_prime(n: int, levels: int = 4) -> SetAgreementBundleSpec:
    """Build ``O'_n`` over the first ``levels`` components of the power.

    The materialized port counts are the *certified lower bounds* of
    ``O_n``'s power (exact at ``k = 1`` by Theorem 5.3). The paper's
    object uses the true ``n_k``; since the tail values are open even in
    the paper, the lower bounds are the faithful executable stand-in —
    every behaviour of our bundle is a behaviour of the paper's.
    """
    power = on_power(n)
    bundle = SetAgreementBundleSpec(power.lower_prefix(levels))
    bundle.kind = f"O'_{n}[{levels} levels]"
    return bundle


@dataclass(frozen=True)
class SeparationPair:
    """The two objects of Corollary 6.6 for one hierarchy level ``n``,
    together with their (shared) power sequence."""

    n: int
    on: CombinedPacSpec
    on_prime: SetAgreementBundleSpec
    power: SetAgreementPower


def separation_pair(n: int, levels: int = 4) -> SeparationPair:
    """Assemble the full Corollary 6.6 witness pair at level ``n``."""
    return SeparationPair(
        n=n,
        on=make_on(n),
        on_prime=make_on_prime(n, levels),
        power=on_power(n),
    )
