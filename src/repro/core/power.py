"""Set agreement power: sequences ``(n_1, n_2, ..., n_k, ...)`` — Section 1.

The *k-set agreement number* of an object ``O`` is the largest ``n_k``
such that instances of ``O`` plus registers solve ``k``-set agreement
among ``n_k`` processes (``∞`` if unbounded); the *set agreement power*
is the whole sequence. Computing the sequence exactly is undecidable in
general — the paper itself never computes the tail for its own objects
``O_n`` — so this module is deliberately honest about knowledge:

* :class:`PowerBound` records a certified lower bound (there exists a
  protocol — the constructive protocols of :mod:`repro.protocols` back
  every lower bound we emit), an upper bound when a matching
  impossibility is known (``None`` = unknown), and provenance strings.
* :class:`SetAgreementPower` is a sequence of bounds with helpers for
  truncation and comparison.

Known-power constructors provided, each annotated with its source:

* registers — ``n_k = k`` (BG/HS impossibility; trivial protocol);
* ``m``-consensus — ``n_k = m·k`` (Chaudhuri–Reiners [6]; group
  partition protocol gives the lower bound);
* strong 2-SA — ``(1, ∞, ∞, ...)``;
* ``(n, m)``-PAC — ``n_1 = m`` exactly (Theorem 5.3), ``n_k ≥ m·k`` for
  ``k ≥ 2`` via the embedded consensus object (tail upper bounds
  unknown — exactly the paper's situation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from ..errors import SpecificationError
from ..types import require
from .set_agreement import UNBOUNDED, PortCount, _Unbounded


def _as_sortable(count: PortCount) -> float:
    """Map a port count onto the reals for comparisons (∞ → inf)."""
    return float("inf") if isinstance(count, _Unbounded) else float(count)


@dataclass(frozen=True)
class PowerBound:
    """Bounds on one component ``n_k`` of a set agreement power sequence.

    ``lower`` is always certified (a protocol exists); ``upper`` is
    ``None`` when no impossibility is known. ``source`` documents where
    each bound comes from.
    """

    lower: PortCount
    upper: Optional[PortCount] = None
    source: str = ""

    def __post_init__(self) -> None:
        if self.upper is not None:
            require(
                _as_sortable(self.lower) <= _as_sortable(self.upper),
                SpecificationError,
                f"lower bound {self.lower!r} exceeds upper bound {self.upper!r}",
            )

    @property
    def exact(self) -> bool:
        """True when the component is pinned (lower == upper)."""
        return self.upper is not None and _as_sortable(self.lower) == _as_sortable(
            self.upper
        )

    @property
    def value(self) -> PortCount:
        """The exact value; raises if the component is not pinned."""
        if not self.exact:
            raise SpecificationError(
                f"component is not exact (lower={self.lower!r}, "
                f"upper={self.upper!r})"
            )
        return self.lower

    def __repr__(self) -> str:
        if self.exact:
            return f"={self.lower!r}"
        upper = "?" if self.upper is None else repr(self.upper)
        return f"[{self.lower!r}..{upper}]"


class SetAgreementPower:
    """A set agreement power sequence with per-component bounds.

    Constructed from a function ``k -> PowerBound`` so tails can be
    described lazily, plus a printable name.
    """

    def __init__(self, component: Callable[[int], PowerBound], name: str) -> None:
        self._component = component
        self.name = name

    def __getitem__(self, k: int) -> PowerBound:
        require(k >= 1, SpecificationError, f"component index must be >= 1, got {k}")
        return self._component(k)

    def prefix(self, length: int) -> Tuple[PowerBound, ...]:
        """The first ``length`` components as bounds."""
        return tuple(self[k] for k in range(1, length + 1))

    def lower_prefix(self, length: int) -> Tuple[PortCount, ...]:
        """Certified lower bounds for the first ``length`` components —
        what :func:`repro.core.separation.make_on_prime` materializes."""
        return tuple(self[k].lower for k in range(1, length + 1))

    def agrees_with(self, other: "SetAgreementPower", length: int) -> bool:
        """True when both sequences have identical bounds on a prefix.

        Used by the separation experiment (E10): ``O'_n`` is built to
        *embody* ``O_n``'s power, so their bound sequences coincide by
        construction; this method checks it.
        """
        for k in range(1, length + 1):
            mine, theirs = self[k], other[k]
            if _as_sortable(mine.lower) != _as_sortable(theirs.lower):
                return False
            mine_upper = None if mine.upper is None else _as_sortable(mine.upper)
            theirs_upper = None if theirs.upper is None else _as_sortable(theirs.upper)
            if mine_upper != theirs_upper:
                return False
        return True

    def describe(self, length: int = 6) -> str:
        """Render the first ``length`` components, e.g. for reports."""
        parts = ", ".join(repr(self[k]) for k in range(1, length + 1))
        return f"{self.name}: ({parts}, ...)"

    def __repr__(self) -> str:
        return f"<SetAgreementPower {self.describe(4)}>"


def register_power() -> SetAgreementPower:
    """``n_k = k``: registers solve k-set agreement among exactly k procs.

    Lower bound: the trivial protocol (everyone decides its own input —
    at most ``k`` distinct values among ``k`` processes). Upper bound:
    the Borowsky–Gafni / Herlihy–Shavit / Saks–Zaharoglou impossibility
    (``k + 1`` processes cannot wait-free solve ``k``-set agreement from
    registers).
    """

    def component(k: int) -> PowerBound:
        return PowerBound(
            lower=k,
            upper=k,
            source="trivial protocol / BG-HS-SZ impossibility",
        )

    return SetAgreementPower(component, "registers")


def m_consensus_power(m: int) -> SetAgreementPower:
    """``n_k = m·k`` for the ``m``-consensus object.

    Lower bound: partition ``m·k`` processes into ``k`` groups of ``m``;
    each group runs consensus on its own object; at most ``k`` distinct
    decisions (the group-partition protocol the tests certify it with).
    Upper bound: Chaudhuri–Reiners [6] via the Borowsky–Gafni
    simulation.
    """
    require(m >= 1, SpecificationError, f"m must be >= 1, got {m}")

    def component(k: int) -> PowerBound:
        return PowerBound(
            lower=m * k,
            upper=m * k,
            source="group partition protocol / Chaudhuri-Reiners",
        )

    return SetAgreementPower(component, f"{m}-consensus")


def strong_sa_power(c: int = 2) -> SetAgreementPower:
    """Power of the strong ``c``-SA object: ``(1, ..., 1, ∞, ∞, ...)``.

    ``n_k = ∞`` for ``k >= c`` (the object answers any number of
    processes with at most ``c`` distinct values — Section 4); for
    ``k < c`` the object does not help beyond registers, so ``n_k = k``
    (for ``c = 2`` this is the classical "2-SA has consensus number 1",
    mechanized for small cases in experiment E13).
    """
    require(c >= 1, SpecificationError, f"c must be >= 1, got {c}")

    def component(k: int) -> PowerBound:
        if k >= c:
            return PowerBound(
                lower=UNBOUNDED,
                upper=UNBOUNDED,
                source="strong SA answers any number of processes",
            )
        return PowerBound(
            lower=k,
            upper=k,
            source="below c the strong SA object adds nothing to registers",
        )

    return SetAgreementPower(component, f"strong {c}-SA")


def combined_pac_power(n: int, m: int) -> SetAgreementPower:
    """Power bounds for the ``(n, m)``-PAC object.

    ``n_1 = m`` exactly (Theorem 5.3). For ``k >= 2`` the embedded
    ``m``-consensus gives ``n_k >= m·k``; no matching upper bound is
    known — the paper itself leaves the tail of ``O_n``'s power
    uncomputed, using only its existence.
    """
    require(n >= 1, SpecificationError, f"n must be >= 1, got {n}")
    require(m >= 1, SpecificationError, f"m must be >= 1, got {m}")

    def component(k: int) -> PowerBound:
        if k == 1:
            return PowerBound(lower=m, upper=m, source="Theorem 5.3")
        return PowerBound(
            lower=m * k,
            upper=None,
            source="embedded m-consensus via group partition; tail open",
        )

    return SetAgreementPower(component, f"({n},{m})-PAC")


def on_power(n: int) -> SetAgreementPower:
    """Power bounds of ``O_n = (n+1, n)-PAC`` (Definition 6.1)."""
    require(n >= 2, SpecificationError, f"O_n requires n >= 2, got {n}")
    inner = combined_pac_power(n + 1, n)

    def component(k: int) -> PowerBound:
        return inner[k]

    return SetAgreementPower(component, f"O_{n}")


def on_prime_power(n: int) -> SetAgreementPower:
    """Power bounds of ``O'_n`` — identical to ``O_n`` by construction.

    ``O'_n`` is the bundle of ``(n_k, k)``-SA objects for ``O_n``'s
    power ``(n_1, n_2, ...)``; each ``(n_k, k)``-SA solves ``k``-set
    agreement among ``n_k`` processes by definition, and adding the rest
    of the bundle cannot push any component higher than ``O_n``'s (the
    bundle is implementable from ``O_n``'s power solutions).
    """
    inner = on_power(n)

    def component(k: int) -> PowerBound:
        return inner[k]

    return SetAgreementPower(component, f"O'_{n}")
