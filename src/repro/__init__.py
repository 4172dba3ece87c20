"""repro — executable reproduction of "Life Beyond Set Agreement".

Chan, Hadzilacos & Toueg (PODC 2017) prove that the *set agreement
power* of a shared object does not determine which objects it can
implement: every level ``n >= 2`` of the consensus hierarchy contains a
pair ``O_n`` / ``O'_n`` with identical set agreement power that are not
equivalent. This package makes the paper's whole world executable:

* the objects — ``n``-PAC (Algorithm 1), ``n``-DAC, strong 2-SA,
  ``(n, k)``-SA, ``(n, m)``-PAC, ``O_n`` and ``O'_n``
  (:mod:`repro.core`), plus the classical catalog
  (:mod:`repro.objects`);
* the model — asynchronous processes over atomic objects with an
  adversarial scheduler (:mod:`repro.runtime`);
* the algorithms — Algorithm 2, the consensus/set-agreement protocol
  library, the Lemma 6.4 and Observation 5.1 implementations, the
  universal construction, and the doomed lower-bound candidates
  (:mod:`repro.protocols`);
* the proof machinery — bounded model checking, valency/bivalency
  analysis, and linearizability checking (:mod:`repro.analysis`).

Quickstart::

    from repro import NPacSpec, op
    spec = NPacSpec(2)
    _state, (done, decided) = spec.run(
        [op("propose", "hello", 1), op("decide", 1)])
    assert decided == "hello"

See ``examples/`` for full scenarios and ``EXPERIMENTS.md`` for the
paper-versus-measured record.
"""

import sys
from importlib import import_module
from typing import Callable, List, Mapping, Sequence, Tuple

__version__ = "1.0.0"


def _lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """PEP 562 ``(__getattr__, __dir__, __all__)`` for ``package``.

    ``table`` maps a submodule to the names the package exports from
    it. A name is imported from ``package.<submodule>`` on first access
    and then cached in the package namespace, so ``import package``
    loads nothing and a command pays only for the names it touches.
    The table's submodules are attributes too, as eager imports made
    them. Every package ``__init__`` that re-exports uses this helper.
    """
    origin = {name: sub for sub, names in table.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        sub = origin.get(name)
        if sub is None:
            if name in table:
                return import_module(f"{package}.{name}")
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(import_module(f"{package}.{sub}"), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__, sorted(origin)


__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "errors": (
            "AnalysisError",
            "CacheIntegrityError",
            "ExplorationBudgetExceeded",
            "InvalidOperationError",
            "InvalidRequestError",
            "KernelUnavailableError",
            "NotLinearizableError",
            "ProtocolError",
            "ReproError",
            "SchedulingError",
            "ServerOverloadedError",
            "SpecificationError",
            "classify_error",
            "error_report",
        ),
        "types": ("ABORT", "BOTTOM", "DONE", "NIL", "Operation", "op"),
        "objects": (
            "CompareAndSwapSpec",
            "FetchAndAddSpec",
            "MConsensusSpec",
            "QueueSpec",
            "RegisterSpec",
            "SequentialSpec",
            "SharedObject",
            "StickyBitSpec",
            "SwapSpec",
            "TestAndSetSpec",
            "register_array",
        ),
        "core": (
            "AbortableDacSpec",
            "CombinedPacSpec",
            "DacTask",
            "NKSetAgreementSpec",
            "NPacSpec",
            "SetAgreementBundleSpec",
            "SetAgreementPower",
            "StrongSetAgreementSpec",
            "UNBOUNDED",
            "check_theorem_3_5",
            "is_legal_history",
            "make_on",
            "make_on_prime",
            "on_power",
            "on_prime_power",
            "separation_pair",
        ),
        "runtime": (
            "GeneratorProcess",
            "ProcessAutomaton",
            "RoundRobinScheduler",
            "SeededScheduler",
            "SoloScheduler",
            "System",
        ),
        "analysis": (
            "Explorer",
            "LinearizabilityChecker",
            "check_linearizable",
            "classify",
            "find_critical_configuration",
        ),
        "protocols": (
            "ConsensusTask",
            "DacDecisionTask",
            "KSetAgreementTask",
            "UniversalConstruction",
            "algorithm2_processes",
            "all_candidates",
            "check_implementation",
            "on_prime_from_consensus_and_sa",
        ),
    },
)
