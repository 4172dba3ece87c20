"""Protocols: algorithms over shared objects.

* :mod:`repro.protocols.tasks` — decision-task definitions;
* :mod:`repro.protocols.dac_from_pac` — Algorithm 2 (Theorem 4.1);
* :mod:`repro.protocols.consensus` — consensus protocols per catalog
  object (hierarchy tour);
* :mod:`repro.protocols.set_agreement` — k-set agreement through an
  ``O'_n`` bundle;
* :mod:`repro.protocols.candidates` — doomed candidates for the
  impossibility experiments;
* :mod:`repro.protocols.implementation` — the implementation framework
  and client harness;
* :mod:`repro.protocols.embodiment` — Observation 5.1 and Lemma 6.4
  implementations;
* :mod:`repro.protocols.universal` — Herlihy's universal construction.
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "dac_from_pac": ("algorithm2_processes",),
        "embodiment": ("on_prime_from_consensus_and_sa",),
        "implementation": ("check_implementation",),
        "obstruction_free": (
            "adopt_commit_round_objects",
            "obstruction_free_processes",
        ),
        "tasks": ("DacDecisionTask", "KSetAgreementTask"),
        "universal": ("UniversalConstruction",),
    },
)
