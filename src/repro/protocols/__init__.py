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
        "candidates": (
            "CandidateSystem",
            "ScanningRacerProcess",
            "consensus_via_queue",
            "consensus_via_test_and_set",
            "all_candidates",
            "consensus_via_exhausted_consensus",
            "consensus_via_pac_retry",
            "consensus_via_strong_sa",
            "dac_via_consensus",
            "dac_via_sa_arbiter",
        ),
        "consensus": (
            "CasConsensusProcess",
            "CombinedPacConsensusProcess",
            "OneShotConsensusProcess",
            "StickyBitConsensusProcess",
            "TestAndSetConsensusProcess",
            "one_shot_consensus_processes",
        ),
        "dac_from_pac": ("Algorithm2Process", "algorithm2_processes"),
        "embodiment": (
            "bundle_from_consensus_and_sa",
            "combined_pac_from_parts",
            "consensus_from_combined",
            "on_prime_from_consensus_and_sa",
            "pac_from_combined",
        ),
        "obstruction_free": (
            "ObstructionFreeConsensusProcess",
            "adopt_commit_round_objects",
            "obstruction_free_processes",
        ),
        "snapshot": ("AfekSnapshotImplementation",),
        "implementation": (
            "ClientRunResult",
            "Implementation",
            "RedirectImplementation",
            "check_implementation",
            "run_clients",
        ),
        "set_agreement": ("BundleProcess", "bundle_processes"),
        "tasks": (
            "ConsensusTask",
            "DacDecisionTask",
            "DecisionTask",
            "KSetAgreementTask",
            "SafetyVerdict",
        ),
        "universal": ("UniversalConstruction",),
    },
)
