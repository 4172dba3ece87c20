"""The paper's primary contribution: PAC objects and the separation pair.

* :mod:`repro.core.pac` — the ``n``-PAC object (Algorithm 1), history
  legality (Lemma 3.2), and the Theorem 3.5 property auditor.
* :mod:`repro.core.dac` — the ``n``-DAC problem and the abortable DAC
  object of [9].
* :mod:`repro.core.set_agreement` — strong 2-SA and ``(n, k)``-SA.
* :mod:`repro.core.combined` — the ``(n, m)``-PAC object (Section 5).
* :mod:`repro.core.separation` — ``O_n``, ``O'_n`` (Section 6).
* :mod:`repro.core.power` — set agreement power sequences with
  certified bounds.
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "combined": ("CombinedPacSpec", "CombinedPacState"),
        "dac": ("AbortableDacSpec", "DacTask", "DacVerdict"),
        "hierarchy": ("HierarchyProbe", "ProbeCell", "builtin_catalog"),
        "pac": (
            "NPacSpec",
            "PacState",
            "TheoremCheck",
            "check_theorem_3_5",
            "is_legal_history",
            "upset_after",
        ),
        "power_certification": (
            "Certification",
            "certify_bundle_level",
            "certify_combined_pac",
        ),
        "relations": (
            "RelationEdge",
            "Ledger",
            "SeparationReport",
            "paper_ledger",
            "separation_report",
        ),
        "power": (
            "PowerBound",
            "SetAgreementPower",
            "combined_pac_power",
            "m_consensus_power",
            "on_power",
            "on_prime_power",
            "register_power",
            "strong_sa_power",
        ),
        "separation": (
            "SeparationPair",
            "SetAgreementBundleSpec",
            "make_on",
            "make_on_prime",
            "separation_pair",
        ),
        "set_agreement": (
            "NKSetAgreementSpec",
            "NKSaState",
            "StrongSetAgreementSpec",
            "UNBOUNDED",
            "sa_family_for_power",
        ),
    },
)
