"""Verification machinery: model checking, valency, linearizability.

* :mod:`repro.analysis.explorer` — bounded exhaustive exploration of
  configuration graphs (safety counterexamples, livelocks, solo runs);
* :mod:`repro.analysis.valency` — the FLP/bivalency calculus, computed;
* :mod:`repro.analysis.linearizability` — Wing–Gong linearizability
  checking against any sequential spec;
* :mod:`repro.analysis.properties` — per-run auditors for simulations;
* :mod:`repro.analysis.kernel` / :mod:`repro.analysis.symmetry` — the
  fast-core substrate: packed-state configuration interning and opt-in
  symmetry reduction (see ``docs/performance.md``);
* :mod:`repro.analysis.parallel` / :mod:`repro.analysis.cache` — the
  scale-out substrate: a crash-isolated multiprocessing work pool with
  deterministic result merging, and a persistent content-addressed
  store for exploration answers and sweep results.
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "commuting": (
            "CommutingViolation",
            "check_pair_commutes",
            "verify_disjoint_commutativity",
            "verify_read_transparency",
        ),
        "explorer": (
            "Configuration",
            "Edge",
            "ExplorationResult",
            "Explorer",
            "Livelock",
            "SafetyCounterexample",
        ),
        "cache": (
            "CacheStats",
            "ExplorationCache",
            "code_salt",
            "explore_cached",
            "fingerprint",
        ),
        "parallel": (
            "VerificationPool",
            "WorkFailure",
            "WorkItem",
            "WorkResult",
        ),
        "symmetry": ("ProcessSymmetry", "groups_by_input"),
        "linearizability": (
            "LinearizabilityChecker",
            "LinearizabilityVerdict",
            "check_linearizable",
        ),
        "replay": (
            "ReplayReport",
            "oracle_script",
            "replay_counterexample",
            "verify_replay",
        ),
        "properties": (
            "RunAudit",
            "audit_dac_run",
            "audit_task_run",
        ),
        "valency_analyzer": ("CriticalReport", "HookStep", "ValencyAnalyzer"),
        "valency": (
            "BIVALENT",
            "CriticalConfiguration",
            "DECISIONLESS",
            "InitialValencyReport",
            "ONE_VALENT",
            "Valency",
            "ZERO_VALENT",
            "classify",
            "contended_object",
            "find_critical_configuration",
            "initial_valency_report",
        ),
    },
)
