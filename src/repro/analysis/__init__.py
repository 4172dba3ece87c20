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
            "verify_disjoint_commutativity",
            "verify_read_transparency",
        ),
        "explorer": ("Explorer",),
        "valency_analyzer": ("ValencyAnalyzer",),
        "valency": (
            "classify",
            "contended_object",
            "find_critical_configuration",
        ),
    },
)
