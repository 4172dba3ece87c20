"""The paper's primary contribution: PAC objects and the separation pair.

* :mod:`repro.core.pac` — the ``n``-PAC object (Algorithm 1), history
  legality (Lemma 3.2), and the Theorem 3.5 property auditor.
* :mod:`repro.core.dac` — the ``n``-DAC problem and the abortable DAC
  object of [9].
* :mod:`repro.core.set_agreement` — strong 2-SA and ``(n, k)``-SA.
* :mod:`repro.core.combined` — the ``(n, m)``-PAC object (Section 5).
* :mod:`repro.core.separation` — ``O_n``, ``O'_n`` (Section 6).
* :mod:`repro.core.power` — set agreement power sequences with
  certified bounds; :mod:`repro.core.power_certification` runs the
  protocols behind them.
* :mod:`repro.core.relations` — the implementability ledger and the
  Corollary 6.6 separation report.
* :mod:`repro.core.hierarchy` — evidence-graded consensus-number
  probes.

The package exports nothing: import each name from its module.
"""
