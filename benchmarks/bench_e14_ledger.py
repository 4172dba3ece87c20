"""E14 — the roadmap chain (Section 2) as executed evidence.

The paper's proof is a chain: Obs 5.1 + Thm 4.1 give O_n its power;
Lemma 6.4 reduces O'_n to the base family; Thm 4.2/4.3 cut the base
family off from the (n+1)-PAC; hence Thm 6.5. The ledger re-verifies
every positive edge (linearizability / model checking) and re-refutes
every negative edge's candidates at build time; the regenerated rows
are the edges with their evidence.
"""

import pytest

from repro.core.relations import paper_ledger, separation_report

from _report import emit_rows


def test_e14_report(benchmark):
    benchmark.pedantic(_e14_report, rounds=1, iterations=1)


def _e14_report():
    rows = []
    for n in (2, 3):
        report = separation_report(n, seeds=3)
        assert report.conflicts == ()
        edges = report.ledger.edges()
        positive = sum(1 for edge in edges if edge.positive)
        negative = len(edges) - positive
        rows.append(
            (
                f"level n={n}",
                f"{positive} verified / {negative} refuted",
                "consistent ✓",
                "reproduced ✓"
                if report.reproduces_corollary_6_6
                else "NOT reproduced",
            )
        )
        assert report.reproduces_corollary_6_6
    emit_rows(
        "E14",
        "Roadmap chain (Section 2) re-verified as an implementability "
        "ledger; Corollary 6.6 derived from the edges",
        ["level", "edges", "consistency", "Corollary 6.6"],
        rows,
    )


def test_e14_bench_ledger_build(benchmark):
    ledger = benchmark(lambda: paper_ledger(2, seeds=1))
    assert ledger.check_consistency() == []
