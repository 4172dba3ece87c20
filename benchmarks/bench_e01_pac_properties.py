"""E1 — Theorem 3.5: n-PAC Agreement / Validity / Nontriviality.

Paper claim: every history of the n-PAC object satisfies the three
properties. Regenerated rows: per (n, history class), the number of
histories audited and violations found (always 0).
"""

import pytest

from repro.core.pac import check_theorem_3_5
from repro.workloads.histories import (
    all_pac_histories,
    random_pac_history,
)

from _report import emit_rows


def audit_random(n, count, length, legal_bias):
    violations = 0
    for seed in range(count):
        history = random_pac_history(n, length, seed=seed, legal_bias=legal_bias)
        if not check_theorem_3_5(history, n).ok:
            violations += 1
    return count, violations


def audit_exhaustive(n, max_length):
    total = 0
    violations = 0
    for history in all_pac_histories(n, max_length):
        total += 1
        if not check_theorem_3_5(list(history), n).ok:
            violations += 1
    return total, violations


def test_e01_report(benchmark):
    benchmark.pedantic(_e01_report, rounds=1, iterations=1)


def _e01_report():
    rows = []
    total, violations = audit_exhaustive(2, 5)
    rows.append(("n=2 exhaustive (len<=5)", total, violations, "0 (Thm 3.5)"))
    for n, bias, label in [
        (2, 0.0, "n=2 random adversarial"),
        (3, 0.5, "n=3 random mixed"),
        (4, 1.0, "n=4 random legal"),
    ]:
        total, violations = audit_random(n, count=300, length=40, legal_bias=bias)
        rows.append((label, total, violations, "0 (Thm 3.5)"))
    emit_rows(
        "E1",
        "Theorem 3.5: PAC agreement/validity/nontriviality hold on every "
        "history",
        ["history class", "histories", "violations", "paper"],
        rows,
    )
    assert all(row[2] == 0 for row in rows)


def test_e01_bench_theorem_audit(benchmark):
    history = random_pac_history(3, 60, seed=11, legal_bias=0.4)

    def run():
        return check_theorem_3_5(history, 3)

    result = benchmark(run)
    assert result.ok
