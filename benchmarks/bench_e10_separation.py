"""E10 — Corollary 6.6 (main result): same power, not equivalent.

Regenerated rows:

* power grid — for levels n in {2, 3} and components k in {1, 2}:
  whether O_n and O'_n each solve k-set agreement among n_k processes
  (decided constructively, model-checked) — identical columns;
* separation — O_n solves (n+1)-DAC; every candidate reduction of
  (n+1)-DAC to O'_n's Lemma-6.4 base family fails (read off
  ``separation_report(n)``, the computation ``repro separation`` and
  ``repro ledger`` render).
"""

import pytest

from repro.analysis.explorer import Explorer
from repro.core.power import on_power
from repro.core.relations import separation_report
from repro.core.separation import make_on, make_on_prime
from repro.protocols.consensus import CombinedPacConsensusProcess
from repro.protocols.set_agreement import bundle_processes
from repro.protocols.tasks import KSetAgreementTask

from _report import emit_rows


def on_solves(n, k):
    """Does O_n solve k-set agreement among n_k processes? Decided via
    its consensus face (k=1) or the k-group partition over k fresh O_n
    instances' consensus faces (k>=2) — here we check the k=1 cell and
    the bundled k=2 cell through a single object for tractability."""
    count = on_power(n)[k].lower
    if k == 1:
        inputs = tuple(pid % 2 for pid in range(count))
        explorer = Explorer(
            {"ON": make_on(n)},
            [
                CombinedPacConsensusProcess(pid, value, obj="ON")
                for pid, value in enumerate(inputs)
            ],
        )
        return explorer.check_safety(
            KSetAgreementTask(count, 1, domain=None), inputs
        ) is None
    # k >= 2: partition count = n*k processes into k groups, each on its
    # own O_n instance's consensus face.
    inputs = tuple(range(count))
    objects = {f"ON{g}": make_on(n) for g in range(k)}

    class GroupOn(CombinedPacConsensusProcess):
        def __init__(self, pid, value):
            super().__init__(pid, value, obj=f"ON{pid // n}")

    explorer = Explorer(
        objects, [GroupOn(pid, v) for pid, v in enumerate(inputs)]
    )
    return explorer.check_safety(
        KSetAgreementTask(count, k, domain=None), inputs
    ) is None


def on_prime_solves(n, k):
    count = on_power(n)[k].lower
    inputs = (
        tuple(pid % 2 for pid in range(count)) if k == 1 else tuple(range(count))
    )
    explorer = Explorer(
        {"OPRIME": make_on_prime(n, levels=max(2, k))},
        bundle_processes(inputs, level=k),
    )
    return explorer.check_safety(
        KSetAgreementTask(count, k, domain=None), inputs
    ) is None


def test_e10_power_grid_report(benchmark):
    benchmark.pedantic(_e10_power_grid_report, rounds=1, iterations=1)


def _e10_power_grid_report():
    rows = []
    for n in (2, 3):
        for k in (1, 2):
            count = on_power(n)[k].lower
            a = on_solves(n, k)
            b = on_prime_solves(n, k)
            rows.append(
                (
                    f"n={n}, k={k} ({count} procs)",
                    "✓" if a else "✗",
                    "✓" if b else "✗",
                    "identical (same power, §6)",
                )
            )
            assert a == b is True
    emit_rows(
        "E10a",
        "Power grid: O_n and O'_n solve the same (k, n_k) cells",
        ["cell", "O_n", "O'_n", "paper"],
        rows,
    )


def test_e10_separation_report(benchmark):
    benchmark.pedantic(_e10_separation_report, rounds=1, iterations=1)


def _e10_separation_report():
    rows = []
    for n in (2, 3):
        report = separation_report(n)
        total = len(report.candidates)
        refuted = total - len(report.survivors)
        rows.append(
            (
                f"level n={n}",
                "solves ✓" if report.on_solves_dac else "FAILS",
                f"{refuted}/{total} candidates refuted",
                "O_n ✓ / O'_n ✗ (Cor 6.6)",
            )
        )
        assert report.reproduces_corollary_6_6
    emit_rows(
        "E10b",
        "Separation: (n+1)-DAC splits the pair — O_n solves it, every "
        "candidate over O'_n's reduction family fails",
        ["level", "O_n side", "O'_n side", "paper"],
        rows,
    )


def test_e10_bench_grid_cell(benchmark):
    result = benchmark(lambda: on_prime_solves(2, 2))
    assert result
